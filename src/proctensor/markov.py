"""Composable-channel baseline for comparison with the process tensor.

The baseline assumes the environment returns to its initial marginal
before every step, so each (gate, free interval) pair acts as a fixed
channel on the system alone:

    L_m^G(rho) = tr_E[ V_m (G rho G^dag (x) rho_E0) V_m^dag ]

Each channel is estimated exactly the way a lab would: four informationally
complete preparations are pushed through the gate and interval, the outputs
are tomographed, the linear map is solved for and projected onto the CPTP
set. Predictions compose the per-step channels; any deviation from the
measured states witnesses inter-step correlations the baseline cannot carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .basis import ControlBasis, standard_preparations
from .qcore import (
    ID2,
    KET0,
    choi_to_superop,
    fidelity,
    ket_dm,
    partial_trace,
    superop_to_choi,
)
from .simulator import SEModel, rng_stream
from .tomography import (CI_ALPHA, BoxStats, box_stats,
                         channel_from_prep_outputs, measure_grid)


@dataclass(frozen=True)
class MarkovBaseline:
    """Per-step Choi matrices, one stack per interval: interval 0 holds the
    channel that follows the preparation (gate I), shape (1, 4, 4), and each
    later interval one channel per pool gate, shape (pool, 4, 4)."""

    chois: tuple[np.ndarray, ...] = field(repr=False)
    prep_states: np.ndarray = field(repr=False)  # (4, 2, 2)


def _single_interval_model(model: SEModel, interval: int) -> SEModel:
    env_marginal = partial_trace(model.initial_se, 1)
    return SEModel(intervals=(model.intervals[interval],),
                   initial_se=np.kron(ket_dm(KET0), env_marginal))


def estimate_step_channel(model: SEModel, interval: int,
                          gates: Sequence[np.ndarray],
                          shots: int | None, master_seed: int,
                          record_base: int = 0) -> np.ndarray:
    """Tomograph L_interval^gate for each of the g ``gates`` from
    four-preparation experiments, all in one grid: gate g, preparation p is
    record ``record_base + 4 g + p``. Returns the Choi stack (g, 4, 4), each
    channel validated as it is built."""
    slot = tuple(gate @ prep.gate
                 for gate in gates for prep in standard_preparations())
    outputs = measure_grid(_single_interval_model(model, interval), (slot,),
                           shots, master_seed, first_record=record_base)
    channels = channel_from_prep_outputs(outputs.reshape(len(gates), 4, 2, 2))
    return np.array([ch.choi for ch in channels])


def characterize(model: SEModel, basis: ControlBasis, shots: int | None,
                 master_seed: int) -> MarkovBaseline:
    """Estimate every per-step channel the standard sequences need.

    Interval 0 follows the preparation (gate I), later intervals follow
    each pool gate. Readout error cannot be split from the per-step
    channels by this protocol, so models declaring one are rejected.
    """
    if model.meas_channel is not None:
        raise ValueError("the composable baseline assumes ideal readout")
    chois, rec = [], 0
    for m in range(model.steps):
        gates = (ID2,) if m == 0 else basis.unitaries
        chois.append(estimate_step_channel(model, m, gates, shots,
                                           master_seed, rec))
        rec += 4 * len(gates)
    return MarkovBaseline(chois=tuple(chois), prep_states=np.array(
        [p.state for p in standard_preparations()]))


def predict(baseline: MarkovBaseline, m: int) -> np.ndarray:
    """Composed-channel predictions (P, m, m, 2, 2) for every preparation and
    every pair of the last m pool gates.

    The stored channels are validated once, when estimated; their
    composition is a product of superoperators, not a new channel:
    ``s2 @ (s1 @ s0)`` is formed for every pair of gates, and every
    preparation is pushed through every pair.
    """
    s0, s1, s2 = (choi_to_superop(c) for c in baseline.chois)
    s10 = s1[-m:] @ s0[0]
    choi = superop_to_choi(s2[None, -m:] @ s10[:, None])
    return np.einsum("jksatb,ist->ijkab", choi.reshape(m, m, 2, 2, 2, 2),
                     baseline.prep_states)


@dataclass(frozen=True)
class MarkovComparison:
    tensor_fids: np.ndarray  # (P, m, m)
    markov_fids: np.ndarray  # (P, m, m)
    tensor_stats: BoxStats
    markov_stats: BoxStats

    @property
    def median_gap(self) -> float:
        return self.tensor_stats.median - self.markov_stats.median


def compare_with_tensor(tensor_fids: np.ndarray, states: np.ndarray,
                        baseline: MarkovBaseline) -> MarkovComparison:
    """Score the baseline on the block the tensor was scored on:
    ``tensor_fids`` (P, m, m) covers every preparation and every pair of the
    last m pool elements, and ``states`` is the measured grid."""
    m = tensor_fids.shape[-1]
    markov_fids = fidelity(predict(baseline, m), states[:, -m:, -m:])
    return MarkovComparison(tensor_fids=tensor_fids, markov_fids=markov_fids,
                            tensor_stats=box_stats(tensor_fids),
                            markov_stats=box_stats(markov_fids))


def bootstrap_median_ci(values: np.ndarray, resamples: int = 1000,
                        seed: int = 0) -> tuple[float, float]:
    """Percentile interval for the median under sequence resampling, over
    every value of an array of any shape."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 2:
        raise ValueError("need at least two values")
    rng = rng_stream(seed, 404)
    idx = rng.integers(0, values.size, size=(resamples, values.size))
    medians = np.median(values[idx], axis=1)
    lo, hi = np.percentile(medians, [100 * CI_ALPHA / 2, 100 * (1 - CI_ALPHA / 2)])
    return float(lo), float(hi)
