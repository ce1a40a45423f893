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

import numpy as np

from .basis import ControlBasis, standard_preparations
from .qcore import (
    ID2,
    KET0,
    QuantumChannel,
    choi_to_superop,
    fidelity,
    ket_dm,
    partial_trace,
    superop_to_choi,
)
from .simulator import SEModel, rng_stream, unitary_step
from .tomography import (CI_ALPHA, BoxStats, box_stats,
                         channel_from_prep_outputs, measure_grid)


@dataclass(frozen=True)
class MarkovBaseline:
    """Per-step channels keyed by (interval index, gate label)."""

    channels: dict[tuple[int, str], QuantumChannel] = field(repr=False)
    prep_states: tuple[np.ndarray, ...] = field(repr=False)
    pool: int
    shots: int | None
    seed: int

    def channel(self, interval: int, label: str) -> QuantumChannel:
        try:
            return self.channels[(interval, label)]
        except KeyError:
            raise KeyError(f"no channel characterized for interval {interval}, "
                           f"gate {label!r}") from None


def _single_interval_model(model: SEModel, interval: int) -> SEModel:
    env_marginal = partial_trace(model.initial_se, 1, (model.sys_dim, model.env_dim))
    init = np.kron(ket_dm(KET0), env_marginal)
    return SEModel(sys_dim=model.sys_dim, env_dim=model.env_dim,
                   intervals=(model.intervals[interval],), initial_se=init,
                   env_reset=False, env_init=model.env_init,
                   meas_channel=None, label=f"{model.label}/interval{interval}")


def estimate_step_channel(model: SEModel, interval: int, gate: np.ndarray,
                          label: str, shots: int | None, master_seed: int,
                          record_base: int = 0) -> QuantumChannel:
    """Tomograph L_interval^gate from four-preparation experiments."""
    steps = tuple(unitary_step(gate @ prep.gate, f"{label}.{prep.label}")
                  for prep in standard_preparations())
    outputs = measure_grid(_single_interval_model(model, interval), (steps,),
                           shots, master_seed, first_record=record_base)
    return channel_from_prep_outputs(outputs, label)


def characterize(model: SEModel, basis: ControlBasis, shots: int | None,
                 master_seed: int) -> MarkovBaseline:
    """Estimate every per-step channel the standard sequences need.

    Interval 0 follows the preparation (gate I), later intervals follow
    each pool gate. Readout error cannot be split from the per-step
    channels by this protocol, so models declaring one are rejected.
    """
    if model.meas_channel is not None:
        raise ValueError("the composable baseline assumes ideal readout")
    channels: dict[tuple[int, str], QuantumChannel] = {}
    rec = 0
    channels[(0, "I")] = estimate_step_channel(model, 0, ID2, "I", shots,
                                               master_seed, rec)
    rec += 4
    for m in range(1, model.steps):
        for j in range(basis.size):
            channels[(m, f"U{j}")] = estimate_step_channel(
                model, m, basis.unitaries[j], f"U{j}", shots, master_seed, rec)
            rec += 4
    return MarkovBaseline(channels=channels,
                          prep_states=tuple(p.state for p in standard_preparations()),
                          pool=basis.size, shots=shots, seed=master_seed)


def predict(baseline: MarkovBaseline,
            keys: list[tuple[int, int, int]]) -> np.ndarray:
    """Composed-channel predictions for standard sequences (i, j, k), shape
    ``(len(keys), 2, 2)``.

    The stored channels are validated once, when estimated; their
    composition is a product of superoperators, not a new channel. Each
    channel's superoperator is built once, ``s2 @ (s1 @ s0)`` is formed for
    every pair of the gates the keys use, and every preparation is pushed
    through every pair before the keys are read out.
    """
    i, j, k = np.array(keys, dtype=int).reshape(-1, 3).T

    def superops(interval: int, labels: list[str]) -> np.ndarray:
        return np.array([choi_to_superop(baseline.channel(interval, label).choi,
                                         2, 2) for label in labels])

    rows, pos = np.unique(np.concatenate([j, k]), return_inverse=True)
    labels = [f"U{q}" for q in rows]
    s10 = superops(1, labels) @ superops(0, ["I"])[0]
    choi = superop_to_choi(superops(2, labels)[None, :] @ s10[:, None], 2, 2)
    preds = np.einsum("jksatb,ist->ijkab",
                      choi.reshape(len(rows), len(rows), 2, 2, 2, 2),
                      np.array(baseline.prep_states))
    return preds[i, pos[:len(j)], pos[len(j):]]


@dataclass(frozen=True)
class MarkovComparison:
    tensor_fids: dict[tuple[int, int, int], float]
    markov_fids: dict[tuple[int, int, int], float]
    tensor_stats: BoxStats
    markov_stats: BoxStats

    @property
    def median_gap(self) -> float:
        return self.tensor_stats.median - self.markov_stats.median


def compare_with_tensor(tensor_fids: dict[tuple[int, int, int], float],
                        states: np.ndarray,
                        baseline: MarkovBaseline) -> MarkovComparison:
    """Score the baseline on the sequences the tensor was scored on."""
    keys = list(tensor_fids)
    i, j, k = np.array(keys, dtype=int).reshape(-1, 3).T
    fids = fidelity(predict(baseline, keys), states[i, j, k])
    markov_fids = dict(zip(keys, fids.tolist()))
    return MarkovComparison(
        tensor_fids=dict(tensor_fids), markov_fids=markov_fids,
        tensor_stats=box_stats(np.array(list(tensor_fids.values()))),
        markov_stats=box_stats(np.array(list(markov_fids.values()))))


def bootstrap_median_ci(values: np.ndarray, resamples: int = 1000,
                        seed: int = 0) -> tuple[float, float]:
    """Percentile interval for the median under sequence resampling."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least two values")
    rng = rng_stream(seed, 404)
    idx = rng.integers(0, values.size, size=(resamples, values.size))
    medians = np.median(values[idx], axis=1)
    lo, hi = np.percentile(medians, [100 * CI_ALPHA / 2, 100 * (1 - CI_ALPHA / 2)])
    return float(lo), float(hi)
