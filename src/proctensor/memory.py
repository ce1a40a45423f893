"""Environmental memory bounds from conditional mutual information.

A classical bit is encoded in the choice between two preparations, the
reconstructed tensor is contracted with depolarizing barriers inserted at
chosen slots, and a decoding rotation plus computational-basis readout
turns the two outputs into a binary channel. The mutual information
I(E:D) of that channel, maximized over encodings, decoder and the gates
on unbarred slots, lower-bounds the information the environment carries
past the barriers; it can never exceed one bit.

Because the barrier erases the system wire completely, any nonzero
maximized value witnesses a path through the environment. Confidence
intervals use the basic (reflected percentile) bootstrap so that a
surrogate with no memory yields intervals containing zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore as optimize  # bench/tracer.py counts searches by this name
from .basis import DualSet, build_duals, prep_matrix_form
from .qcore import u3_entries
from .simulator import rng_stream
from .tomography import (
    CI_ALPHA,
    STANDARD_STEPS,
    ProcessTensor,
    _parts_from_probs,
    coefficient_map,
    form_coefficients,
    prep_slot,
    redraw_records,
    slot_kernel,
    unitary_slot,
)

ENTROPY_FLOOR = 1e-12
# matrix form of the depolarizing channel, the equal mixture of the four
# Pauli gates' forms: it lies in the unitary span and contracts like a gate
BARRIER_FORM = np.eye(4, dtype=complex) / 4.0
# the computational-basis probe: encoders |0> and |1>, then the decoder and
# the filler, three u3 angles each; a probe without a filler takes the first 9
CANONICAL_START = np.array([0.0, 0.0, 0.0, np.pi, 0.0, np.pi,
                            0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
# the flattened matrix forms of preparing each matrix unit |i><j|, by row
_UNIT_PREP_FORMS = np.array([prep_matrix_form(e).reshape(-1)
                             for e in np.eye(4, dtype=complex).reshape(4, 2, 2)])


def _check_placements(placements: tuple[int, ...], steps: int) -> tuple[int, ...]:
    placements = tuple(sorted(set(int(p) for p in placements)))
    if not placements:
        raise ValueError("need at least one barrier placement")
    for p in placements:
        if not 1 <= p < steps:
            raise ValueError(f"barrier slot {p} outside [1, {steps - 1}]")
    return placements


def cmi_kernel(pt: ProcessTensor, placements: tuple[int, ...]) -> np.ndarray:
    """The probe tensor with barriers contracted in at ``placements``, laid
    out for matmuls: K[p, q, ..., a, st]. Each unbarred slot leads with a
    pair of axes (p, q), halved, for the entries of the filler's matrix
    form v v^dag / 2 (v = vec(u.T)); axis a takes the encoded state's
    entries and axis st the output state's. With every slot barred the
    kernel is K[a, st] (4, 4)."""
    placements = _check_placements(placements, pt.steps)
    maps = [coefficient_map(pt.duals[0]) @ _UNIT_PREP_FORMS.T]
    for s in range(1, pt.steps):
        maps.append(form_coefficients(BARRIER_FORM, pt.duals[s])
                    if s in placements else coefficient_map(pt.duals[s]))
    kernel = slot_kernel(pt.states, maps)  # K[a, (pq)..., s, t]
    fillers = kernel.ndim - 3
    kernel = np.moveaxis(kernel, 0, -3) * 0.5 ** fillers
    return kernel.reshape((4, 4) * fillers + (4, 4))


def binary_channel_mi(cond: np.ndarray) -> float:
    """I(E:D) in bits of a 2x2 conditional table p(d|e) under p(e) = 1/2.

    Rows are clamped to [floor, 1] and renormalized before use, which
    absorbs the slight unphysicality of shot-noise reconstructions. A NaN
    entry gives NaN.
    """
    joint = []
    for row in np.asarray(cond, dtype=float).tolist():
        p0, p1 = (min(max(p, ENTROPY_FLOOR), 1.0) for p in row)
        joint += [0.5 * p0 / (p0 + p1), 0.5 * p1 / (p0 + p1)]
    marginal = 0.5 * (joint[0] + joint[2]), 0.5 * (joint[1] + joint[3])
    mi = 0.0
    for j, m in zip(joint, marginal * 2):
        if not j <= ENTROPY_FLOOR:  # NaN included, so that it propagates
            mi += j * math.log2(j / m)
    return min(max(mi, 0.0), 1.0)


def _projector(k0: complex, k1: complex) -> tuple[complex, ...]:
    """The flattened entries of |k><k| for the qubit ket k = (k0, k1)."""
    k0c, k1c = k0.conjugate(), k1.conjugate()
    return (k0 * k0c, k0 * k1c, k1 * k0c, k1 * k1c)


def cmi_value(kernel: np.ndarray, x: np.ndarray) -> float:
    """Mutual information of the probe with u3 angles ``x`` (encoders,
    decoder, filler: three each) on a ``cmi_kernel``. Unbarred slots carry
    the filler gate (angles 9-11), or wait (identity) without one. The
    encoded states are u3|0> of the two encoders. A non-finite angle gives
    NaN.
    """
    x = np.asarray(x, dtype=float).tolist()  # scalar math runs on floats
    e0, e1, d = (u3_entries(*x[i:i + 3]) for i in (0, 3, 6))
    if kernel.ndim > 2:
        f = (1.0, 0.0, 0.0, 1.0) if len(x) == 9 else u3_entries(*x[9:12])
        v = np.array((f[0], f[2], f[1], f[3]), dtype=complex)
        vc = v.conj()
        for _ in range(kernel.ndim // 2 - 1):
            kernel = v @ (vc @ kernel.reshape(4, 4, -1))
        kernel = kernel.reshape(4, 4)
    encoded = np.array((_projector(e0[0], e0[2]), _projector(e1[0], e1[2])))
    rho = (encoded @ kernel).reshape(2, 2, 2)
    dec = np.array(d).reshape(2, 2)
    return binary_channel_mi(((dec @ rho) * dec.conj()).sum(-1).real)


@dataclass(frozen=True)
class CMIResult:
    bits: float
    params: np.ndarray  # the winning angles: 12 with a filler, else 9


def maximize_cmi(pt: ProcessTensor, placements: tuple[int, ...],
                 restarts: int = 20, seed: int = 0,
                 maxiter: int = 400) -> CMIResult:
    """Best probe over encodings, decoder and free-slot gates.

    Multistart Nelder-Mead: the first start is the computational-basis
    probe, the rest draw all angles uniformly from [0, 2pi). Unbarred
    slots, if any, carry a shared filler gate.
    """
    placements = _check_placements(placements, pt.steps)
    kernel = cmi_kernel(pt, placements)
    start = CANONICAL_START[:12 if kernel.ndim > 2 else 9]

    def objective(x: np.ndarray) -> float:
        return -cmi_value(kernel, x)

    runs, = optimize.multistart(lambda starts: [
        optimize.minimize(objective, x0, maxiter=maxiter, xatol=1e-4,
                          fatol=1e-8) for x0 in starts],
        start, [rng_stream(seed, 101, *placements)], restarts, "memory")
    best = min(runs, key=lambda res: res.fun)  # the first minimum
    return CMIResult(bits=float(-best.fun), params=best.x)


def barrier_placements(steps: int) -> tuple[tuple[int, ...], ...]:
    """Every single barrier slot, then all of them together when there are
    two or more."""
    singles = tuple((s,) for s in range(1, steps))
    return singles + ((tuple(range(1, steps)),) if steps > 2 else ())


# ---------------------------------------------------------------------------
# Uncertainty
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemoryInterval:
    point: float
    lo: float
    hi: float
    samples: np.ndarray = field(repr=False, compare=False)  # (resamples,)


def _probe_readout(duals: tuple[DualSet, ...], placements: tuple[int, ...],
                   x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The probe with u3 angles ``x`` (as ``cmi_value`` reads them) as a
    linear readout of the standard tensor's states: the ``slot_kernel`` maps
    (the encoded preparations' coefficients (4, 2), then each unitary
    slot's barrier or filler coefficients (n,)) and the decoder rows (2, 4)
    over the parts Re rho00, Re rho11, Re rho10, Im rho10 of each state.
    Parts (P, n, n, 4) give the table p(d|e) = slot_kernel(parts, maps) @
    decoder.T."""
    x = np.asarray(x, dtype=float).tolist()
    e0, e1, d = (u3_entries(*x[i:i + 3]) for i in (0, 3, 6))
    f = (1.0, 0.0, 0.0, 1.0) if len(x) == 9 else u3_entries(*x[9:12])
    v = np.array((f[0], f[2], f[1], f[3]), dtype=complex)
    maps = [np.array([form_coefficients(prep_matrix_form(np.reshape(
        _projector(e[0], e[2]), (2, 2))), duals[0]) for e in (e0, e1)]).T]
    maps += [form_coefficients(BARRIER_FORM if s in placements
                               else np.outer(v, v.conj()) / 2, duals[s])
             for s in range(1, len(duals))]
    # tr(rho |k><k|) for the decoder's rows k, with rho01 = conj(rho10)
    dec = np.array(d).reshape(2, 2)
    x10 = dec[:, 1] * dec[:, 0].conj()
    decoder = np.stack([abs(dec[:, 0]) ** 2, abs(dec[:, 1]) ** 2,
                        2.0 * x10.real, -2.0 * x10.imag], axis=-1)
    return maps, decoder


def bootstrap_cmi(counts: np.ndarray, shots: int | None, basis, n: int,
                  placements: tuple[int, ...], params: np.ndarray,
                  resamples: int = 200, seed: int = 0) -> MemoryInterval:
    """Basic-bootstrap interval for the CMI at the fixed probe angles
    ``params`` (``CMIResult.params``).

    ``counts`` are the standard grid's, shape (P, pool, pool, 3, 2). Each
    resample redraws every sequence from its own counts. At fixed angles the
    probe's table is linear in the tensor's states, so the probe is built
    once as a readout of the n x n block of states the tensor holds, and the
    point estimate and every resample go through it. The reflected
    percentile interval [2t - q_hi, 2t - q_lo] keeps zero inside the
    interval when the point estimate sits at the zero floor, at the cost of
    clipping to [0, 1].
    """
    placements = _check_placements(placements, STANDARD_STEPS)
    if not 1 <= n <= basis.size:
        raise ValueError(f"basis subset {n} outside [1, {basis.size}]")
    prep, pool = (build_duals(s.forms, required_rank=s.required_rank)
                  for s in (prep_slot(basis.preparations),
                            unitary_slot(basis.unitaries[:n])))
    maps, decoder = _probe_readout((prep, pool, pool), placements, params)

    def score(p: np.ndarray) -> float:
        parts = np.stack(_parts_from_probs(p[:, :n, :n]), axis=-1)
        return binary_channel_mi(slot_kernel(parts, maps) @ decoder.T)

    probs, redraws = redraw_records(counts, shots, resamples,
                                    rng_stream(seed, 202, *placements))
    point = score(probs)
    samples = np.array([score(p) for p in redraws])
    q_lo, q_hi = np.percentile(samples, [100 * CI_ALPHA / 2,
                                         100 * (1 - CI_ALPHA / 2)])
    lo = min(max(2.0 * point - q_hi, 0.0), 1.0)
    hi = min(max(2.0 * point - q_lo, 0.0), 1.0)
    return MemoryInterval(point=point, lo=lo, hi=hi, samples=samples)
