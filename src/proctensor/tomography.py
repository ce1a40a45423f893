"""State tomography, process tensor assembly, contraction and evaluation.

The matrix form of a k-step restricted process tensor is

    T = sum_nu (D_0^{nu_0} (x) ... (x) D_{k-1}^{nu_{k-1}})^T (x) rho^nu

where the D are the dual matrices of each slot's basis (trace-normalized
Choi forms, see basis module) and rho^nu is the measured output state for
the basis sequence nu. Contracting a sequence of operations A with joint
matrix form A_hat = A_0 (x) ... (x) A_{k-1} is

    T[A] = tr_in[(A_hat (x) I_out)^T T] = sum_nu prod_s tr[A_s D_s^{nu_s}] rho^nu

The tensor is stored as its slot duals (one stacked (n, d, d) array
per slot) and the states rho^nu, and contraction takes the right-hand
route: the expansion coefficients tr[A_s D_s^{nu_s}] are computed slot
by slot. The test suite keeps the defining matrix form as an oracle
for this identity.

Slot 0 is a preparation slot: a gate contracted there is first converted
to the preparation it induces on the slot's reference input |0><0|. A
unitary slot contracts a gate, or as its matrix form anything whose Choi
form lies in the span of unitary channels: the memory probe's
depolarizing barrier is contracted as its form (``form_coefficients``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .basis import (
    ControlBasis,
    DualSet,
    PrepOp,
    RESTRICTED_SPAN_DIM,
    build_duals,
    prep_matrix_form,
    standard_preparations,
    unitary_matrix_form,
)
from .qcore import (
    ID2,
    KET0,
    NumericalError,
    PAULI_ORDER,
    PAULIS,
    PhysicalityError,
    QuantumChannel,
    check_density_matrix,
    choi_input_marginal,
    fidelity,
    ket_dm,
    stack_index,
    superop_to_choi,
    unitary_choi,
)
from .simulator import SEModel, rng_stream, simulate_experiment, simulate_grid

PREP_SPAN_DIM = 4
CPTP_TOL = 1e-10
CPTP_MAX_ITER = 5000
CI_ALPHA = 0.05  # every bootstrap interval is two-sided at 95%
STANDARD_STEPS = 3  # the standard tensor's slots: preparation, two unitaries
# bootstrap redraws are scored in chunks whose real parts (four per sequence)
# fit in this many bytes: ten pool-28 redraws, and a pool-28 call peaks at
# about 2.4 times that
BOOTSTRAP_CHUNK_BYTES = 1 << 20


# ---------------------------------------------------------------------------
# Single-qubit state tomography
# ---------------------------------------------------------------------------

def linear_inversion_qubit(x: float | np.ndarray, y: float | np.ndarray,
                           z: float | np.ndarray) -> np.ndarray:
    """``(I + x X + y Y + z Z) / 2``, written entry by entry, for Bloch
    components given as scalars or as arrays of one shape; the matrices
    stack on trailing axes (..., 2, 2)."""
    x, y, z = (np.asarray(v, dtype=float) for v in (x, y, z))
    out = np.empty(x.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 * (1.0 + z)
    out[..., 1, 1] = 0.5 * (1.0 - z)
    out[..., 0, 1] = 0.5 * (x - 1j * y)
    out[..., 1, 0] = 0.5 * (x + 1j * y)
    return out


def mle_project(rho: np.ndarray) -> np.ndarray:
    """Nearest physical state by eigenvalue truncation, for one matrix or
    for each matrix of a ``(..., d, d)`` stack.

    Rescales the trace to one, then walks the spectrum from the smallest
    eigenvalue: negative eigenvalues are zeroed and their weight spread
    uniformly over the rest, which reproduces the trace-constrained
    least-squares projection. One matrix walks its spectrum on Python
    floats, where the array walk would cost more than its ``eigh``, with
    the stacked walk's arithmetic, bit for bit.
    """
    rho = np.asarray(rho, dtype=complex)
    tr = rho.trace(axis1=-2, axis2=-1)
    if rho.ndim == 2:
        if abs(tr) < 1e-12:
            raise PhysicalityError("cannot project a traceless matrix")
        evals, vecs = np.linalg.eigh(rho / tr)
        e = evals.tolist()
        d, acc, mu = len(e), 0.0, [0.0] * len(e)
        for t in range(d):
            cand = acc / (d - t)
            if not e[t] + cand < 0:
                mu = [0.0] * t + [x + cand for x in e[t:]]
                break
            acc += e[t]
        mu, vecs = np.array(mu[::-1]), vecs[:, ::-1]
        return (vecs * mu) @ vecs.conj().T
    traceless = np.abs(tr) < 1e-12
    if traceless.any():
        raise PhysicalityError(f"cannot project a traceless matrix"
                               f"{stack_index(traceless)}")
    evals, vecs = np.linalg.eigh(rho / tr[..., None, None])
    # eigh sorts ascending, so the walk from the smallest eigenvalue runs
    # forward: with acc[t] = 0.0 + evals[0] + ... + evals[t-1], evals[t] is
    # zeroed while evals[t] + acc[t] / (d - t) < 0, and at the first t where
    # it is not, acc[t] / (d - t) is added to evals[t:]
    d = evals.shape[-1]
    acc = np.zeros_like(evals)
    acc[..., 1:] = evals[..., :-1]
    np.add.accumulate(acc, axis=-1, out=acc)
    cand = acc / np.arange(d, 0, -1.0)
    keep = ~(evals + cand < 0)
    shift = cand[..., -1]
    for t in reversed(range(d - 1)):
        shift = np.where(keep[..., t], cand[..., t], shift)
    mu = np.where(np.logical_or.accumulate(keep, axis=-1),
                  evals + shift[..., None], 0.0)
    # the product sums the eigenvalues largest first
    mu, vecs = mu[..., ::-1], vecs[..., ::-1]
    return (vecs * mu[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def qst_mle(counts: np.ndarray, shots: int | None) -> np.ndarray:
    """Physical state estimates from three-axis counts.

    ``counts`` holds ``[plus, minus]`` per sequence and axis, shape
    ``(..., 3, 2)``; with ``shots=None`` they are exact outcome
    probabilities. Returns the states, shape ``(..., 2, 2)``.
    """
    ex = (counts[..., 0] - counts[..., 1]) / (shots or 1)
    return mle_project(linear_inversion_qubit(ex[..., 0], ex[..., 1], ex[..., 2]))


def pair_qst_mle(counts: np.ndarray) -> np.ndarray:
    """Physical two-qubit states from nine-setting pair counts.

    ``counts`` holds ``[++, +-, -+, --]`` per record and ``PAIR_SETTINGS``
    entry, shape ``(..., 9, 4)``, or their exact probabilities. Each
    single-qubit Pauli term is averaged over the three settings that
    measure it, in setting order; the Pauli products are summed a-major.
    Returns the states, shape ``(..., 4, 4)``.
    """
    freqs = counts / counts.sum(axis=-1, keepdims=True)
    pp, pm, mp, mm = (freqs[..., k].reshape(freqs.shape[:-2] + (3, 3))
                      for k in range(4))
    corr = np.zeros(freqs.shape[:-2] + (4, 4))
    corr[..., 0, 0] = 1.0
    corr[..., 1:, 1:] = pp - pm - mp + mm
    first, second = pp + pm - mp - mm, pp - pm + mp - mm
    corr[..., 1:, 0] = sum(first[..., :, b] for b in range(3)) / 3.0
    corr[..., 0, 1:] = sum(second[..., a, :] for a in range(3)) / 3.0
    rho = np.zeros(freqs.shape[:-2] + (4, 4), dtype=complex)
    for i, a in enumerate(PAULI_ORDER):
        for j, b in enumerate(PAULI_ORDER):
            pauli = np.kron(PAULIS[a], PAULIS[b])
            rho += corr[..., i, j, None, None] * pauli / 4.0
    return mle_project(rho)


def measure_grid(model: SEModel, slots: Sequence[Sequence[np.ndarray]],
                 shots: int | None, master_seed: int,
                 first_record: int = 0) -> np.ndarray:
    """Estimated output states of a grid of sequences: the exact states
    when ``shots`` is None, otherwise the QST of the drawn counts (see
    ``simulate_experiment`` for the record indices)."""
    if shots is None:
        return simulate_grid(model, slots)
    return qst_mle(simulate_experiment(model, slots, shots, master_seed,
                                       first_record), shots)


def clip_to_bloch_ball(x: np.ndarray, y: np.ndarray,
                       z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial clip of Bloch vectors to the unit ball: for a trace-one 2x2
    Hermitian matrix, exactly ``mle_project``'s eigenvalue truncation."""
    r = np.sqrt(x * x + y * y + z * z)
    scale = np.where(r > 1.0, 1.0 / np.maximum(r, 1e-300), 1.0)
    return x * scale, y * scale, z * scale


def qubit_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector(s) of qubit state(s), shape (..., 3)."""
    rho = np.asarray(rho, dtype=complex)
    return bloch_of_parts(rho[..., 0, 0].real, rho[..., 1, 1].real,
                          rho[..., 1, 0].real, rho[..., 1, 0].imag)


def bloch_of_parts(re00: np.ndarray, re11: np.ndarray, re10: np.ndarray,
                   im10: np.ndarray) -> np.ndarray:
    """Bloch vectors (..., 3) of qubit states given by the real parts
    Re rho00, Re rho11, Re rho10 and Im rho10, each of one shape (...)."""
    return np.stack([2.0 * re10, 2.0 * im10, re00 - re11], axis=-1)


def bloch_fidelity(va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    """Closed-form Uhlmann fidelity for batches of qubit states given as
    Bloch vectors (..., 3): F = tr(ab) + 2 sqrt(det a det b)."""
    ra2 = np.minimum(np.sum(va * va, axis=-1), 1.0)
    rb2 = np.minimum(np.sum(vb * vb, axis=-1), 1.0)
    dot = np.sum(va * vb, axis=-1)
    f = 0.5 * (1.0 + dot + np.sqrt((1.0 - ra2) * (1.0 - rb2)))
    return np.clip(f, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Process tensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlotBasis:
    """The operations spanning one slot, as trace-normalized Choi forms
    stacked (n, d, d)."""

    kind: str  # "prep" | "unitary"
    forms: np.ndarray

    def __post_init__(self) -> None:
        if self.kind not in ("prep", "unitary"):
            raise ValueError(f"unknown slot kind {self.kind!r}")

    @property
    def size(self) -> int:
        return len(self.forms)

    @property
    def required_rank(self) -> int:
        return PREP_SPAN_DIM if self.kind == "prep" else RESTRICTED_SPAN_DIM


@dataclass(frozen=True)
class ProcessTensor:
    """Assembled restricted process tensor (fields per module docstring)."""

    slots: tuple[SlotBasis, ...]
    duals: tuple[DualSet, ...]
    states: np.ndarray = field(repr=False)

    @property
    def steps(self) -> int:
        return len(self.slots)


def prep_slot(preps: Iterable[PrepOp]) -> SlotBasis:
    return SlotBasis(kind="prep",
                     forms=np.array([prep_matrix_form(p.state) for p in preps]))


def unitary_slot(unitaries: Iterable[np.ndarray]) -> SlotBasis:
    return SlotBasis(kind="unitary",
                     forms=np.array([unitary_matrix_form(u) for u in unitaries]))


def assemble(slots: list[SlotBasis], states: np.ndarray) -> ProcessTensor:
    """Build the tensor from slot bases and measured basis-sequence states.

    ``states`` has one axis per slot, of the slot's size, followed by the
    square output state.
    """
    slots = tuple(slots)
    sizes = tuple(s.size for s in slots)
    states = np.asarray(states, dtype=complex)
    if states.shape[:-2] != sizes or states.shape[-2] != states.shape[-1]:
        raise ValueError(
            f"states shape {states.shape} is not {sizes} + (d, d)")
    built = {id(s): build_duals(s.forms, required_rank=s.required_rank)
             for s in {id(s): s for s in slots}.values()}  # once per slot object
    return ProcessTensor(slots, tuple(built[id(s)] for s in slots), states)


def step_matrix_form(gate: np.ndarray, slot_kind: str) -> np.ndarray:
    """Matrix form of a gate as seen by a slot.

    Preparation slots convert the gate to the preparation it induces on
    the reference input |0><0|.
    """
    choi = unitary_choi(gate)
    if slot_kind == "prep":
        sigma = np.einsum("satb,st->ab", choi.reshape(2, 2, 2, 2), ket_dm(KET0))
        return prep_matrix_form(sigma)
    return choi / 2


def form_coefficients(form: np.ndarray, duals: DualSet) -> np.ndarray:
    """Expansion coefficients tr[A D^nu] of a matrix form A."""
    return np.einsum("ij,nji->n", form, duals.duals).real


def slot_coefficients(slot: SlotBasis, duals: DualSet, gate: np.ndarray) -> np.ndarray:
    """Expansion coefficients tr[A D^nu] of a gate against one slot."""
    return form_coefficients(step_matrix_form(gate, slot.kind), duals)


def coefficient_map(duals: DualSet) -> np.ndarray:
    """The slot's coefficients as a linear map (n, d*d) of a step's
    flattened matrix form: tr[A D^nu] = sum_pq A[p, q] D^nu[q, p]."""
    n, d, _ = duals.duals.shape
    return duals.duals.transpose(0, 2, 1).reshape(n, d * d)


def slot_kernel(states: np.ndarray, maps: Sequence[np.ndarray]) -> np.ndarray:
    """Contract every slot axis of a tensor's states (one leading axis per
    slot, then the output state or any other trailing axes) with a fixed
    linear map, the last slot first.

    ``maps[s]`` is a coefficient vector (n_s,), which contracts slot s away,
    or a matrix (n_s, m), which replaces slot s by an axis of size m (a
    ``coefficient_map`` leaves the slot open to any matrix form). The
    remaining axes keep slot order, followed by the trailing axes.
    """
    kernel = states
    for s in reversed(range(len(maps))):
        kernel = np.moveaxis(kernel, s, -1) @ maps[s]
        if np.ndim(maps[s]) == 2:
            kernel = np.moveaxis(kernel, -1, s)
    return kernel


def contract_fast(pt: ProcessTensor, gates: Sequence[np.ndarray]) -> np.ndarray:
    """Contract a gate sequence with the tensor through the slot coefficients."""
    if len(gates) != pt.steps:
        raise ValueError(f"sequence has {len(gates)} steps, tensor has {pt.steps}")
    coeffs = [slot_coefficients(pt.slots[s], pt.duals[s], gates[s])
              for s in range(pt.steps)]
    letters = "ijklmn"[: pt.steps]
    spec = ",".join(letters) + f",{letters}ab->ab"
    return np.einsum(spec, *coeffs, pt.states)


# ---------------------------------------------------------------------------
# Standard three-step experiment enumeration
# ---------------------------------------------------------------------------

def standard_slots(basis: ControlBasis) -> tuple[tuple[np.ndarray, ...], ...]:
    """The standard grid as candidate gates per slot, for ``simulate_grid``:
    entry ``[i, j, k]`` of the grid is preparation i, then pool gates j and
    k."""
    return (tuple(p.gate for p in basis.preparations), basis.unitaries,
            basis.unitaries)


def build_standard_tensor(states: np.ndarray, basis: ControlBasis,
                          n: int) -> ProcessTensor:
    """Three-step tensor (prep slot + two unitary slots) from pool states."""
    if n > basis.size:
        raise ValueError(f"basis subset {n} exceeds pool size {basis.size}")
    pool = unitary_slot(basis.unitaries[:n])
    return assemble([prep_slot(basis.preparations), pool, pool],
                    states[:, :n, :n])


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def reconstruction_fidelity(prediction: np.ndarray,
                            measured: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity between the projected prediction and the estimate,
    for one pair or for two ``(..., d, d)`` stacks of them."""
    pred = mle_project(prediction)
    meas = check_density_matrix(measured, name="measured state")
    return fidelity(pred, meas)


@dataclass(frozen=True)
class BoxStats:
    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    mean: float
    count: int


def box_stats(values: np.ndarray) -> BoxStats:
    """Median, quartiles and 1.5 IQR whiskers clipped to the data range, of
    every value of an array of any shape."""
    v = np.sort(np.asarray(values, dtype=float), axis=None)
    if v.size == 0:
        raise ValueError("no values to summarize")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    iqr = q3 - q1
    in_lo = v[v >= q1 - 1.5 * iqr]
    in_hi = v[v <= q3 + 1.5 * iqr]
    return BoxStats(median=float(med), q1=float(q1), q3=float(q3),
                    whisker_lo=float(in_lo[0]), whisker_hi=float(in_hi[-1]),
                    mean=float(v.mean()), count=int(v.size))


@dataclass(frozen=True)
class EvalResult:
    n: int
    fidelities: np.ndarray  # (P, pool - n, pool - n), the held-out block
    stats: BoxStats

    @property
    def mean_infidelity(self) -> float:
        return 1.0 - self.stats.mean


def pool_coefficients(slot: SlotBasis, duals: DualSet,
                      gates: Iterable[np.ndarray]) -> np.ndarray:
    """Coefficient rows (len(gates), n) of gates against one slot."""
    return np.array([slot_coefficients(slot, duals, g) for g in gates])


def predict_parts(parts: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Predicted real components (..., P, E, m, m) for every preparation and
    every pair of the m pool elements whose coefficient rows ``coeffs``
    (m, n) holds, from E real components (..., P, n, n, E) of the tensor's
    states. Each leading index is predicted as its own tensor.

    Terms (C[q, j] C[r, k]) T[i, j, k] are summed j-major, k fastest, one at a
    time, each component on its own: exactly the arithmetic of
    einsum("si,sj,sk,ijkab->sab") with one-hot preparation rows. Each j's
    weights C[q, j] C[r, k] are one contiguous [k, q, r] array, so every
    term reads its (m, m) weights as one contiguous block.
    """
    m = len(coeffs)
    acc = np.zeros(parts.shape[:-3] + (parts.shape[-1], m, m))
    term = np.empty_like(acc)
    for j in range(parts.shape[-3]):
        weights = coeffs[:, j, None] * coeffs.T[:, None, :]  # [k, q, r]
        for k in range(parts.shape[-2]):
            np.multiply(parts[..., j, k, :, None, None], weights[k], out=term)
            acc += term
    return acc


def predict_batch(pt: ProcessTensor, coeffs: np.ndarray) -> np.ndarray:
    """Predictions (..., P, m, m, d, d) for every preparation and every pair
    of the m pool elements whose coefficient rows ``coeffs`` (m, n) holds:
    ``predict_parts`` on the real and imaginary parts of every entry of
    ``pt.states`` (..., P, n, n, d, d), viewed as complex again."""
    parts = pt.states.view(np.float64).reshape(pt.states.shape[:-2] + (-1,))
    acc = np.ascontiguousarray(np.moveaxis(predict_parts(parts, coeffs), -3, -1))
    return acc.view(complex).reshape(acc.shape[:-1] + pt.states.shape[-2:])


def prediction_fidelities(pt: ProcessTensor, basis: ControlBasis,
                          states: np.ndarray, m: int) -> np.ndarray:
    """Fidelities (P, m, m) of the tensor's predictions with the measured
    states ``states`` (P, pool, pool, 2, 2), for every preparation and every
    pair of the last m pool elements."""
    preds = predict_batch(pt, pool_coefficients(
        pt.slots[1], pt.duals[1], basis.unitaries[basis.size - m:]))
    return reconstruction_fidelity(preds, states[:, -m:, -m:])


def _check_split(n: int, pool: int) -> None:
    if not 1 <= n < pool:
        raise ValueError(f"need 1 <= n < pool={pool} for a held-out split, got {n}")


def evaluate_split(states: np.ndarray, basis: ControlBasis, n: int) -> EvalResult:
    """Reconstruct from the first n pool elements, verify on the rest.

    ``states`` holds the measured output state of every standard sequence,
    shape (len(basis.preparations), pool, pool, 2, 2). The held-out set is
    every sequence whose two unitary slots both index past n.
    """
    _check_split(n, basis.size)
    pt = build_standard_tensor(states, basis, n)
    fids = prediction_fidelities(pt, basis, states, basis.size - n)
    return EvalResult(n=n, fidelities=fids, stats=box_stats(fids))


# ---------------------------------------------------------------------------
# Bootstrap
# ---------------------------------------------------------------------------

def _states_from_probs(probs: np.ndarray) -> np.ndarray:
    """States (..., 2, 2) of plus-outcome probabilities (..., 3): clip to
    the Bloch ball (``mle_project`` of a 2x2 estimate), then build."""
    ex = 2.0 * probs - 1.0
    return linear_inversion_qubit(*clip_to_bloch_ball(*np.moveaxis(ex, -1, 0)))


def _parts_from_probs(probs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Re rho00, Re rho11, Re rho10 and Im rho10 of ``_states_from_probs``,
    by its arithmetic (a zero's sign aside, which no later step reads)."""
    ex = 2.0 * probs - 1.0
    x, y, z = clip_to_bloch_ball(ex[..., 0], ex[..., 1], ex[..., 2])
    return 0.5 * (1.0 + z), 0.5 * (1.0 - z), 0.5 * x, 0.5 * y


def redraw_records(counts: np.ndarray, shots: int | None, resamples: int,
                   rng: np.random.Generator,
                   ) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Parametric bootstrap over a grid's three-axis counts.

    ``counts`` has the grid's shape followed by ``(3, 2)``, as
    ``simulate_experiment`` returns it. Returns the grid's plus-outcome
    frequencies, shape grid + ``(3,)``, and an iterator of ``resamples``
    redraws of them. A sampled grid draws one binomial per sequence and
    axis from ``rng`` for each redraw; an exact grid (``shots=None``) is
    its own fixed point and draws nothing.
    """
    if resamples < 2:
        raise ValueError("need at least two resamples")
    probs = counts[..., 0] / (shots or 1)
    return probs, (probs if shots is None else rng.binomial(shots, probs) / shots
                   for _ in range(resamples))


def bootstrap_ci(counts: np.ndarray, shots: int | None, basis: ControlBasis,
                 sizes: Sequence[int], resamples: int = 1000, seed: int = 0,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Percentile bootstrap intervals for the held-out mean infidelity at
    each basis size of ``sizes``.

    ``counts`` are the standard grid's, shape (P, pool, pool, 3, 2). Every
    sequence (basis and verification alike) is resampled from its own
    counts, each redraw's held-out block is predicted and scored at every
    size, and the (CI_ALPHA/2, 1-CI_ALPHA/2) percentiles of the resampled
    means are returned per size, shape (S,) each, together with the means
    themselves, shape (S, resamples). Each redraw is drawn once and scored
    at every size, so a size's result does not depend on the other sizes
    asked for. A size's coefficient rows come from its unitary slot and
    that slot's duals; no tensor or complex state is built.

    The estimand is the mean held-out infidelity an identical experiment at
    ``shots`` would report. Each redraw samples again from frequencies that
    already carry shot noise, so the resampled means sit above it, and the
    interval can lie wholly above its own point estimate.
    """
    sizes = list(sizes)
    for n in sizes:
        _check_split(n, basis.size)
    probs, redraws = redraw_records(counts, shots, resamples,
                                    rng_stream(seed, 777))
    coeffs = []  # one per size; no redraw changes them
    for n in sizes:
        slot = unitary_slot(basis.unitaries[:n])
        duals = build_duals(slot.forms, required_rank=slot.required_rank)
        coeffs.append(pool_coefficients(slot, duals, basis.unitaries[n:]))
    # scoring reads four real parts of each redrawn state
    chunk = max(1, BOOTSTRAP_CHUNK_BYTES // (probs.nbytes // 3 * 4))
    chunks = np.empty((min(chunk, resamples),) + probs.shape[:-1] + (4,))

    sampled = np.empty((len(sizes), resamples))
    for start in range(0, resamples, chunk):
        block = chunks[:resamples - start]  # (B, P, pool, pool, 4)
        for b, p in enumerate(islice(redraws, len(block))):
            np.stack(_parts_from_probs(p), axis=-1, out=block[b])
        for s, (c, n) in enumerate(zip(coeffs, sizes)):
            pred = predict_parts(block[:, :, :n, :n], c)
            # the prediction is projected as the measured states were: its
            # plus-outcome probabilities, clipped to the Bloch ball
            pred = (1.0 + bloch_of_parts(*np.moveaxis(pred, -3, 0))) / 2.0
            pred = bloch_of_parts(*_parts_from_probs(pred))
            fids = bloch_fidelity(
                pred, bloch_of_parts(*np.moveaxis(block[:, :, n:, n:], -1, 0)))
            # each resample's mean over its own row of held-out sequences
            sampled[s, start:start + len(block)] = \
                1.0 - fids.reshape(len(block), -1).mean(axis=1)
    lo, hi = np.percentile(sampled, [100 * CI_ALPHA / 2,
                                     100 * (1 - CI_ALPHA / 2)], axis=1)
    return lo, hi, sampled


# ---------------------------------------------------------------------------
# Process tomography and CPTP projection
# ---------------------------------------------------------------------------

def channel_from_prep_outputs(outputs: np.ndarray) -> list[QuantumChannel]:
    """Linear-inversion process tomography of g qubit channels.

    ``outputs`` (g, 4, 2, 2) holds each channel's output states for the four
    standard preparations, in their order; the solved linear maps are
    projected onto the CPTP set together, and each channel is validated.
    """
    inputs = np.empty((4, 4), dtype=complex)
    for p, prep in enumerate(standard_preparations()):
        inputs[:, p] = prep.state.reshape(-1)
    # column p of each channel's matrix is its output for preparation p
    out = np.ascontiguousarray(
        outputs.reshape(len(outputs), 4, 4).swapaxes(-1, -2))
    superops = out @ np.linalg.inv(inputs)
    chois = project_to_cptp(superop_to_choi(superops))
    return [QuantumChannel(choi=c) for c in chois]


def _project_tp(chois: np.ndarray) -> np.ndarray:
    corr = ID2 - choi_input_marginal(chois)
    # kron(corr, ID2) of each matrix: entry [a, b, c, d] is corr[a, c] ID2[b, d]
    lift = (corr[..., :, None, :, None] * ID2[:, None, :]).reshape(chois.shape)
    return chois + lift / 2


def _project_psd(mats: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh((mats + mats.conj().swapaxes(-1, -2)) / 2.0)
    evals = np.clip(evals, 0.0, None)
    return (vecs * evals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def project_to_cptp(chois: np.ndarray) -> np.ndarray:
    """Closest CPTP Choi matrix of each qubit channel of a (g, 4, 4) stack,
    by Dykstra alternating projections.

    The stack iterates together; a matrix leaves it at the iteration where it
    passes the convergence test, so each result is the one a projection of
    that matrix alone gives. Raises NumericalError, naming the first stack
    index, if any matrix has not converged after ``CPTP_MAX_ITER`` iterations.
    """
    chois = np.asarray(chois, dtype=complex)
    y = (chois + chois.conj().swapaxes(-1, -2)) / 2.0
    active = np.arange(len(y))  # stack indices still iterating
    ya, pa = y, np.zeros_like(y)
    for _ in range(CPTP_MAX_ITER):
        z = _project_tp(ya)
        w = _project_psd(z + pa)
        pa = z + pa - w
        ya = w
        tp_defect = np.abs(choi_input_marginal(ya) - ID2).max(axis=(-2, -1))
        min_eval = np.linalg.eigvalsh(ya).min(axis=-1)
        done = (tp_defect < CPTP_TOL) & (min_eval > -CPTP_TOL)
        y[active[done]] = ya[done]
        active, ya, pa = active[~done], ya[~done], pa[~done]
        if not active.size:
            break
    else:
        raise NumericalError(f"CPTP projection of Choi matrix ({active[0]},) "
                             f"did not converge in {CPTP_MAX_ITER} iterations")
    return _project_tp(y)
