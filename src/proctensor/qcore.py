"""Qubit states, channels and scalar metrics, and the Nelder-Mead kernel.

Conventions used throughout the package:

* Density matrices are plain complex ndarrays. The validators below define
  what "physical" means numerically; tolerance constants are module level
  and shared by every caller.
* The Choi matrix of a channel ``ch`` is assembled block-wise from matrix
  units, ``choi = sum_ij |i><j| (x) ch(|i><j|)``, so a trace-preserving
  qubit map has ``tr(choi) = 2``. Superoperators act on row-major
  vectorized matrices, ``vec(rho)[i*d + j] = rho[i, j]``.
* Entropies, mutual information and memory bounds are base 2 (bits).
* Eigenvalue clamp policy: negative eigenvalues with magnitude at most
  ``EIG_CLAMP_TOL`` are treated as zero; anything more negative raises.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.optimize import OptimizeResult

# Shared numerical tolerances. Fixed here, not per call site.
HERMITIAN_TOL = 1e-9
TRACE_TOL = 1e-9
EIG_CLAMP_TOL = 1e-9
UNITARY_TOL = 1e-12
CHANNEL_TP_TOL = 1e-8
ENTROPY_CUTOFF = 1e-12

ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
# projectors onto the +1 and -1 eigenspaces of each measured Pauli axis
PAULI_PLUS = {ax: (ID2 + PAULIS[ax]) / 2.0 for ax in "XYZ"}
PAULI_MINUS = {ax: (ID2 - PAULIS[ax]) / 2.0 for ax in "XYZ"}

KET0 = np.array([1.0, 0.0], dtype=complex)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
S_GATE = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to produce a usable result."""


class PhysicalityError(NumericalError, ValueError):
    """A matrix failed a physicality guard: not Hermitian, materially
    negative, wrong trace, or traceless where a state is needed."""


def stack_index(bad: np.ndarray) -> str:
    """`` (i, j, ...)``, the first True index of a stack's failure mask,
    or an empty string for a single matrix (a 0-d mask)."""
    if np.ndim(bad) == 0:
        return ""
    return " " + str(tuple(int(i) for i in np.argwhere(bad)[0]))


def ket_dm(vec: np.ndarray) -> np.ndarray:
    """Density matrix of a (normalized) pure state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def check_density_matrix(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate a density matrix, or a stack of them, as a complex ndarray.

    Requires square Hermitian matrices, positive semidefinite within
    ``EIG_CLAMP_TOL``, with unit trace. Raises PhysicalityError on
    violation (ValueError for a non-square shape); for a stack of shape
    ``(..., d, d)`` the message names the first offending index.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {rho.shape}")
    # whole-stack reductions first; per-matrix ones only to name a failure
    asym = np.abs(rho - rho.conj().swapaxes(-1, -2))
    if asym.max() > HERMITIAN_TOL:
        bad = asym.max(axis=(-2, -1)) > HERMITIAN_TOL
        raise PhysicalityError(f"{name}{stack_index(bad)} is not Hermitian "
                               f"within {HERMITIAN_TOL}")
    low = np.linalg.eigvalsh(rho)[..., 0]  # eigenvalues come ascending
    if low.min() < -EIG_CLAMP_TOL:
        bad = low < -EIG_CLAMP_TOL
        raise PhysicalityError(f"{name}{stack_index(bad)} has negative "
                               f"eigenvalue {low[bad][0]:.3e}")
    tr = rho.trace(axis1=-2, axis2=-1).real
    if np.abs(tr - 1.0).max() > TRACE_TOL:
        bad = np.abs(tr - 1.0) > TRACE_TOL
        raise PhysicalityError(f"{name}{stack_index(bad)} trace "
                               f"{float(tr[bad][0])} != 1")
    return rho


def check_unitary(u: np.ndarray, tol: float = UNITARY_TOL, name: str = "matrix") -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"{name} must be square, got shape {u.shape}")
    d = u.shape[0]
    # a NaN deviation fails too: the test is that it is within tol
    if not np.max(np.abs(u.conj().T @ u - np.eye(d))) <= tol:
        raise ValueError(f"{name} is not unitary within {tol}")
    return u


def clamp_spectrum(evals: np.ndarray, tol: float = EIG_CLAMP_TOL,
                   name: str = "matrix") -> np.ndarray:
    """Zero out tiny negative eigenvalues of a spectrum ``(..., d)``; raise
    PhysicalityError, naming the first offending stack index, if any are
    materially negative."""
    evals = np.asarray(evals, dtype=float)
    if evals.min() < -tol:
        low = evals.min(axis=-1)
        bad = low < -tol
        raise PhysicalityError(f"{name}{stack_index(bad)} eigenvalue "
                               f"{low[bad][0]:.3e} below -{tol}")
    return np.clip(evals, 0.0, None)


def psd_sqrt(mat: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Hermitian square root of a PSD matrix, or of each matrix of a
    ``(..., d, d)`` stack, via eigendecomposition."""
    evals, vecs = np.linalg.eigh(mat)
    evals = clamp_spectrum(evals, name=name)
    return (vecs * np.sqrt(evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# Parametrized gates
# ---------------------------------------------------------------------------

def u3_entries(theta: float, phi: float,
               lam: float) -> tuple[complex, complex, complex, complex]:
    """The u3 gate's entries in row-major order from scalar math, for
    objectives that build one gate per call. A non-finite angle gives NaN
    in the entries it enters, an infinite theta in all four."""
    try:
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    except ValueError:  # math.cos of an infinite theta
        c = s = math.nan
    return (complex(c), -cmath.exp(1j * lam) * s, cmath.exp(1j * phi) * s,
            cmath.exp(1j * (lam + phi)) * c)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """``[[cos(t/2), -e^{i lam} sin(t/2)], [e^{i phi} sin(t/2), e^{i(lam+phi)} cos(t/2)]]``:
    (0,0,0) is the identity, (pi,0,pi) is X and (pi/2,0,pi) is the Hadamard."""
    return np.array(u3_entries(theta, phi, lam), dtype=complex).reshape(2, 2)


def rotation_gate(axis: str, angle: float) -> np.ndarray:
    """exp(-i * angle * P / 2) for a Pauli axis."""
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    p = PAULIS[axis]
    return np.cos(angle / 2.0) * ID2 - 1j * np.sin(angle / 2.0) * p


def rotation_axis_angle(u: np.ndarray) -> tuple[np.ndarray, float]:
    """Rotation axis (unit Bloch vector) and angle of a single-qubit unitary.

    The global phase is fixed so the angle lies in [0, pi]. For angles near
    zero the axis is ill-conditioned; the zero vector is returned then.
    """
    u = check_unitary(u, name="gate")
    if u.shape != (2, 2):
        raise ValueError("rotation_axis_angle expects a 2x2 unitary")
    # u = e^{i g} (cos(a/2) I - i sin(a/2) n.sigma)
    det = np.linalg.det(u)
    u0 = u / np.sqrt(det)
    c = np.clip(u0.trace().real / 2.0, -1.0, 1.0)
    angle = 2.0 * np.arccos(abs(c))
    sign = 1.0 if c >= 0 else -1.0
    comps = np.array([
        (u0[0, 1] + u0[1, 0]) * 0.5j,
        (u0[0, 1] - u0[1, 0]) * 0.5,
        (u0[0, 0] - u0[1, 1]) * 0.5j,
    ]) * sign
    n = comps.real
    norm = np.linalg.norm(n)
    if norm < 1e-12:
        return np.zeros(3), float(angle)
    return n / norm, float(angle)


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP qubit map stored as its 4x4 Choi matrix (block convention in
    module docstring)."""

    choi: np.ndarray

    def __post_init__(self) -> None:
        choi = np.asarray(self.choi, dtype=complex)
        if choi.shape != (4, 4):
            raise ValueError(f"choi shape {choi.shape} != (4, 4)")
        if np.max(np.abs(choi - choi.conj().T)) > HERMITIAN_TOL:
            raise ValueError("choi matrix is not Hermitian")
        evals = np.linalg.eigvalsh(choi)
        if evals.min() < -CHANNEL_TP_TOL:
            raise ValueError(f"choi matrix not PSD, eigenvalue {evals.min():.3e}")
        red = choi_input_marginal(choi)
        if np.max(np.abs(red - ID2)) > CHANNEL_TP_TOL:
            raise ValueError("channel is not trace preserving within tolerance")
        object.__setattr__(self, "choi", choi)


def choi_input_marginal(choi: np.ndarray) -> np.ndarray:
    """Matrix of block traces, equals the identity for a TP map; for a
    ``(..., 4, 4)`` stack, one per matrix."""
    c4 = choi.reshape(choi.shape[:-2] + (2, 2, 2, 2))
    return np.einsum("...iaja->...ij", c4)


def unitary_choi(u: np.ndarray) -> np.ndarray:
    """Choi matrix of conjugation by ``u``; ``u`` is not checked for unitarity."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    vecs = u.T.reshape(d * d)  # (I (x) u) sum_i |i>|i>
    return np.outer(vecs, vecs.conj())


def channel_from_kraus(kraus: list[np.ndarray]) -> QuantumChannel:
    mats = [np.asarray(k, dtype=complex) for k in kraus]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    choi = np.zeros((4, 4), dtype=complex)
    for k in mats:
        w = k.T.reshape(4)
        choi += np.outer(w, w.conj())
    return QuantumChannel(choi=choi)


def apply_channel(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """``ch`` applied to a qubit state, or to each state of a ``(..., 2, 2)``
    stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (2, 2):
        raise ValueError(f"state shape {rho.shape} is not (..., 2, 2)")
    c4 = ch.choi.reshape(2, 2, 2, 2)
    return np.einsum("satb,...st->...ab", c4, rho)


def choi_to_superop(choi: np.ndarray) -> np.ndarray:
    """Superoperator of a Choi matrix, or of each of a ``(..., 4, 4)`` stack."""
    lead = choi.shape[:-2]
    c4 = choi.reshape(lead + (2, 2, 2, 2))
    return np.einsum("...abcd->...bdac", c4).reshape(lead + (4, 4))


def superop_to_choi(superop: np.ndarray) -> np.ndarray:
    """Choi matrix of a superoperator, or of each of a ``(..., 4, 4)`` stack."""
    lead = superop.shape[:-2]
    s4 = superop.reshape(lead + (2, 2, 2, 2))
    return np.einsum("...abcd->...cadb", s4).reshape(lead + (4, 4))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def purity(rho: np.ndarray) -> float | np.ndarray:
    """tr(rho^2) of a state or of each of a stack, in (0, 1] if physical.

    Examples
    --------
    >>> print(purity(np.diag([0.75, 0.25])))
    0.625
    """
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("...ij,...ji->...", rho, rho).real


def fidelity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Uhlmann fidelity ``[tr sqrt(sqrt(a) b sqrt(a))]^2``.

    Symmetric in its arguments and 1 iff the states are equal. Tiny negative
    eigenvalues of the inner product (within EIG_CLAMP_TOL) are clamped to
    zero; anything more negative raises. A float for one pair of states, an
    array for two ``(..., d, d)`` stacks of them.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    sa = psd_sqrt(a, name="state a")
    inner = sa @ b @ sa
    evals = clamp_spectrum(np.linalg.eigvalsh(inner), name="fidelity inner product")
    # squared through C pow, as np.float64 ** 2 does, not as x * x
    f = np.float_power(np.sum(np.sqrt(evals), axis=-1), 2.0)
    f = np.minimum(np.maximum(f, 0.0), 1.0)
    return float(f) if f.ndim == 0 else f


# einsum specs reducing a (..., 2, 2, 2, 2) two-qubit state to qubit 0 or 1:
# the traced qubit shares a letter on the bra and ket sides
_KEEP_SPECS = ("...abcb->...ac", "...abac->...bc")


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduce a two-qubit state, or each state of a ``(..., 4, 4)`` stack,
    to qubit ``keep`` (0 or 1)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"state shape {rho.shape} is not (..., 4, 4)")
    if keep not in (0, 1):
        raise ValueError(f"keep index {keep} is not 0 or 1")
    return np.einsum(_KEEP_SPECS[keep], rho.reshape(rho.shape[:-2] + (2,) * 4))


def negativity(rho: np.ndarray) -> float | np.ndarray:
    """Entanglement negativity of a two-qubit state or of each of a stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("negativity is implemented for two-qubit states only")
    r = rho.reshape(rho.shape[:-2] + (2,) * 4).swapaxes(-3, -1).reshape(rho.shape)
    evals = np.linalg.eigvalsh(r)
    return -np.where(evals < 0.0, evals, 0.0).sum(axis=-1)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Entropy in bits, per state; eigenvalues below ENTROPY_CUTOFF add 0."""
    evals = clamp_spectrum(np.linalg.eigvalsh(np.asarray(rho, dtype=complex)),
                           name="entropy input")
    logs = np.log2(np.where(evals > ENTROPY_CUTOFF, evals, 1.0))
    return -(evals * logs).sum(axis=-1)


def mutual_information_state(rho: np.ndarray) -> float | np.ndarray:
    """S(A) + S(B) - S(AB) in bits of a two-qubit state or each of a stack."""
    rho = check_density_matrix(rho, name="bipartite state")
    ra = partial_trace(rho, 0)
    rb = partial_trace(rho, 1)
    return von_neumann_entropy(ra) + von_neumann_entropy(rb) - von_neumann_entropy(rho)


PAULI_ORDER = ("I", "X", "Y", "Z")
# kron(P_b^T, P_a) for entry (a, b) of the Pauli transfer matrix
_PTM_OPS = [[np.kron(PAULIS[b].T, PAULIS[a]) for b in PAULI_ORDER] for a in PAULI_ORDER]


def pauli_transfer_matrix(ch: QuantumChannel) -> np.ndarray:
    """R[a, b] = tr[P_a ch(P_b)] / 2."""
    return np.array([[float(np.einsum("ij,ji->", op, ch.choi).real) / 2.0
                      for op in row] for row in _PTM_OPS])


def unitarity(ch: QuantumChannel) -> float:
    """Average output purity proxy: tr(Eu^T Eu) / (d^2 - 1).

    ``Eu`` is the unital (traceless-to-traceless) block of the Pauli
    transfer matrix. Equals 1 exactly for unitary channels and 0 for the
    completely depolarizing channel.
    """
    r = pauli_transfer_matrix(ch)
    block = r[1:, 1:]
    return float(np.sum(block * block) / 3.0)


def process_fidelity(a: QuantumChannel, b: QuantumChannel) -> float:
    """Uhlmann fidelity between the trace-normalized Choi states."""
    return fidelity(a.choi / 2, b.choi / 2)


def simplex_order(fsim: list[float]) -> list[int]:
    """``np.argsort(fsim).tolist()``: the ``sorted`` order when its values
    strictly increase, the only ascending order there is; ``np.argsort``
    itself, which is not stable, on a tie (-0.0 == 0.0 too) or a NaN."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    values = [fsim[i] for i in order]
    return order if all(map(operator.lt, values, values[1:])) \
        else np.argsort(fsim).tolist()


def _nelder_mead_search(x0, maxiter: int, xatol: float, fatol: float):
    """One Nelder-Mead run as a coroutine: yields each vertex (a float list),
    is sent its value and returns the result."""
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = []
    for x in sim:
        fsim.append((yield x))
    nfev, nit = n + 1, 1
    for _ in range(2):  # scipy sorts twice before the first step
        order = simplex_order(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    while nit < maxiter:
        best, worst = sim[0], sim[-1]
        if (all(abs(fsim[0] - g) <= fatol for g in fsim[1:]) and all(
                abs(a - b) <= xatol for x in sim[1:] for a, b in zip(x, best))):
            break
        xbar = best
        for x in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        xr = [2 * a - b for a, b in zip(xbar, worst)]
        fxr = yield xr
        nfev += 1
        if fxr < fsim[0]:
            xe = [3 * a - 2 * b for a, b in zip(xbar, worst)]
            fxe = yield xe
            nfev += 1
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            outside = fxr < fsim[-1]  # else an inside contraction
            xc = [(1.5 * a - 0.5 * b) if outside else (0.5 * a + 0.5 * b)
                  for a, b in zip(xbar, worst)]
            fxc = yield xc
            nfev += 1
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [a + 0.5 * (b - a) for a, b in zip(best, sim[j])]
                    fsim[j] = yield sim[j]
                nfev += n
        nit += 1
        order = simplex_order(fsim)
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
    status = 2 if nit >= maxiter else 0
    return OptimizeResult(
        x=np.array(sim[0]), fun=np.min(fsim), nit=nit, nfev=nfev,
        status=status, success=status == 0,
        message=("Maximum number of iterations has been exceeded." if status
                 else "Optimization terminated successfully."))


def nelder_mead(fun, x0, args=(), *, maxiter: int, xatol: float = 1e-4,
                fatol: float = 1e-4, **_) -> OptimizeResult:
    """scipy 1.17's Nelder-Mead (non-adaptive, unbounded, no ``maxfev``) on
    float lists, with scipy's iterates and result bit for bit: the same steps
    and comparisons (a NaN falls through alike), the centroid summed row by
    row as ``np.add.reduce`` does, float64 array arguments, and the simplex
    ordered as ``np.argsort`` orders it: by ``sorted`` when the values are
    distinct and not NaN, else by ``np.argsort`` (``simplex_order``)."""
    search = _nelder_mead_search(x0, maxiter, xatol, fatol)
    x = next(search)
    try:
        while True:
            x = search.send(float(fun(np.array(x), *args)))
    except StopIteration as done:
        return done.value


def lockstep(batch_fun, starts, *, maxiter: int, xatol: float = 1e-4,
             fatol: float = 1e-4) -> list[OptimizeResult]:
    """One ``nelder_mead`` run per start, stepped together: each round calls
    ``batch_fun(xs, lanes)`` once, one row of ``xs`` per live run (its lane, an
    index into ``starts``), for one value per row; a finished run drops out."""
    searches = [_nelder_mead_search(x0, maxiter, xatol, fatol) for x0 in starts]
    pending = {lane: next(search) for lane, search in enumerate(searches)}
    results = [None] * len(searches)
    while pending:
        lanes = list(pending)
        values = batch_fun(np.array([pending[lane] for lane in lanes]), lanes)
        for lane, value in zip(lanes, np.asarray(values, dtype=float).tolist()):
            try:
                pending[lane] = searches[lane].send(value)
            except StopIteration as done:
                results[lane] = done.value
                del pending[lane]
    return results


def multistart(run, start: np.ndarray, rngs: list[np.random.Generator],
               restarts: int, name: str) -> list[list[OptimizeResult]]:
    """Per generator of ``rngs`` a group of starts, ``start`` then ``restarts
    - 1`` uniform on [0, 2pi), all run by one ``run(starts)``: each group's
    non-NaN results in start order, or ``NumericalError`` if there are none."""
    size = max(1, int(restarts))
    runs = run([start if r == 0 else rng.uniform(0.0, 2.0 * np.pi, size=start.size)
                for rng in rngs for r in range(size)])
    groups = [[res for res in runs[g:g + size] if not math.isnan(res.fun)]
              for g in range(0, len(runs), size)]
    if not all(groups):
        raise NumericalError(f"{name} search failed on every restart")
    return groups
