"""Control bases and their dual sets.

A control basis is the four fixed preparations (Hadamard, S then Hadamard,
identity, X, applied to |0> -> +X, +Y, +Z, -Z eigenstates) plus a pool of
Haar-random single-qubit unitaries. The matrix form of an operation is its
trace-normalized Choi matrix (see qcore), a Hermitian 4x4 matrix; unitary
channels span a 10-dimensional subspace of the 16-dimensional operation
space (d^4 - 2d^2 + 2 for d=2), so 10 independent elements form a minimal
complete restricted basis and larger sets are overcomplete.

Dual construction: vectorize each element's matrix form in a fixed
orthonormal Hermitian frame, stack the coordinate vectors as columns of B,
take the Moore-Penrose pseudoinverse (singular values below 1e-10 of the
largest are dropped), and un-vectorize its rows. With independent elements
the duals satisfy tr[B_i D_j] = delta_ij exactly; in the overcomplete case
that duality is relaxed but the duals still resolve the identity,
sum_i D_i = I, so expansions of anything inside the span stay complete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import (
    HADAMARD,
    ID2,
    KET0,
    PAULI_X,
    S_GATE,
    check_unitary,
    ket_dm,
    unitary_choi,
)

PINV_RCOND = 1e-10
RESTRICTED_SPAN_DIM = 10  # d^4 - 2 d^2 + 2 at d = 2
MAX_POOL = 28


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrepOp:
    """A basis preparation: the physical gate and the state it prepares."""

    label: str
    gate: np.ndarray
    state: np.ndarray


def standard_preparations() -> tuple[PrepOp, ...]:
    gates = (
        ("H", HADAMARD),
        ("SH", S_GATE @ HADAMARD),
        ("I", ID2),
        ("X", PAULI_X),
    )
    return tuple(
        PrepOp(label=lbl, gate=g, state=ket_dm(g @ KET0)) for lbl, g in gates
    )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass(frozen=True)
class ControlBasis:
    """Preparation set plus an ordered pool of basis unitaries."""

    preparations: tuple[PrepOp, ...]
    unitaries: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        n = len(self.unitaries)
        if not 1 <= n <= MAX_POOL:
            raise ValueError(f"pool size {n} outside [1, {MAX_POOL}]")
        for i, u in enumerate(self.unitaries):
            check_unitary(u, tol=1e-9, name=f"basis element {i}")

    @property
    def size(self) -> int:
        return len(self.unitaries)


def generate_haar_basis(n: int, seed: int) -> ControlBasis:
    """Fresh pool of n Haar unitaries plus the standard preparations."""
    if not 1 <= n <= MAX_POOL:
        raise ValueError(f"basis size {n} outside [1, {MAX_POOL}]")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    unitaries = tuple(haar_unitary(2, rng) for _ in range(n))
    return ControlBasis(preparations=standard_preparations(), unitaries=unitaries)


# ---------------------------------------------------------------------------
# Matrix forms and overlap ordering
# ---------------------------------------------------------------------------

def unitary_matrix_form(u: np.ndarray) -> np.ndarray:
    """Trace-normalized Choi matrix of the unitary channel."""
    return unitary_choi(u) / u.shape[0]


def prep_matrix_form(state: np.ndarray) -> np.ndarray:
    """Trace-normalized Choi matrix of the map preparing ``state`` from any input."""
    return np.kron(ID2, state) / 2.0


def mean_overlaps(basis: ControlBasis) -> np.ndarray:
    """Mean Hilbert-Schmidt overlap of each element with the rest of the pool."""
    forms = [unitary_matrix_form(u) for u in basis.unitaries]
    n = len(forms)
    if n < 2:
        raise ValueError("overlap ordering needs at least two elements")
    gram = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            ov = float(np.einsum("ij,ji->", forms[i], forms[j]).real)
            gram[i, j] = gram[j, i] = ov
    return gram.sum(axis=1) / (n - 1)


def overlap_order(basis: ControlBasis) -> np.ndarray:
    """Greedy least-overlap permutation of the pool.

    The first element is the one with the smallest mean overlap with the
    rest of the pool; every later pick is the remaining element with the
    smallest squared overlap with the span of the elements already
    chosen (largest residual after projecting onto that span). Ties keep
    the earlier pool index.
    """
    means = mean_overlaps(basis)
    vecs = np.stack([unitary_matrix_form(u).reshape(-1)
                     for u in basis.unitaries])
    order = [int(np.argmin(means))]
    residual = vecs.copy()
    remaining = [i for i in range(basis.size) if i != order[0]]
    while remaining:
        v = residual[order[-1]]
        v = v / np.linalg.norm(v)
        for i in remaining:
            residual[i] = residual[i] - np.vdot(v, residual[i]) * v
        norms = [float(np.linalg.norm(residual[i])) for i in remaining]
        pick = remaining[int(np.argmax(norms))]
        order.append(pick)
        remaining.remove(pick)
    return np.array(order)


def order_by_overlap(basis: ControlBasis) -> ControlBasis:
    """Reorder the pool so early elements are mutually least overlapping.

    Minimal bases read from the front of the ordered pool give much
    better conditioned dual sets than unordered draws, which is what
    makes small-n reconstructions usable under shot noise.
    """
    order = overlap_order(basis)
    return ControlBasis(preparations=basis.preparations,
                        unitaries=tuple(basis.unitaries[i] for i in order))


# ---------------------------------------------------------------------------
# Duals
# ---------------------------------------------------------------------------

def hermitian_frame(dim: int) -> np.ndarray:
    """Orthonormal Hermitian frame built from matrix units, stacked (d^2, d, d).

    Diagonal units E_ii, plus (E_ij + E_ji)/sqrt(2) and
    i(E_ij - E_ji)/sqrt(2) for i < j; tr[G_a G_b] = delta_ab.
    """
    frame = []
    for i in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, i] = 1.0
        frame.append(m)
    for i in range(dim):
        for j in range(i + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            frame.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[i, j] = -1.0j / np.sqrt(2.0)
            m[j, i] = 1.0j / np.sqrt(2.0)
            frame.append(m)
    return np.stack(frame)


@dataclass(frozen=True)
class DualSet:
    """Duals of a slot basis, stacked (n, d, d), and the rank the basis spans."""

    duals: np.ndarray
    rank: int

    @property
    def mode(self) -> str:
        """``"exact"`` when tr[B_i D_j] = delta_ij holds, else ``"relaxed"``."""
        return "exact" if self.rank == len(self.duals) else "relaxed"


def build_duals(forms: np.ndarray,
                required_rank: int = RESTRICTED_SPAN_DIM) -> DualSet:
    """Duals of a stack of matrix forms (see module docstring).

    ``required_rank`` is the dimension the elements must span: 10 for a
    unitary slot, 4 for a preparation slot.
    """
    forms = np.asarray(forms, dtype=complex)
    if not len(forms):
        raise ValueError("empty basis")
    frame = hermitian_frame(forms.shape[1])
    coords = np.einsum("cij,nji->nc", frame, forms).real  # rows: elements
    b_mat = coords.T  # columns are vectorized elements
    svals = np.linalg.svd(b_mat, compute_uv=False)
    rank = int(np.sum(svals > PINV_RCOND * svals[0]))
    if rank < required_rank:
        raise ValueError(
            f"basis spans only {rank} of the required {required_rank} dimensions")
    f_dag = np.linalg.pinv(b_mat, rcond=PINV_RCOND)
    return DualSet(duals=np.einsum("nc,cij->nij", f_dag, frame), rank=rank)
