"""Control bases, overlap ordering and dual construction."""

import numpy as np
import pytest

from proctensor.basis import (
    ControlBasis,
    build_duals,
    generate_haar_basis,
    haar_unitary,
    hermitian_frame,
    mean_overlaps,
    order_by_overlap,
    prep_matrix_form,
    standard_preparations,
    unitary_matrix_form,
)
from proctensor.qcore import ID2, KET0, PAULIS, ket_dm
from proctensor.simulator import rng_stream

from helpers import duality_defect, preparations_from_unitaries


def _pool_forms(basis: ControlBasis) -> list[np.ndarray]:
    return [unitary_matrix_form(u) for u in basis.unitaries]


def test_standard_preparations_states():
    preps = standard_preparations()
    assert len(preps) == 4
    plus = ket_dm(np.array([1.0, 1.0]) / np.sqrt(2.0))
    plus_i = ket_dm(np.array([1.0, 1.0j]) / np.sqrt(2.0))
    zero = ket_dm(KET0)
    one = ket_dm(np.array([0.0, 1.0]))
    got = [p.state for p in preps]
    for expect, actual in zip([plus, plus_i, zero, one], got):
        assert np.allclose(actual, expect, atol=1e-12)


def test_prep_gate_generates_state():
    for p in standard_preparations():
        assert np.allclose(p.gate @ ket_dm(KET0) @ p.gate.conj().T, p.state,
                           atol=1e-12)


def test_preparations_from_unitaries():
    preps = preparations_from_unitaries([PAULIS["X"], ID2], ["x", "i"])
    assert preps[0].label == "x"
    assert np.allclose(preps[0].state, ket_dm(np.array([0.0, 1.0])), atol=1e-12)
    assert np.allclose(preps[1].state, ket_dm(KET0), atol=1e-12)


def test_haar_unitary_is_unitary():
    rng = rng_stream(3, 0)
    for _ in range(50):
        u = haar_unitary(2, rng)
        assert np.allclose(u @ u.conj().T, ID2, atol=1e-12)


def test_haar_first_moment_of_trace_squared():
    # For the uniform measure on U(2), E|tr U|^2 = 1 with unit variance,
    # so the sample mean over 4000 draws sits within 3 sigma of 1.
    rng = rng_stream(11, 0)
    vals = np.array([abs(np.trace(haar_unitary(2, rng))) ** 2
                     for _ in range(4000)])
    assert abs(vals.mean() - 1.0) < 3.0 / np.sqrt(4000) + 0.01


def test_generate_haar_basis_deterministic():
    a = generate_haar_basis(28, seed=5)
    b = generate_haar_basis(28, seed=5)
    c = generate_haar_basis(28, seed=6)
    assert a.size == 28
    for ua, ub in zip(a.unitaries, b.unitaries):
        assert np.array_equal(ua, ub)
    assert not np.allclose(a.unitaries[0], c.unitaries[0], atol=1e-3)


def test_basis_subset_and_validation():
    # a smaller pool of the same seed is the first n gates of a larger one
    basis = generate_haar_basis(12, seed=5)
    sub = generate_haar_basis(4, seed=5)
    assert sub.size == 4
    for i in range(4):
        assert np.array_equal(sub.unitaries[i], basis.unitaries[i])
    with pytest.raises(ValueError):
        generate_haar_basis(0, seed=5)
    with pytest.raises(ValueError):
        generate_haar_basis(29, seed=0)
    with pytest.raises(ValueError):
        ControlBasis(preparations=standard_preparations(),
                     unitaries=(np.array([[1.0, 1.0], [0.0, 1.0]]),))


def test_order_by_overlap_is_permutation():
    basis = generate_haar_basis(20, seed=9)
    ordered = order_by_overlap(basis)
    assert ordered.size == basis.size
    # a permutation: every reordered element is an original one, no repeats
    hits = []
    for u in ordered.unitaries:
        match = [i for i, v in enumerate(basis.unitaries) if np.array_equal(u, v)]
        assert len(match) == 1
        hits.append(match[0])
    assert sorted(hits) == list(range(basis.size))
    # the first pick is the element least overlapping with the pool
    assert hits[0] == int(np.argmin(mean_overlaps(basis)))


def test_order_by_overlap_is_a_fixed_point_on_ordered_pools():
    basis = order_by_overlap(generate_haar_basis(16, seed=4))
    again = order_by_overlap(basis)
    for a, b in zip(again.unitaries, basis.unitaries):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [9, 21, 33])
def test_ordered_prefix_conditions_better(seed):
    # the point of the ordering: the first ten elements span the
    # restricted space with a larger smallest singular value than the
    # unordered first ten, so the dual construction is better behaved
    basis = generate_haar_basis(28, seed=seed)
    ordered = order_by_overlap(basis)

    def smallest_sv(b):
        vecs = np.stack([unitary_matrix_form(u).reshape(-1)
                         for u in b.unitaries[:10]])
        return np.linalg.svd(vecs, compute_uv=False)[-1]

    assert smallest_sv(ordered) > smallest_sv(basis)


def test_mean_overlap_scale():
    # overlap of two unitary forms is |tr(U V^dag)|^2 / 4, so each lies in
    # [0, 1] and the pool average sits near the uniform-measure value 1/4
    basis = generate_haar_basis(15, seed=2)
    means = mean_overlaps(basis)
    assert np.all(means >= 0.0)
    assert np.all(means <= 1.0)
    assert 0.1 < means.mean() < 0.45


def test_frames_are_orthonormal():
    for frame in (hermitian_frame(2), hermitian_frame(4)):
        n = len(frame)
        dim = frame[0].shape[0]
        assert n == dim * dim
        gram = np.array([[np.einsum("ij,ji->", a, b) for b in frame] for a in frame])
        assert np.allclose(gram, np.eye(n), atol=1e-12)
        for g in frame:
            assert np.allclose(g, g.conj().T, atol=1e-12)


def test_duals_exact_mode_at_rank_ten():
    basis = generate_haar_basis(10, seed=4)
    forms = _pool_forms(basis)
    duals, rank = build_duals(forms, required_rank=10)
    assert rank == len(duals) == 10
    assert duality_defect(forms, duals) < 1e-8


def test_duals_relaxed_mode_resolves_identity():
    basis = generate_haar_basis(24, seed=4)
    forms = _pool_forms(basis)
    duals, rank = build_duals(forms, required_rank=10)
    assert rank == 10 < len(duals)
    total = sum(duals)
    assert np.allclose(total, np.eye(4), atol=1e-8)


def test_relaxed_duals_reconstruct_span_members():
    pool = generate_haar_basis(28, seed=4)
    sub_forms = _pool_forms(generate_haar_basis(24, seed=4))
    duals, _ = build_duals(sub_forms, required_rank=10)
    # every pool element, also the held-out ones, lies in the span and is
    # reproduced by its own expansion coefficients
    for u in pool.unitaries:
        target = unitary_matrix_form(u)
        coeffs = np.array([np.einsum("ij,ji->", target, d).real
                           for d in duals])
        recon = sum(c * f for c, f in zip(coeffs, sub_forms))
        assert np.max(np.abs(recon - target)) < 1e-8
    # the depolarizing form I/4 is in the span too
    target = np.eye(4, dtype=complex) / 4.0
    coeffs = np.array([np.einsum("ij,ji->", target, d).real for d in duals])
    recon = sum(c * f for c, f in zip(coeffs, sub_forms))
    assert np.max(np.abs(recon - target)) < 1e-8


def test_duals_rank_guard():
    forms = [unitary_matrix_form(PAULIS[p]) for p in ("I", "X", "Y", "Z")]
    with pytest.raises(ValueError, match="spans only"):
        build_duals(forms, required_rank=10)
    with pytest.raises(ValueError, match="empty"):
        build_duals([], required_rank=10)


def test_prep_duals_exact():
    forms = [prep_matrix_form(p.state) for p in standard_preparations()]
    duals, rank = build_duals(forms, required_rank=4)
    assert rank == len(duals)
    assert duality_defect(forms, duals) < 1e-10


@pytest.mark.parametrize("n", [10, 16, 24, 28])
def test_duals_rank_saturates(n):
    basis = generate_haar_basis(n, seed=21)
    duals, rank = build_duals(_pool_forms(basis), required_rank=10)
    assert rank == 10
    assert (rank == len(duals)) == (n == 10)
