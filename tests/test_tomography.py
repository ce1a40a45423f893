"""State estimation, tensor assembly/contraction, evaluation, bootstrap."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from proctensor import tomography
from proctensor.basis import (build_duals, generate_haar_basis, prep_matrix_form,
                              standard_preparations)
from proctensor.memory import BARRIER_FORM
from proctensor.qcore import (
    ID2,
    KET0,
    PAULIS,
    NumericalError,
    apply_channel,
    channel_from_kraus,
    fidelity,
    ket_dm,
    u3_matrix,
)
from proctensor.simulator import (
    make_model,
    rng_stream,
    run_sequence,
    simulate_experiment,
)
from proctensor.tomography import (
    _states_from_probs,
    bloch_fidelity,
    bootstrap_ci,
    box_stats,
    build_standard_tensor,
    channel_from_prep_outputs,
    clip_to_bloch_ball,
    contract_fast,
    evaluate_split,
    form_coefficients,
    linear_inversion_qubit,
    mle_project,
    pool_coefficients,
    predict_batch,
    prediction_fidelities,
    prep_slot,
    project_to_cptp,
    qst_mle,
    qubit_bloch,
    reconstruction_fidelity,
    slot_coefficients,
    standard_slots,
    step_matrix_form,
    unitary_slot,
)

from helpers import (channel_from_unitary, contract_forms, contract_via_matrix,
                     duals_via_frame_loop, exact_states,
                     predict_via_key_tables,
                     qubit_fidelity_vectorized, qubit_probs_of,
                     standard_sequence, tensor_matrix)
from test_qcore import random_density_matrix


def _simplex_projection(evals):
    """Euclidean projection of a trace-one spectrum onto the simplex."""
    mu = np.sort(evals)[::-1]
    cum = np.cumsum(mu)
    rho_idx = np.nonzero(mu - (cum - 1.0) / np.arange(1, len(mu) + 1) > 0)[0][-1]
    tau = (cum[rho_idx] - 1.0) / (rho_idx + 1)
    return np.clip(np.sort(evals)[::-1] - tau, 0.0, None)


# ---------------------------------------------------------------------------
# state estimation
# ---------------------------------------------------------------------------

def test_mle_project_bloch_clip_oracle():
    # expectations (1, 1, 0) project radially to (1, 1, 0)/sqrt(2)
    est = mle_project(linear_inversion_qubit(1.0, 1.0, 0.0))
    s = 1.0 / np.sqrt(2.0)
    expected = 0.5 * (ID2 + s * PAULIS["X"] + s * PAULIS["Y"])
    assert np.allclose(est, expected, atol=1e-10)


def test_mle_project_fixed_point_on_physical_states():
    rng = rng_stream(31, 0)
    for dim in (2, 4):
        for _ in range(20):
            rho = random_density_matrix(rng, dim)
            assert np.allclose(mle_project(rho), rho, atol=1e-10)


def test_mle_project_matches_simplex_projection():
    rng = rng_stream(32, 0)
    for dim in (2, 4):
        for _ in range(30):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (h + h.conj().T) / 2.0
            # shift to trace one while keeping plenty of negative eigenvalues
            h = h + (1.0 - h.trace().real) / dim * np.eye(dim)
            got = mle_project(h)
            evals, vecs = np.linalg.eigh(h)
            want = (vecs[:, ::-1] * _simplex_projection(evals)) @ vecs[:, ::-1].conj().T
            assert np.allclose(got, want, atol=1e-9)
            spec = np.linalg.eigvalsh(got)
            assert spec.min() > -1e-12
            assert abs(got.trace() - 1.0) < 1e-10


def test_mle_project_rejects_traceless():
    with pytest.raises(ValueError):
        mle_project(PAULIS["Z"].astype(complex))


def test_vectorized_qubit_mle_matches_scalar():
    # the bootstraps' states: probabilities clipped to the Bloch ball, then
    # built, against each state's eigenvalue truncation
    rng = rng_stream(33, 0)
    probs = rng.uniform(-0.15, 1.15, size=(200, 3))
    batch = _states_from_probs(probs)
    for i, ex in enumerate(2.0 * probs - 1.0):
        ref = mle_project(linear_inversion_qubit(*ex))
        assert np.allclose(batch[i], ref, atol=1e-10)


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       radius=st.floats(0.0, 3.0))
def test_radial_clip_equals_eigenvalue_truncation(direction, radius):
    # every trace-one 2x2 Hermitian matrix is (I + r.sigma)/2; the clip the
    # bootstrap and the synthesis loss use must be mle_project's projection,
    # inside the Bloch ball (no-op), on it and outside it
    norm = np.linalg.norm(direction)
    assume(norm > 1e-3)
    x, y, z = radius * np.asarray(direction) / norm
    clipped = linear_inversion_qubit(*clip_to_bloch_ball(x, y, z))
    want = mle_project(linear_inversion_qubit(x, y, z))
    assert np.max(np.abs(clipped - want)) <= 1e-12


def test_qst_mle_recovers_exact_record():
    rho = random_density_matrix(rng_stream(34, 0))
    ex = [np.trace(rho @ PAULIS[ax]).real for ax in "XYZ"]
    counts = np.array([[(1 + e) / 2, (1 - e) / 2] for e in ex])
    assert np.allclose(qst_mle(counts, None), rho, atol=1e-10)
    # a stack of counts gives a stack of states
    stack = qst_mle(np.array([[counts, counts]]), None)
    assert stack.shape == (1, 2, 2, 2)
    assert np.array_equal(stack[0, 1], qst_mle(counts, None))


def test_qst_mle_converges_with_shots():
    model = make_model(steps=3)
    basis = generate_haar_basis(3, seed=8)
    seq = standard_sequence(basis, 0, 1, 2)
    truth = run_sequence(model, seq)
    counts = simulate_experiment(model, [(step,) for step in seq],
                                 shots=200_000, master_seed=5)
    assert fidelity(qst_mle(counts, 200_000).reshape(2, 2), truth) > 0.999


def test_qubit_fidelity_vectorized_matches_uhlmann():
    rng = rng_stream(35, 0)
    a = np.stack([random_density_matrix(rng) for _ in range(60)])
    b = np.stack([random_density_matrix(rng) for _ in range(60)])
    got = qubit_fidelity_vectorized(a, b)
    for i in range(60):
        assert abs(got[i] - fidelity(a[i], b[i])) < 1e-9
    # the bootstrap scores Bloch vectors with the same arithmetic
    assert np.array_equal(
        bloch_fidelity(qubit_bloch(a), qubit_bloch(b)).view(np.int64),
        got.view(np.int64))


# ---------------------------------------------------------------------------
# tensor assembly and contraction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_setup():
    model = make_model(steps=3)
    basis = generate_haar_basis(12, seed=17)
    states = exact_states(model, basis)
    return model, basis, states


def test_noiseless_roundtrip_basis_and_held_out(small_setup):
    model, basis, states = small_setup
    pt = build_standard_tensor(states, basis, n=10)
    matrix = tensor_matrix(pt)
    for (i, j, k) in [(0, 0, 0), (2, 4, 7), (3, 9, 9), (1, 10, 11), (0, 11, 10)]:
        seq = standard_sequence(basis, i, j, k)
        pred = contract_via_matrix(pt, seq, matrix)
        assert fidelity(mle_project(pred), states[i, j, k]) > 1.0 - 1e-9


def test_contract_routes_agree(small_setup):
    model, basis, states = small_setup
    pt = build_standard_tensor(states, basis, n=10)
    matrix = tensor_matrix(pt)
    for (i, j, k) in [(0, 0, 0), (1, 3, 5), (2, 10, 11)]:
        seq = standard_sequence(basis, i, j, k)
        assert np.allclose(contract_via_matrix(pt, seq, matrix),
                           contract_fast(pt, seq), atol=1e-11)


def test_tensor_matrix_shape_and_hermiticity(small_setup):
    _, basis, states = small_setup
    pt = build_standard_tensor(states, basis, n=10)
    matrix = tensor_matrix(pt)
    assert matrix.shape == (128, 128)
    assert np.allclose(matrix, matrix.conj().T, atol=1e-9)
    assert pt.steps == 3
    assert pt.duals[0].mode == "exact"
    assert pt.duals[1].mode == "exact"


def test_relaxed_tensor_roundtrip():
    model = make_model(steps=3)
    basis = generate_haar_basis(14, seed=23)
    states = exact_states(model, basis)
    pt = build_standard_tensor(states, basis, n=12)
    assert pt.duals[1].mode == "relaxed"
    for (i, j, k) in [(0, 12, 13), (3, 13, 12), (1, 12, 12)]:
        pred = contract_fast(pt, standard_sequence(basis, i, j, k))
        assert fidelity(mle_project(pred), states[i, j, k]) > 1.0 - 1e-9


def test_roundtrip_with_correlated_initial_state():
    # an entangled system-environment start is captured by the tensor
    model = make_model(steps=3, env_init="bell")
    basis = generate_haar_basis(12, seed=29)
    states = exact_states(model, basis)
    pt = build_standard_tensor(states, basis, n=10)
    for (i, j, k) in [(0, 10, 11), (2, 11, 11), (3, 11, 10)]:
        pred = contract_fast(pt, standard_sequence(basis, i, j, k))
        assert fidelity(mle_project(pred), states[i, j, k]) > 1.0 - 1e-9


def test_spam_error_absorbed_into_tensor():
    gamma = 0.12
    kraus = [np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]], dtype=complex),
             np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)]
    meas = channel_from_kraus(kraus)
    model = make_model(steps=3, meas_channel=meas)
    basis = generate_haar_basis(12, seed=31)
    states = exact_states(model, basis)
    pt = build_standard_tensor(states, basis, n=10)
    for (i, j, k) in [(1, 10, 11), (0, 11, 11)]:
        pred = contract_fast(pt, standard_sequence(basis, i, j, k))
        assert fidelity(mle_project(pred), states[i, j, k]) > 1.0 - 1e-9


@seed(20200430)
@settings(max_examples=15, deadline=None)
@given(pool_seed=st.integers(0, 2**32 - 1), size=st.integers(10, 16))
def test_barrier_coefficients_are_pauli_mixture(pool_seed, size):
    # the barrier's Choi form I/4 is the equal mixture of the Pauli gates' forms
    basis = generate_haar_basis(size, pool_seed)
    slot = unitary_slot(basis.unitaries)
    duals = build_duals(list(slot.forms), required_rank=slot.required_rank)
    direct = form_coefficients(BARRIER_FORM, duals)
    mixture = 0.25 * sum(slot_coefficients(slot, duals, PAULIS[p])
                         for p in ("I", "X", "Y", "Z"))
    assert np.allclose(direct, mixture, rtol=0.0, atol=1e-12)


def test_repeated_slots_share_one_dual_set():
    # the standard tensor's two pool slots are one slot object: its duals
    # are built once, and they are the bits a fresh build gives
    basis = generate_haar_basis(14, 3)
    states = np.broadcast_to(np.eye(2) / 2, (4, 14, 14, 2, 2))
    pt = build_standard_tensor(states, basis, 12)
    assert pt.duals[1] is pt.duals[2] and pt.duals[0] is not pt.duals[1]
    for slot, duals in zip(pt.slots, pt.duals):
        fresh = build_duals(slot.forms, required_rank=slot.required_rank)
        assert duals.rank == fresh.rank
        assert duals.duals.tobytes() == fresh.duals.tobytes()


@seed(20201001)
@settings(max_examples=15, deadline=None)
@given(pool_seed=st.integers(0, 2**32 - 1), size=st.integers(10, 28),
       angles=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 3))
def test_array_kernels_equal_loop_oracles(pool_seed, size, angles):
    # stored numbers stay bit-identical only if the stacked einsums give
    # exactly what the per-element loops give
    basis = generate_haar_basis(size, pool_seed)
    gate = u3_matrix(*angles)
    for slot, barrier in ((unitary_slot(basis.unitaries), [BARRIER_FORM]),
                          (prep_slot(basis.preparations), [])):
        duals = build_duals(slot.forms, required_rank=slot.required_rank)
        assert np.array_equal(duals.duals, duals_via_frame_loop(list(slot.forms)))
        gate_form = step_matrix_form(gate, slot.kind)
        for form in [gate_form] + barrier:
            loop = np.array([np.einsum("ij,ji->", form, d).real for d in duals.duals])
            assert np.array_equal(form_coefficients(form, duals), loop)
        assert np.array_equal(slot_coefficients(slot, duals, gate),
                              form_coefficients(gate_form, duals))


@seed(20201018)
@settings(max_examples=8, deadline=None)
@given(pool_seed=st.integers(0, 2**32 - 1), size=st.integers(11, 28),
       data=st.data())
def test_grid_prediction_equals_key_table_oracle(pool_seed, size, data):
    # stored numbers stay bit-identical only if the grid kernel gives
    # exactly what the per-key 4-operand einsum gives, signed zeros included
    n = data.draw(st.integers(10, size - 1), label="n")
    basis = generate_haar_basis(size, pool_seed)
    exact = exact_states(make_model(), basis)
    shots = 400
    draws = rng_stream(pool_seed, 1).binomial(shots, qubit_probs_of(exact))
    noisy = _states_from_probs((draws / shots).reshape(-1, 3)).reshape(exact.shape)
    for states in (exact, noisy):
        pt = build_standard_tensor(states, basis, n)
        for rows in (range(n, size), range(size)):
            keys = [(i, j, k) for i in range(4) for j in rows for k in rows]
            got = predict_batch(pt, pool_coefficients(
                pt.slots[1], pt.duals[1], [basis.unitaries[j] for j in rows]))
            want = predict_via_key_tables(pt, basis, keys)
            assert got.shape == (4, len(rows), len(rows), 2, 2)
            assert np.array_equal(got.reshape(want.shape).view(np.int64),
                                  want.view(np.int64))
            # the block's fidelities, scored one key at a time
            fids = np.array([reconstruction_fidelity(pred, states[key])
                             for key, pred in zip(keys, want)])
            got = prediction_fidelities(pt, basis, states, len(rows))
            assert np.array_equal(got.ravel().view(np.int64),
                                  fids.view(np.int64))


def test_barrier_contraction_equals_average_over_paulis(small_setup):
    model, basis, states = small_setup
    pt = build_standard_tensor(states, basis, n=10)
    prep = basis.preparations[1]
    tail = basis.unitaries[5]
    got = contract_forms(pt, [step_matrix_form(prep.gate, "prep"), BARRIER_FORM,
                              step_matrix_form(tail, "unitary")])
    avg = np.zeros((2, 2), dtype=complex)
    for p in ("I", "X", "Y", "Z"):
        avg += 0.25 * contract_fast(pt, [prep.gate, PAULIS[p], tail])
    assert np.allclose(got, avg, atol=1e-10)
    # the barrier output is also what the simulator produces for the mixture
    sim = np.zeros((2, 2), dtype=complex)
    for p in ("I", "X", "Y", "Z"):
        sim += 0.25 * run_sequence(model, (prep.gate, PAULIS[p], tail))
    assert fidelity(mle_project(got), mle_project(sim)) > 1.0 - 1e-9


def test_prep_slot_accepts_general_operations(small_setup):
    model, basis, states = small_setup
    pt = build_standard_tensor(states, basis, n=10)
    sigma = random_density_matrix(rng_stream(36, 0))
    tail = [basis.unitaries[2], basis.unitaries[6]]
    tail_forms = [step_matrix_form(u, "unitary") for u in tail]
    # a mixed preparation is the mixture of its eigenstates' preparation
    # gates, each taking |0> to one eigenvector
    weights, vecs = np.linalg.eigh(sigma)
    gates = [vecs[:, [k, 1 - k]] for k in range(2)]
    pred = contract_forms(pt, [prep_matrix_form(sigma)] + tail_forms)
    assert np.allclose(pred, sum(w * contract_fast(pt, [g] + tail)
                                 for w, g in zip(weights, gates)), atol=1e-12)
    truth = sum(w * run_sequence(model, [g] + tail)
                for w, g in zip(weights, gates))
    assert fidelity(mle_project(pred), truth) > 1.0 - 1e-9
    # a unitary placed in the preparation slot acts as the prep it induces
    h_gate = basis.preparations[0].gate
    pred_u = contract_fast(pt, [h_gate] + tail)
    induced = prep_matrix_form(ket_dm(h_gate @ KET0))
    pred_p = contract_forms(pt, [induced] + tail_forms)
    assert np.allclose(pred_u, pred_p, atol=1e-12)


def test_contract_validates_arity(small_setup):
    _, basis, states = small_setup
    pt = build_standard_tensor(states, basis, n=10)
    with pytest.raises(ValueError, match="steps"):
        contract_fast(pt, [ID2])


def test_build_standard_tensor_validates(small_setup):
    _, basis, states = small_setup
    with pytest.raises(ValueError, match="exceeds"):
        build_standard_tensor(states, basis, n=13)


# ---------------------------------------------------------------------------
# evaluation and summaries
# ---------------------------------------------------------------------------

def test_evaluate_split_noiseless(small_setup):
    _, basis, states = small_setup
    res = evaluate_split(states, basis, n=10)
    assert res.n == 10
    assert res.fidelities.shape == (4, 2, 2)
    assert res.fidelities.min() > 1.0 - 1e-9
    assert res.mean_infidelity < 1e-9
    with pytest.raises(ValueError):
        evaluate_split(states, basis, n=12)


def test_reconstruction_fidelity_projects_prediction():
    rho = ket_dm(KET0)
    bumped = rho + 0.05 * PAULIS["X"]  # Hermitian, trace one, not positive
    f = reconstruction_fidelity(bumped, rho)
    assert 0.9 < f <= 1.0


def test_box_stats_oracle():
    vals = np.array([1, 2, 3, 4, 5, 6, 7, 8, 9, 100.0])
    st = box_stats(vals)
    assert st.median == pytest.approx(5.5)
    assert st.q1 == pytest.approx(3.25)
    assert st.q3 == pytest.approx(7.75)
    # the outlier sits past q3 + 1.5 iqr, whiskers clip to the data range
    assert st.whisker_lo == 1.0
    assert st.whisker_hi == 9.0
    assert st.mean == pytest.approx(vals.mean())
    assert st.count == 10
    # a (P, m, m) block is summarised as its C-order ravel, bit for bit
    block = rng_stream(5, 0).permutation(
        np.append(np.linspace(0.9, 1.0, 17), 0.2)).reshape(2, 3, 3)
    assert np.array_equal(np.array(astuple(box_stats(block))).view(np.int64),
                          np.array(astuple(box_stats(block.ravel())))
                          .view(np.int64))
    with pytest.raises(ValueError):
        box_stats(np.array([]))


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------

def test_bootstrap_exact_records_collapse():
    model = make_model(steps=3)
    basis = generate_haar_basis(11, seed=41)
    counts = simulate_experiment(model, standard_slots(basis), None, 3)
    (lo,), (hi,), (samples,) = bootstrap_ci(counts, None, basis, [10],
                                            resamples=30, seed=1)
    assert hi - lo < 1e-6
    assert samples.std() < 1e-9
    point = samples[0]
    assert lo - 1e-9 <= point <= hi + 1e-9


def test_bootstrap_with_shots_is_deterministic_and_ordered():
    model = make_model(steps=3)
    basis = generate_haar_basis(11, seed=41)
    counts = simulate_experiment(model, standard_slots(basis), 400, 3)
    (lo1,), (hi1,), (s1,) = bootstrap_ci(counts, 400, basis, [10],
                                         resamples=40, seed=7)
    (lo2,), (hi2,), (s2,) = bootstrap_ci(counts, 400, basis, [10],
                                         resamples=40, seed=7)
    assert (lo1, hi1) == (lo2, hi2)
    assert 0.0 <= lo1 < hi1 <= 1.0
    assert s1.std() > 0.0
    assert np.array_equal(s1, s2)


def test_bootstrap_requires_two_resamples():
    model = make_model(steps=3)
    basis = generate_haar_basis(11, seed=41)
    counts = simulate_experiment(model, standard_slots(basis), None, 3)
    with pytest.raises(ValueError, match="resamples"):
        bootstrap_ci(counts, None, basis, [10], resamples=1, seed=0)


# ---------------------------------------------------------------------------
# Process tomography and CPTP projection
# ---------------------------------------------------------------------------

@seed(20200501)
@settings(max_examples=20, deadline=None)
@given(channel_seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4))
def test_qpt_recovers_kraus_channel(channel_seed, rank):
    rng = rng_stream(channel_seed, 0)
    gs = rng.normal(size=(rank, 2, 2)) + 1j * rng.normal(size=(rank, 2, 2))
    # normalize sum K^dag K = I through S^{-1/2}
    evals, vecs = np.linalg.eigh(sum(g.conj().T @ g for g in gs))
    inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
    ch = channel_from_kraus([g @ inv_sqrt for g in gs])
    outputs = [apply_channel(ch, p.state) for p in standard_preparations()]
    est, = channel_from_prep_outputs(np.array(outputs)[None])
    assert np.allclose(est.choi, ch.choi, rtol=0.0, atol=1e-8)


def test_project_to_cptp_fixed_points():
    rng = rng_stream(37, 0)
    from proctensor.basis import haar_unitary
    for _ in range(5):
        ch = channel_from_unitary(haar_unitary(2, rng))
        assert np.allclose(project_to_cptp(ch.choi[None])[0], ch.choi,
                           atol=1e-8)
    depol = np.eye(4, dtype=complex) / 2.0
    assert np.allclose(project_to_cptp(depol[None])[0], depol, atol=1e-10)


def test_project_to_cptp_raises_when_a_matrix_does_not_converge(monkeypatch):
    rng = rng_stream(39, 0)
    from proctensor.basis import haar_unitary
    clean = channel_from_unitary(haar_unitary(2, rng)).choi
    noise = rng.normal(size=(4, 4), scale=0.03) \
        + 1j * rng.normal(size=(4, 4), scale=0.03)
    noisy = clean + (noise + noise.conj().T) / 2.0
    monkeypatch.setattr(tomography, "CPTP_MAX_ITER", 1)
    # a CPTP input passes the test after one iteration; a noisy one does not
    assert project_to_cptp(clean[None]).shape == (1, 4, 4)
    with pytest.raises(NumericalError, match=r"^CPTP projection of Choi "
                       r"matrix \(1,\) did not converge in 1 iterations$"):
        project_to_cptp(np.array([clean, noisy, clean]))
    with pytest.raises(NumericalError, match=r"matrix \(0,\)"):
        project_to_cptp(noisy[None])


def test_project_to_cptp_repairs_noisy_choi():
    rng = rng_stream(38, 0)
    from proctensor.basis import haar_unitary
    for _ in range(5):
        clean = channel_from_unitary(haar_unitary(2, rng)).choi
        noise = rng.normal(size=(4, 4), scale=0.03) \
            + 1j * rng.normal(size=(4, 4), scale=0.03)
        noisy = clean + (noise + noise.conj().T) / 2.0
        fixed, = project_to_cptp(noisy[None])
        c4 = fixed.reshape(2, 2, 2, 2)
        assert np.max(np.abs(np.einsum("iaja->ij", c4) - np.eye(2))) < 1e-8
        assert np.linalg.eigvalsh(fixed).min() > -1e-8
        # no farther from the noisy input than the clean point is
        d_fixed = np.linalg.norm(fixed - noisy)
        d_clean = np.linalg.norm(clean - noisy)
        assert d_fixed <= d_clean + 1e-8
