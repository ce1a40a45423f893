"""Decoupling and synthesis tests.

Oracles: closed-form block dynamics of the exchange+ZZ coupling for idle
trajectories, matrix-unit construction of the traced channel for process
tomography, and the analytic unitarity of the target family.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from proctensor import control
from proctensor.basis import generate_haar_basis, haar_unitary
from proctensor.harness import OPTIMIZER_RESTARTS, plan_from_dict
from proctensor.control import (
    DECOUPLING_ENV_REF,
    XY4_CYCLE,
    build_decoupling_tensor,
    build_synthesis_tensor,
    decoupling_kernel,
    decoupling_model,
    decoupling_objective,
    nonunitary_target,
    optimize_decoupling,
    qpt,
    restoration_error,
    simulate_trajectory,
    synthesis_model,
    synthesis_sweep,
    synthesize_gates,
    synthesis_kernel,
    synthesis_loss,
)
from proctensor.qcore import (
    NumericalError,
    PAULIS,
    check_density_matrix,
    mutual_information_state,
    negativity,
    partial_trace,
    process_fidelity,
    purity,
    rotation_gate,
    u3_matrix,
    unitarity,
)
from proctensor.simulator import (
    PAIR_SETTINGS,
    draw_pair_counts,
    initial_joint_state,
    interval_propagator,
    khz_to_rad_per_ns,
    run_sequence,
    two_qubit_probe,
)
from proctensor.tomography import contract_fast, pair_qst_mle, qubit_bloch

from helpers import (channel_from_unitary, decoupling_objective_via_steps,
                     restoration_error_via_steps, synthesis_loss_oracle,
                     synthesis_loss_via_steps, synthesis_predictions_via_steps)
from test_golden import DECOUPLE_PLAN
from test_qcore import random_density_matrix


@pytest.fixture(scope="module")
def basis24():
    return generate_haar_basis(24, seed=7)


@pytest.fixture(scope="module")
def dec_pt(basis24):
    return build_decoupling_tensor(decoupling_model(), basis24)


@pytest.fixture(scope="module")
def dec_result(dec_pt):
    return optimize_decoupling(dec_pt, restarts=20, seed=0)


@pytest.fixture(scope="module")
def syn_model():
    return synthesis_model()


@pytest.fixture(scope="module")
def syn_pt(syn_model, basis24):
    return build_synthesis_tensor(syn_model, basis24)


@pytest.fixture(scope="module")
def free_model():
    return synthesis_model(exchange_khz=0.0, zz_khz=0.0)


@pytest.fixture(scope="module")
def free_pt(free_model, basis24):
    return build_synthesis_tensor(free_model, basis24)


# ---------------------------------------------------------------------------
# Two-qubit readout
# ---------------------------------------------------------------------------

def exact_pair_probabilities(rho, a, b):
    pa, pb = PAULIS[a], PAULIS[b]
    ea = np.real(np.trace(np.kron(pa, np.eye(2)) @ rho))
    eb = np.real(np.trace(np.kron(np.eye(2), pb) @ rho))
    eab = np.real(np.trace(np.kron(pa, pb) @ rho))
    return np.array([(1 + s1 * ea + s2 * eb + s1 * s2 * eab) / 4.0
                     for s1 in (1, -1) for s2 in (1, -1)])


def test_two_qubit_mle_exact_roundtrip():
    # exact outcome probabilities in place of counts give back the state
    rng = np.random.default_rng(3)
    rhos = np.array([random_density_matrix(rng, dim=4) for _ in range(5)])
    probs = np.array([[exact_pair_probabilities(rho, a, b)
                       for a, b in PAIR_SETTINGS] for rho in rhos])
    assert probs.shape == (5, 9, 4)
    assert np.allclose(pair_qst_mle(probs), rhos, atol=1e-9)


def test_two_qubit_mle_sampled_converges():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(rng, dim=4)
    counts = draw_pair_counts(rho[None], 200_000, 4)
    assert counts.shape == (1, 9, 4)
    assert (counts.sum(axis=-1) == 200_000).all()
    joint = pair_qst_mle(counts)[0]
    check_density_matrix(joint)
    assert np.abs(joint - rho).max() < 5e-3


def test_measure_joint_state_exact_passthrough(basis24):
    # without shots the tensor holds the simulated joint states themselves
    model = decoupling_model()
    joints = two_qubit_probe(model, [basis24.unitaries])
    pt = build_decoupling_tensor(model, basis24, shots=None)
    assert np.array_equal(pt.states, joints)


# ---------------------------------------------------------------------------
# Decoupling probe and objective
# ---------------------------------------------------------------------------

def test_decoupling_tensor_predicts_probe(dec_pt, basis24):
    # held-out gate: tensor prediction equals the simulated joint state
    model = decoupling_model()
    g = haar_unitary(2, np.random.default_rng(9))
    want = two_qubit_probe(model, [[g]])[0]
    got = contract_fast(dec_pt, [g])
    assert np.allclose(got, want, atol=1e-9)


def test_objective_range_and_phase_invariance(dec_pt):
    rng = np.random.default_rng(11)
    kernel = decoupling_kernel(dec_pt)
    for _ in range(5):
        x = rng.uniform(0.0, 2.0 * np.pi, size=3)
        val = decoupling_objective(kernel, x)
        assert 0.0 <= val <= 1.0
        # theta + 2 pi gives the same gate times the global phase -1
        spun = decoupling_objective(kernel, x + [2.0 * np.pi, 0.0, 0.0])
        assert spun == pytest.approx(val, abs=1e-12)


def test_no_coupling_probe_degenerate():
    basis = generate_haar_basis(24, seed=7)
    pt = build_decoupling_tensor(decoupling_model(exchange_khz=0.0, zz_khz=0.0),
                                 basis)
    res = optimize_decoupling(pt, restarts=3, seed=0)
    assert res.objective <= 1e-9
    assert res.identity_objective <= 1e-9
    assert res.degenerate


def test_optimized_gate_beats_identity(dec_result):
    assert not dec_result.degenerate
    assert dec_result.identity_objective > 1e-3
    assert dec_result.objective < dec_result.identity_objective - 1e-3


def test_optimum_is_pi_rotation_in_plane(dec_result):
    # the coupling commutes with XX, so the echo about X refocuses exactly
    assert dec_result.objective < 1e-9
    assert dec_result.angle == pytest.approx(np.pi, abs=0.02)
    assert abs(dec_result.axis[2]) < 0.02
    assert abs(dec_result.axis[0]) > 0.95


def test_optimizer_deterministic(dec_pt, dec_result):
    again = optimize_decoupling(dec_pt, restarts=20, seed=0)
    assert np.array_equal(again.params, dec_result.params)
    assert again.objective == dec_result.objective


def test_restoration_error_separates_refocusers(dec_pt):
    env_ref = DECOUPLING_ENV_REF
    kernel = decoupling_kernel(dec_pt)
    pi_x = np.array([np.pi, -np.pi / 2.0, np.pi / 2.0])  # rotation_gate("X", pi)
    assert np.allclose(u3_matrix(*pi_x), rotation_gate("X", np.pi), atol=1e-15)
    assert decoupling_objective(kernel, pi_x) < 1e-9
    assert restoration_error(kernel, pi_x, env_ref) < 1e-9
    # a gate that refocuses this input without restoring the neighbor
    drift = np.array([1.3845, 4.0329, 5.3501])
    assert restoration_error(kernel, drift, env_ref) > 1e-4


def test_every_polish_converges_on_the_decouple_plan(monkeypatch):
    # the polish objective is smooth to rounding, so each polish run must
    # stop on the kernel's tolerances rather than on maxiter
    plan = plan_from_dict(DECOUPLE_PLAN)
    pt = build_decoupling_tensor(decoupling_model(plan.exchange_khz, plan.zz_khz),
                                 plan.basis(), plan.shots, plan.master_seed + 202)
    polished = []
    minimize = control.optimize.minimize

    def recording(fun, x0, **kwargs):
        res = minimize(fun, x0, **kwargs)
        if kwargs["fatol"] == 1e-10:  # the polish stage
            polished.append(res)
        return res

    monkeypatch.setattr(control.optimize, "minimize", recording)
    optimize_decoupling(pt, restarts=OPTIMIZER_RESTARTS, seed=plan.master_seed)
    assert polished
    assert all(res.success for res in polished), [res.nit for res in polished]


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def test_idle_negativity_matches_block_oracle():
    # {|++>,|-->} block evolution: negativity(t) = |sin((zeta - g) t)| / 2
    traj = simulate_trajectory(None, period_ns=500.0, horizon_ns=10_000.0)
    delta = khz_to_rad_per_ns(30.0) - khz_to_rad_per_ns(50.0)
    want = np.abs(np.sin(delta * traj.time_ns)) / 2.0
    assert np.allclose(traj.negativity, want, atol=1e-9)
    assert traj.negativity[5] > 0.1


def test_zero_coupling_trajectories_identical():
    idle = simulate_trajectory(None, exchange_khz=0.0, zz_khz=0.0)
    kicked = simulate_trajectory((rotation_gate("X", np.pi),),
                                 exchange_khz=0.0, zz_khz=0.0)
    for attr in ("negativity", "mutual_info_bits", "purity_q1", "purity_q2"):
        assert np.allclose(getattr(idle, attr), getattr(kicked, attr), atol=1e-12)


def test_decoupled_trajectory_beats_idle(dec_result):
    idle = simulate_trajectory(None)
    dec = simulate_trajectory((dec_result.gate,))
    assert idle.purity_q1.min() == pytest.approx(0.5, abs=1e-6)
    assert dec.purity_q1.min() >= idle.purity_q1.min() + 0.1
    assert dec.negativity.max() <= 0.5 * idle.negativity.max()


def test_xy4_reference_decouples():
    idle = simulate_trajectory(None)
    xy4 = simulate_trajectory(XY4_CYCLE, label="xy4")
    assert xy4.purity_q1.min() > idle.purity_q1.min() + 0.3
    assert xy4.label == "xy4"


@pytest.mark.parametrize("cycle", [None, XY4_CYCLE], ids=["idle", "xy4"])
def test_trajectory_series_equal_per_state_metrics(cycle):
    # the series are computed on the stacked states; each must equal the
    # metric of every state on its own
    traj = simulate_trajectory(cycle)
    v = interval_propagator(50.0, 30.0, 500.0)
    state = initial_joint_state("plus_plus")
    states = [state]
    for s in range(len(traj.time_ns) - 1):
        state = v @ state @ v.conj().T
        if cycle is not None:
            g = np.kron(cycle[s % len(cycle)], np.eye(2))
            state = g @ state @ g.conj().T
        states.append(state)
    assert np.array_equal(traj.negativity, [negativity(r) for r in states])
    assert np.array_equal(traj.mutual_info_bits,
                          [mutual_information_state(r) for r in states])
    assert np.array_equal(traj.purity_q1,
                          [purity(partial_trace(r, 0)) for r in states])
    assert np.array_equal(traj.purity_q2,
                          [purity(partial_trace(r, 1)) for r in states])


def test_trajectory_validation():
    with pytest.raises(ValueError, match="positive"):
        simulate_trajectory(None, period_ns=0.0)


# ---------------------------------------------------------------------------
# Targets and process tomography
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eta", [0.0, 0.1, 0.25, 0.4, 0.5])
def test_target_cptp_and_unitarity(eta):
    ch = nonunitary_target(0.9, eta)
    evals = np.linalg.eigvalsh(ch.choi)
    assert evals.min() > -1e-12
    want = (1.0 + 2.0 * (1.0 - 2.0 * eta) ** 2) / 3.0
    assert unitarity(ch) == pytest.approx(want, abs=1e-10)
    assert 1.0 / 3.0 - 1e-12 <= unitarity(ch) <= 1.0 + 1e-12


def test_target_unitarity_monotone_in_eta():
    vals = [unitarity(nonunitary_target(1.1, e)) for e in np.linspace(0, 0.5, 11)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_target_eta_validation():
    with pytest.raises(ValueError, match="eta"):
        nonunitary_target(1.0, 0.6)


def test_qpt_identity_no_coupling(free_model):
    ch = qpt(free_model, [np.eye(2, dtype=complex)])[0]
    assert np.allclose(ch.choi, channel_from_unitary(np.eye(2)).choi, atol=1e-9)


def test_qpt_known_unitary(free_model):
    g = haar_unitary(2, np.random.default_rng(21))
    ch = qpt(free_model, [g])[0]
    assert np.allclose(ch.choi, channel_from_unitary(g).choi, atol=1e-9)


def traced_channel_choi(model, gate):
    v1, v2 = model.intervals
    w = v2 @ np.kron(gate, np.eye(2, dtype=complex)) @ v1
    env = partial_trace(model.initial_se, 1)
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            out = partial_trace(w @ np.kron(unit, env) @ w.conj().T, 0)
            choi += np.kron(unit, out)
    return choi


def test_qpt_matches_traced_channel(syn_model):
    g = u3_matrix(0.8, 1.9, 4.2)
    ch = qpt(syn_model, [g])[0]
    assert np.allclose(ch.choi, traced_channel_choi(syn_model, g), atol=1e-7)


def test_qpt_sampled_is_physical_and_deterministic(syn_model):
    a = qpt(syn_model, [rotation_gate("Y", 1.0)], shots=2000, master_seed=5)[0]
    b = qpt(syn_model, [rotation_gate("Y", 1.0)], shots=2000, master_seed=5)[0]
    assert np.array_equal(a.choi, b.choi)
    evals = np.linalg.eigvalsh(a.choi)
    assert evals.min() > -1e-8


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def test_synthesis_tensor_predicts_held_out(syn_model, syn_pt):
    rng = np.random.default_rng(31)
    prep = haar_unitary(2, rng)
    gate = haar_unitary(2, rng)
    want = run_sequence(syn_model, (prep, gate))
    got = contract_fast(syn_pt, [prep, gate])
    assert np.allclose(got, want, atol=1e-9)


def test_synthesis_layout_guard(basis24):
    from proctensor.simulator import make_model
    with pytest.raises(ValueError, match="two control slots"):
        build_synthesis_tensor(make_model(steps=3), basis24)
    with pytest.raises(ValueError, match="two control slots"):
        qpt(make_model(steps=3), np.eye(2))


def test_loss_zero_for_realizable_target(free_pt):
    # no coupling: the layout realizes exactly the unitaries
    target = nonunitary_target(0.7, 0.0)
    res = synthesize_gates(free_pt, [target], restarts=4, seed=0)[0]
    assert res.loss < 1e-6


def test_loss_positive_for_unrealizable_target(free_pt):
    target = nonunitary_target(0.7, 0.3)
    res = synthesize_gates(free_pt, [target], restarts=4, seed=0)[0]
    assert res.loss > 0.1


def test_synthesize_unitary_no_coupling_fidelity(free_model, free_pt):
    target = nonunitary_target(1.3, 0.0)
    res = synthesize_gates(free_pt, [target], restarts=6, seed=0)[0]
    realized = qpt(free_model, [res.gate])[0]
    assert process_fidelity(realized, target) >= 1.0 - 1e-6


def test_synthesis_loss_matches_manual(syn_pt):
    x = np.array([0.4, 1.1, 2.7])
    kernel = synthesis_kernel(syn_pt, nonunitary_target(0.5, 0.2))
    val = synthesis_loss(kernel, [x])[0]
    assert val > 0.0
    assert synthesis_loss(kernel, [x])[0] == val


def test_synthesis_loss_is_the_same_float_for_any_angle_sequence(syn_pt):
    kernel = synthesis_kernel(syn_pt, nonunitary_target(0.5, 0.2))
    for x in np.random.default_rng(7).uniform(-7.0, 7.0, size=(10, 3)):
        want = np.float64(synthesis_loss(kernel, [x])[0]).tobytes()
        for angles in (x.tolist(), tuple(x.tolist()), list(x)):
            assert np.float64(synthesis_loss(kernel, [angles])[0]).tobytes() == want
    for bad in (math.inf, math.nan):
        assert math.isnan(synthesis_loss(kernel, [[0.4, bad, 2.7]])[0])
        assert math.isnan(synthesis_loss(kernel, [(bad, 1.1, 2.7)])[0])


@pytest.mark.parametrize("shots", [None, 1600])
def test_synthesis_loss_lanes_equal_the_scalar_oracle(shots):
    # every lane of one batched call must be the one-vector scalar loss,
    # bit for bit, against its own target; at 1600 shots some predictions
    # leave the Bloch ball and take the clip
    syn = build_synthesis_tensor(synthesis_model(), generate_haar_basis(10, 0),
                                 shots, 0)
    etas = (0.0, 0.2, 0.5)
    readout, blochs = synthesis_kernel(
        syn, *[nonunitary_target(0.5, eta) for eta in etas])
    rng = np.random.default_rng(11)
    xs = rng.uniform(-7.0, 7.0, size=(30, 3))
    lane_targets = [blochs[k % 3] for k in range(len(xs))]
    got = synthesis_loss((readout, lane_targets), xs)
    assert got.shape == (30,)
    for k, x in enumerate(xs):
        want = synthesis_loss_oracle((readout, [lane_targets[k]]), x)
        assert np.float64(got[k]).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan],
                         ids=["inf", "-inf", "nan"])
def test_non_finite_angle_leaves_the_other_lanes_alone(syn_pt, bad):
    kernel = synthesis_kernel(syn_pt, nonunitary_target(0.5, 0.2))
    xs = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, size=(5, 3))
    want = synthesis_loss((kernel[0], kernel[1] * 5), xs)
    xs[2, 1] = bad
    got = synthesis_loss((kernel[0], kernel[1] * 5), xs)
    assert math.isnan(got[2]) and not np.isnan(want).any()
    keep = [0, 1, 3, 4]
    assert got[keep].tobytes() == want[keep].tobytes()


def test_synthesis_sweep_equals_one_eta_sweeps(syn_model, syn_pt):
    # the lockstep over every eta and the stacked QPT must give, per eta,
    # the bits of a sweep over that eta alone with its own start stream
    etas = [0.05, 0.25, 0.5]
    joint = synthesis_sweep(syn_pt, syn_model, alpha=0.4, etas=etas,
                            restarts=3, seed=4, maxiter=200)
    for idx, (eta, got) in enumerate(zip(etas, joint, strict=True)):
        want, = synthesis_sweep(syn_pt, syn_model, alpha=0.4, etas=[eta],
                                restarts=3, seed=4 + idx, maxiter=200)
        for name in ("eta", "target_unitarity", "loss", "process_fidelity",
                     "realized_unitarity", "params"):
            assert np.asarray(getattr(got, name)).tobytes() \
                == np.asarray(getattr(want, name)).tobytes(), name


def test_synthesis_sweep_raises_when_one_eta_is_all_nan(syn_model, syn_pt,
                                                        monkeypatch):
    # every lane of the middle eta ends on NaN, the other lanes do not: the
    # sweep must fail as that eta's search alone does
    real = control.synthesis_loss
    nan_target = synthesis_kernel(syn_pt, nonunitary_target(0.4, 0.25))[1][0]

    def nan_lanes(kernel, xs):
        return np.where([t == nan_target for t in kernel[1]], np.nan,
                        real(kernel, xs))

    monkeypatch.setattr(control, "synthesis_loss", nan_lanes)
    with pytest.raises(NumericalError, match="synthesis search failed"):
        synthesis_sweep(syn_pt, syn_model, alpha=0.4, etas=[0.05, 0.25, 0.5],
                        restarts=2, seed=0, maxiter=50)
    assert synthesis_sweep(syn_pt, syn_model, alpha=0.4, etas=[0.05, 0.5],
                           restarts=2, seed=0, maxiter=50)


def test_synthesis_radial_clip_equals_step_oracle():
    # at 1600 shots the tensor predicts some outputs outside the Bloch ball;
    # the loss must clip them back as mle_project does
    syn = build_synthesis_tensor(synthesis_model(), generate_haar_basis(10, 0),
                                 1600, 0)
    target = nonunitary_target(0.4, 0.2)
    kernel = synthesis_kernel(syn, target)
    clipped = 0
    for x in np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=(8, 3)):
        preds = synthesis_predictions_via_steps(syn, x)
        clipped += any(np.linalg.norm(qubit_bloch(p / np.trace(p))) > 1.0
                       for p in preds)
        assert abs(synthesis_loss(kernel, [x])[0]
                   - synthesis_loss_via_steps(syn, x, target)) <= 1e-12
    assert clipped > 0


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("index", [0, 1, 2], ids=["theta", "phi", "lam"])
def test_non_finite_gate_angle_gives_nan(syn_pt, dec_pt, bad, index):
    x = np.array([0.4, 1.1, 2.7])
    x[index] = bad
    kernel = synthesis_kernel(syn_pt, nonunitary_target(0.5, 0.2))
    assert np.isnan(synthesis_loss(kernel, [x])[0])
    dec_kernel = decoupling_kernel(dec_pt)
    assert np.isnan(decoupling_objective(dec_kernel, x))
    assert np.isnan(restoration_error(dec_kernel, x, DECOUPLING_ENV_REF))


def test_optimize_decoupling_raises_when_every_start_is_nan(dec_pt):
    nan_tensor = replace(dec_pt, states=np.full_like(dec_pt.states, np.nan))
    with pytest.raises(NumericalError, match="every restart"):
        optimize_decoupling(nan_tensor, restarts=2, seed=0, maxiter=20)


def test_synthesize_gate_raises_when_every_start_is_nan(syn_pt):
    nan_tensor = replace(syn_pt, states=np.full_like(syn_pt.states, np.nan))
    with pytest.raises(NumericalError, match="every restart"):
        synthesize_gates(nan_tensor, [nonunitary_target(0.5, 0.2)],
                         restarts=2, seed=0, maxiter=20)


def test_synthesis_sweep_records(syn_model, syn_pt):
    etas = np.array([0.05, 0.25, 0.5])
    pts = synthesis_sweep(syn_pt, syn_model, alpha=0.4, etas=etas,
                          restarts=3, seed=0, maxiter=200)
    assert [p.eta for p in pts] == list(etas)
    for p in pts:
        want_u = (1.0 + 2.0 * (1.0 - 2.0 * p.eta) ** 2) / 3.0
        assert p.target_unitarity == pytest.approx(want_u, abs=1e-10)
        assert 0.0 <= p.process_fidelity <= 1.0
        assert p.loss >= 0.0
    # far-from-realizable targets score worse
    assert pts[0].process_fidelity > pts[-1].process_fidelity
    assert synthesis_sweep(syn_pt, syn_model, alpha=0.4, etas=[]) == []


ANGLE = st.floats(-2.0 * np.pi, 4.0 * np.pi)


@seed(20261018)
@settings(max_examples=15, deadline=None)
@given(pool_seed=st.integers(0, 2**32 - 1), pool=st.integers(10, 14),
       shots=st.sampled_from([None, 1600]),
       target=st.tuples(st.floats(0.0, 2.0 * np.pi), st.floats(0.0, 0.5)),
       angles=st.lists(st.tuples(ANGLE, ANGLE, ANGLE), min_size=1, max_size=8))
def test_objective_kernels_equal_step_oracles(pool_seed, pool, shots, target,
                                              angles):
    # each objective, evaluated on its search-fixed data, must give what the
    # per-call step list contracted through the tensor gives
    basis = generate_haar_basis(pool, pool_seed)
    syn = build_synthesis_tensor(synthesis_model(), basis, shots, pool_seed)
    channel = nonunitary_target(*target)
    kernel = synthesis_kernel(syn, channel)
    dec = build_decoupling_tensor(decoupling_model(), basis, shots, pool_seed)
    dec_kernel = decoupling_kernel(dec)
    env_ref = DECOUPLING_ENV_REF
    for x in angles:
        x = np.array(x)
        assert abs(synthesis_loss(kernel, [x])[0]
                   - synthesis_loss_via_steps(syn, x, channel)) <= 1e-12
        gate = u3_matrix(*x)
        assert abs(decoupling_objective(dec_kernel, x)
                   - decoupling_objective_via_steps(dec, gate)) <= 1e-12
        assert abs(restoration_error(dec_kernel, x, env_ref)
                   - restoration_error_via_steps(dec, gate, env_ref)) <= 1e-12
