import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy import optimize

from proctensor import control
from proctensor.control import (build_decoupling_tensor, build_synthesis_tensor,
                                decoupling_model, nonunitary_target,
                                optimize_decoupling, synthesis_model,
                                synthesize_gates)
from proctensor.harness import ALPHA_RANGE, load_plan
from proctensor.memory import barrier_placements, maximize_cmi
from proctensor.qcore import (
    HADAMARD,
    ID2,
    KET0,
    PAULI_MINUS,
    PAULI_PLUS,
    PAULI_X,
    PAULI_Y,
    PAULIS,
    NumericalError,
    QuantumChannel,
    apply_channel,
    channel_from_kraus,
    check_density_matrix,
    check_unitary,
    choi_to_superop,
    fidelity,
    ket_dm,
    lockstep,
    multistart,
    mutual_information_state,
    negativity,
    nelder_mead,
    partial_trace,
    pauli_transfer_matrix,
    process_fidelity,
    psd_sqrt,
    purity,
    rotation_axis_angle,
    rotation_gate,
    simplex_order,
    superop_to_choi,
    u3_entries,
    u3_matrix,
    unitarity,
    von_neumann_entropy,
)
from proctensor.simulator import rng_stream, simulate_experiment
from proctensor.tomography import build_standard_tensor, qst_mle, standard_slots

from helpers import (KET1, channel_from_unitary, identity_channel,
                     pauli_transfer_matrix_oracle, preparation_channel,
                     trace_distance)

QUICKSTART = Path(__file__).parents[1] / "plans" / "quickstart.json"


def random_density_matrix(rng, dim=2):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def random_pure_state(rng, dim=2):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v = v / np.linalg.norm(v)
    return ket_dm(v)


# ---------------------------------------------------------------------------
# scalar metrics
# ---------------------------------------------------------------------------

def test_purity_example():
    assert purity(np.diag([0.75, 0.25])) == pytest.approx(0.625, abs=1e-12)


def test_fidelity_pure_vs_maximally_mixed():
    assert fidelity(ket_dm(KET0), ID2 / 2) == pytest.approx(0.5, abs=1e-12)


def test_trace_distance_pure_vs_maximally_mixed():
    assert trace_distance(ket_dm(KET0), ID2 / 2) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_symmetric_and_unit_on_equal():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(ID2 / 2, np.eye(4) / 4)


def test_fuchs_van_de_graaf_bounds():
    # 1 - sqrt(F) <= D <= sqrt(1 - F) for all state pairs
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = random_density_matrix(rng)
        b = random_pure_state(rng) if rng.random() < 0.5 else random_density_matrix(rng)
        f = fidelity(a, b)
        d = trace_distance(a, b)
        assert 1.0 - np.sqrt(f) <= d + 1e-9
        assert d <= np.sqrt(1.0 - f) + 1e-9


def test_fidelity_rejects_materially_negative_input():
    bad = np.diag([1.2, -0.2])
    with pytest.raises(ValueError):
        fidelity(bad, ID2 / 2)


def test_entropy_and_mutual_information_classically_correlated():
    # (|00><00| + |11><11|)/2 carries exactly one bit of correlation
    rho = (np.kron(ket_dm(KET0), ket_dm(KET0)) + np.kron(ket_dm(KET1), ket_dm(KET1))) / 2
    assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)
    assert mutual_information_state(rho) == pytest.approx(1.0, abs=1e-10)


def test_mutual_information_rejects_unphysical():
    with pytest.raises(ValueError):
        mutual_information_state(np.diag([0.8, 0.4, -0.1, -0.1]))


def test_negativity_bell_pair():
    bell = ket_dm(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert negativity(bell) == pytest.approx(0.5, abs=1e-12)


def test_negativity_werner_boundary():
    # Oracle: partial transpose of W(p) = p|Phi+><Phi+| + (1-p) I/4 has
    # eigenvalues (1+p)/4 (x3) and (1-3p)/4, so negativity vanishes at p=1/3.
    bell = ket_dm(np.array([1, 0, 0, 1]) / np.sqrt(2))
    for p in (1 / 3, 0.2, 0.8):
        w = p * bell + (1 - p) * np.eye(4) / 4
        expected = max(0.0, -(1 - 3 * p) / 4)
        assert negativity(w) == pytest.approx(expected, abs=1e-12)


def test_negativity_requires_two_qubits():
    with pytest.raises(ValueError):
        negativity(ID2 / 2)


def test_partial_trace_product_and_entangled():
    rng = np.random.default_rng(3)
    a = random_density_matrix(rng)
    b = random_density_matrix(rng)
    joint = np.kron(a, b)
    assert np.allclose(partial_trace(joint, 0), a)
    assert np.allclose(partial_trace(joint, 1), b)
    bell = ket_dm(np.array([1, 0, 0, 1]) / np.sqrt(2))
    assert np.allclose(partial_trace(bell, 0), ID2 / 2)


def test_partial_trace_dimension_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, 2)
    with pytest.raises(ValueError):
        partial_trace(np.eye(6) / 6, 0)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def test_u3_special_points():
    assert np.allclose(u3_matrix(0, 0, 0), ID2)
    assert np.allclose(u3_matrix(np.pi, 0, np.pi), PAULI_X)
    assert np.allclose(u3_matrix(np.pi / 2, 0, np.pi), HADAMARD)


def test_u3_always_unitary():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        t, p, l = rng.uniform(0, 2 * np.pi, size=3)
        u = u3_matrix(t, p, l)
        assert np.max(np.abs(u.conj().T @ u - ID2)) < 1e-12


def test_rotation_gate_matches_expm():
    from scipy.linalg import expm

    for axis in ("X", "Y", "Z"):
        for angle in (0.3, 1.7, np.pi):
            direct = rotation_gate(axis, angle)
            ref = expm(-1j * angle * PAULIS[axis] / 2)
            assert np.allclose(direct, ref, atol=1e-12)


@pytest.mark.parametrize("u", [2.0 * ID2, np.full((2, 2), np.nan)],
                         ids=["scaled", "nan"])
def test_check_unitary_rejects_non_unitary(u):
    # a NaN deviation compares False against any tolerance
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(u)


def test_rotation_axis_angle_roundtrip():
    n, a = rotation_axis_angle(rotation_gate("X", 1.2))
    assert a == pytest.approx(1.2, abs=1e-10)
    assert np.allclose(n, [1, 0, 0], atol=1e-10)
    n, a = rotation_axis_angle(PAULI_Y)
    assert a == pytest.approx(np.pi, abs=1e-10)
    assert np.allclose(np.abs(n), [0, 1, 0], atol=1e-10)


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def test_unitary_channel_application_is_conjugation():
    rng = np.random.default_rng(23)
    for _ in range(10):
        t, p, l = rng.uniform(0, 2 * np.pi, size=3)
        u = u3_matrix(t, p, l)
        ch = channel_from_unitary(u)
        rho = random_density_matrix(rng)
        assert np.allclose(apply_channel(ch, rho), u @ rho @ u.conj().T, atol=1e-12)


def test_identity_channel_choi_trace():
    ch = identity_channel()
    assert ch.choi.trace() == pytest.approx(2.0)
    rho = random_density_matrix(np.random.default_rng(1))
    assert np.allclose(apply_channel(ch, rho), rho)


def test_choi_superop_roundtrip():
    rng = np.random.default_rng(29)
    for _ in range(5):
        ch = channel_from_unitary(u3_matrix(*rng.uniform(0, 2 * np.pi, size=3)))
        s = choi_to_superop(ch.choi)
        back = superop_to_choi(s)
        assert np.allclose(back, ch.choi, atol=1e-12)
        rho = random_density_matrix(rng)
        via_s = (s @ rho.reshape(4)).reshape(2, 2)
        assert np.allclose(via_s, apply_channel(ch, rho), atol=1e-12)


def test_kraus_channel_depolarizing():
    kraus = [PAULIS[p] / 2 for p in ("I", "X", "Y", "Z")]
    ch = channel_from_kraus(kraus)
    rng = np.random.default_rng(37)
    for _ in range(5):
        rho = random_density_matrix(rng)
        assert np.allclose(apply_channel(ch, rho), ID2 / 2, atol=1e-12)
    assert np.allclose(ch.choi, np.eye(4) / 2, atol=1e-12)


def test_preparation_channel_replaces_input():
    target = ket_dm((KET0 + 1j * KET1) / np.sqrt(2))
    ch = preparation_channel(target)
    rng = np.random.default_rng(41)
    for _ in range(5):
        assert np.allclose(apply_channel(ch, random_density_matrix(rng)), target)


def test_channel_validation_rejects_non_tp():
    with pytest.raises(ValueError):
        QuantumChannel(choi=np.eye(4))  # trace 4, blocks 2I


def test_channel_validation_rejects_non_cp():
    choi = channel_from_unitary(PAULI_X).choi - 0.5 * np.eye(4)
    with pytest.raises(ValueError):
        QuantumChannel(choi=choi)


# ---------------------------------------------------------------------------
# Pauli transfer matrix and unitarity
# ---------------------------------------------------------------------------

def test_ptm_identity():
    assert np.allclose(pauli_transfer_matrix(identity_channel()), np.eye(4), atol=1e-12)


def test_ptm_equals_per_entry_kron_oracle():
    # the constant Pauli operators give the per-call kron loop's bits
    rng = np.random.default_rng(20261020)
    channels = [identity_channel(), preparation_channel(random_density_matrix(rng))]
    for _ in range(6):
        kraus = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                 for _ in range(3)]
        norm = psd_sqrt(sum(k.conj().T @ k for k in kraus))
        inv = np.linalg.inv(norm)
        channels.append(channel_from_kraus([k @ inv for k in kraus]))
    for ch in channels:
        got = pauli_transfer_matrix(ch)
        want = pauli_transfer_matrix_oracle(ch)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_unitarity_unitary_channel_is_one():
    rng = np.random.default_rng(43)
    for _ in range(5):
        ch = channel_from_unitary(u3_matrix(*rng.uniform(0, 2 * np.pi, size=3)))
        assert unitarity(ch) == pytest.approx(1.0, abs=1e-10)


def test_unitarity_depolarizing_is_zero():
    ch = channel_from_kraus([PAULIS[p] / 2 for p in ("I", "X", "Y", "Z")])
    assert unitarity(ch) == pytest.approx(0.0, abs=1e-12)


def test_unitarity_pauli_mixture_one_third():
    # Oracle: for L = (E . E' + YE . E'Y)/2 the unital PTM block is
    # diag(0,1,0) @ R_E, whose squared Frobenius norm is a single unit row
    # of the rotation R_E, hence unitarity = 1/3 for every unitary E.
    rng = np.random.default_rng(47)
    for _ in range(5):
        e = u3_matrix(*rng.uniform(0, 2 * np.pi, size=3))
        ch = channel_from_kraus([e / np.sqrt(2), (PAULI_Y @ e) / np.sqrt(2)])
        assert unitarity(ch) == pytest.approx(1 / 3, abs=1e-10)


def test_process_fidelity_identity_and_orthogonal():
    ident = identity_channel()
    assert process_fidelity(ident, ident) == pytest.approx(1.0, abs=1e-12)
    x = channel_from_unitary(PAULI_X)
    assert process_fidelity(ident, x) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# measurement settings and validators
# ---------------------------------------------------------------------------

def test_pauli_settings_project_correctly():
    assert sorted(PAULI_PLUS) == sorted(PAULI_MINUS) == ["X", "Y", "Z"]
    for ax, plus in PAULI_PLUS.items():
        minus = PAULI_MINUS[ax]
        assert np.allclose(plus + minus, ID2)
        assert np.allclose(plus - minus, PAULIS[ax])
        assert np.allclose(plus @ plus, plus)
        assert np.allclose(minus @ minus, minus)


def test_check_density_matrix_rejects_subnormalized():
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.3, 0.3]))


def test_check_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))


# ---------------------------------------------------------------------------
# Nelder-Mead kernel: scipy's iterates, bit for bit
# ---------------------------------------------------------------------------

def _assert_same_search(fun, x0, options, got=None):
    # scipy's Nelder-Mead is the oracle; equal bytes, so NaN and -0.0 count
    want = optimize.minimize(fun, x0, method="Nelder-Mead", options=options)
    if got is None:
        got = optimize.minimize(fun, x0, method=nelder_mead, options=options)
    assert got.x.dtype == want.x.dtype and got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
    assert (got.nit, got.nfev, got.success, got.status) \
        == (want.nit, want.nfev, want.success, want.status)
    return got


def _synthetic_objective(kind, centre):
    def fun(x):
        value = float(np.sum((x - centre) ** 2))
        if kind == "plateau":  # rounding ties whole groups of vertices
            return round(value, 1)
        if kind == "floor":  # a clip at the minimum ties every vertex on it
            return max(value, 0.5)
        if kind == "nan_region":
            return math.nan if x[0] > centre[0] else value
        if kind == "all_nan":
            return math.nan
        return value
    return fun


@seed(20261019)
@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 9, 12]),
       kind=st.sampled_from(["bowl", "plateau", "floor", "nan_region",
                             "all_nan"]),
       maxiter=st.sampled_from([2, 15, 400]),
       xatol=st.sampled_from([1e-2, 1e-4, 1e-6]),
       fatol=st.sampled_from([1e-2, 1e-8, 1e-10]))
def test_nelder_mead_equals_scipy_on_synthetic_objectives(data, n, kind, maxiter,
                                                          xatol, fatol):
    entry = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    x0 = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
    centre = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                         max_size=n)))
    _assert_same_search(_synthetic_objective(kind, centre), x0,
                        {"maxiter": maxiter, "xatol": xatol, "fatol": fatol})


@pytest.mark.parametrize("size", [4, 13])
@pytest.mark.parametrize("kind", ["distinct", "ties", "signed_zeros", "nan"])
def test_simplex_order_equals_argsort(size, kind):
    # the sorted fast path must return np.argsort's own order, which is not
    # stable, whatever the values: ties and NaN take the argsort fallback
    rng = np.random.default_rng(size)
    for _ in range(200):
        f = rng.normal(size=size).tolist()
        if kind == "ties":
            for i in rng.choice(size, size=rng.integers(2, size + 1)):
                f[i] = f[0]
        elif kind == "signed_zeros":
            for i in rng.choice(size, size=3, replace=False):
                f[i] = float(rng.choice([0.0, -0.0]))
        elif kind == "nan":
            for i in rng.choice(size, size=rng.integers(1, 3), replace=False):
                f[i] = math.nan
        assert simplex_order(f) == np.argsort(f).tolist()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
def test_u3_entries_are_nan_where_an_angle_is_not_finite(bad):
    # an infinite theta makes math.cos raise; it must give NaN instead
    for index in range(3):
        x = [0.4, 1.1, 2.7]
        x[index] = bad
        got = u3_entries(*x)
        # theta enters all four entries, phi the second row, lam the second column
        nan_at = [(0, 1, 2, 3), (2, 3), (1, 3)][index]
        assert [cmath.isnan(e) for e in got] == [k in nan_at for k in range(4)]


def test_nelder_mead_stops_as_scipy_on_maxiter_and_tolerance():
    bowl = _synthetic_objective("bowl", np.array([0.3, -0.2, 0.1]))
    capped = _assert_same_search(bowl, np.zeros(3), {"maxiter": 10})
    assert (capped.status, capped.success, capped.nit) == (2, False, 10)
    done = _assert_same_search(bowl, np.zeros(3), {"maxiter": 400,
                                                   "xatol": 1e-6, "fatol": 1e-8})
    assert (done.status, done.success) == (0, True) and done.nit < 400
    lost = _assert_same_search(_synthetic_objective("all_nan", np.zeros(3)),
                               np.ones(3), {"maxiter": 50})
    assert np.isnan(lost.fun) and lost.status == 2
    # one vertex of the start simplex is NaN: fun is NaN, x the best vertex
    partial = _assert_same_search(
        _synthetic_objective("nan_region", np.zeros(3)), np.zeros(3),
        {"maxiter": 1})
    assert np.isnan(partial.fun) and partial.x.tolist() == [0.0, 0.0, 0.0]


def _lane_objective(kind, centre, scale):
    # a synthetic objective per lane: lanes differ in shape, scale and
    # NaN regions, so they finish at different steps
    fun = _synthetic_objective(kind, centre)
    return lambda x: scale * fun(x)


@seed(20261020)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.sampled_from([3, 9]),
       lanes=st.integers(1, 7), maxiter=st.sampled_from([2, 15, 400]),
       xatol=st.sampled_from([1e-2, 1e-6]), fatol=st.sampled_from([1e-2, 1e-8]))
def test_lockstep_lanes_equal_one_lane_runs(data, n, lanes, maxiter, xatol,
                                            fatol):
    # each lane must be the nelder_mead run of its own objective, bit for
    # bit, whatever the other lanes do and whenever they finish
    entry = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    kind = st.sampled_from(["bowl", "plateau", "floor", "nan_region", "all_nan"])
    starts, funs = [], []
    for _ in range(lanes):
        starts.append(np.array(data.draw(st.lists(entry, min_size=n,
                                                  max_size=n))))
        centre = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n,
                                             max_size=n)))
        funs.append(_lane_objective(data.draw(kind), centre,
                                    data.draw(st.sampled_from([1.0, 1e-3]))))
    calls = []

    def batch(xs, live):
        assert xs.shape == (len(live), n) and live == sorted(live)
        calls.append(len(live))
        return [funs[lane](x) for lane, x in zip(live, xs)]

    options = {"maxiter": maxiter, "xatol": xatol, "fatol": fatol}
    runs = lockstep(batch, starts, **options)
    assert len(runs) == lanes and calls[0] == lanes
    for x0, fun, got in zip(starts, funs, runs):
        want = nelder_mead(fun, x0, **options)
        assert got.x.tobytes() == want.x.tobytes()
        assert np.float64(got.fun).tobytes() == np.float64(want.fun).tobytes()
        assert (got.nit, got.nfev, got.success, got.status) \
            == (want.nit, want.nfev, want.success, want.status)
    # one call per round, each lane in the calls until its last evaluation
    assert sum(calls) == sum(res.nfev for res in runs)
    assert len(calls) == max(res.nfev for res in runs)


def test_lockstep_of_no_starts_is_empty():
    assert lockstep(lambda xs, lanes: [], [], maxiter=10) == []


def _stub_run(funs):
    """A search that returns the next of ``funs`` at each start, all starts
    in one call, and records the starts it was given."""
    starts = []

    def run(batch):
        first = len(starts)
        starts.extend(np.array(x0) for x0 in batch)
        return [optimize.OptimizeResult(x=np.array(x0), fun=funs[first + r])
                for r, x0 in enumerate(batch)]

    return run, starts


def test_multistart_runs_the_start_then_uniform_draws_in_order():
    run, starts = _stub_run([2.0, math.nan, 1.0, math.nan, 1.0])
    start = np.array([0.1, 0.2, 0.3, 0.4])
    runs, = multistart(run, start, [np.random.default_rng(7)], 5, "stub")
    draws = np.random.default_rng(7)
    want = [start] + [draws.uniform(0.0, 2.0 * np.pi, size=4) for _ in range(4)]
    assert len(starts) == 5
    for got, x0 in zip(starts, want):
        assert got.tolist() == x0.tolist()
    # the NaN runs are dropped, the rest keep their start order
    assert [res.fun for res in runs] == [2.0, 1.0, 1.0]
    assert [res.x.tolist() for res in runs] == [want[i].tolist() for i in (0, 2, 4)]


def test_multistart_groups_draw_from_their_own_generators():
    # one call runs every group's starts, group by group; each group keeps
    # its own non-NaN results in start order
    run, starts = _stub_run([3.0, math.nan, 1.0, math.nan, 2.0, 0.5])
    start = np.zeros(2)
    groups = multistart(run, start, [np.random.default_rng(1),
                                     np.random.default_rng(2)], 3, "stub")
    want = [x0 for seed in (1, 2) for rng in [np.random.default_rng(seed)]
            for x0 in [start] + [rng.uniform(0.0, 2.0 * np.pi, size=2)
                                 for _ in range(2)]]
    assert [x0.tolist() for x0 in starts] == [x0.tolist() for x0 in want]
    assert [[res.fun for res in runs] for runs in groups] == [[3.0, 1.0],
                                                             [2.0, 0.5]]


@pytest.mark.parametrize("restarts", [1, 0, -3])
def test_multistart_runs_at_least_once(restarts):
    run, starts = _stub_run([0.5])
    rng = np.random.default_rng(7)
    runs, = multistart(run, np.zeros(3), [rng], restarts, "stub")
    assert [res.fun for res in runs] == [0.5] and len(starts) == 1
    # no start was drawn
    assert rng.uniform() == np.random.default_rng(7).uniform()


def test_multistart_raises_when_every_run_is_nan():
    run, starts = _stub_run([math.nan] * 3)
    with pytest.raises(NumericalError, match="stub search failed on every restart"):
        multistart(run, np.zeros(3), [np.random.default_rng(7)], 3, "stub")
    assert len(starts) == 3
    # one group of NaN runs fails the call, whatever the other groups hold
    run, starts = _stub_run([1.0, 2.0, math.nan, math.nan])
    with pytest.raises(NumericalError, match="stub search failed"):
        multistart(run, np.zeros(3), [np.random.default_rng(7),
                                      np.random.default_rng(8)], 2, "stub")
    assert len(starts) == 4


@pytest.fixture(scope="module")
def quickstart_tensors():
    plan = load_plan(QUICKSTART)
    basis = plan.basis()
    counts = simulate_experiment(plan.model(), standard_slots(basis),
                                 plan.shots, plan.master_seed)
    standard = build_standard_tensor(qst_mle(counts, plan.shots), basis,
                                     plan.basis_size)
    decouple = build_decoupling_tensor(
        decoupling_model(plan.exchange_khz, plan.zz_khz), basis, plan.shots,
        plan.master_seed + 202)
    synthesis = build_synthesis_tensor(
        synthesis_model(plan.exchange_khz, plan.zz_khz), basis, plan.shots,
        plan.master_seed + 303)
    alpha = float(rng_stream(plan.master_seed, 606).uniform(*ALPHA_RANGE))
    return standard, decouple, synthesis, alpha


@seed(20261019)
@settings(max_examples=4, deadline=None)
@given(plan_seed=st.integers(0, 2**16), eta=st.floats(0.0, 0.5))
@pytest.mark.parametrize("search", ["memory", "decouple", "synthesize"])
def test_program_searches_equal_scipy(quickstart_tensors, search, plan_seed,
                                      eta):
    # every search the program makes, with its own objective, starts and
    # options, must return what scipy's Nelder-Mead returns; every lane of a
    # lockstep search, on that lane's one-row objective
    standard, decouple, synthesis, alpha = quickstart_tensors
    minimize, searches = optimize.minimize, []

    def recording(fun, x0, method, options):
        assert method is nelder_mead
        res = minimize(fun, x0, method=method, options=options)
        searches.append((fun, np.array(x0), options, res))
        return res

    def recording_lockstep(batch_fun, starts, **options):
        runs = lockstep(batch_fun, starts, **options)
        for lane, (x0, res) in enumerate(zip(starts, runs, strict=True)):
            searches.append((lambda x, lane=lane: batch_fun(x[None], [lane])[0],
                             np.array(x0), options, res))
        return runs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize, "minimize", recording)
        mp.setattr(control, "lockstep", recording_lockstep)
        if search == "memory":
            for placements in barrier_placements(standard.steps):
                maximize_cmi(standard, placements, restarts=2, seed=plan_seed)
        elif search == "decouple":
            optimize_decoupling(decouple, restarts=3, seed=plan_seed)
        else:
            synthesize_gates(synthesis, [nonunitary_target(alpha, eta)],
                             restarts=3, seed=plan_seed)
    assert searches
    for fun, x0, options, got in searches:
        _assert_same_search(fun, x0, options, got)
