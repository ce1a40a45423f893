"""Memory bounds: probe construction, mutual information, bootstrap."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from proctensor.basis import generate_haar_basis
from proctensor.memory import (
    BARRIER_FORM,
    CANONICAL_START,
    ENTROPY_FLOOR,
    MemoryInterval,
    barrier_placements,
    binary_channel_mi,
    bootstrap_cmi,
    cmi_kernel,
    cmi_value,
    maximize_cmi,
)
from proctensor.qcore import ID2, NumericalError, u3_matrix
from proctensor.simulator import make_model, rng_stream, simulate_experiment
from proctensor.tomography import (build_standard_tensor, qst_mle,
                                   standard_slots, step_matrix_form)

from helpers import (SWAP2, bootstrap_cmi_oracle, cmi_table_via_steps,
                     cmi_value_via_steps, exact_states, probe_forms)


CANON = CANONICAL_START[:9]  # the computational-basis probe, no filler


@pytest.fixture(scope="module")
def basis():
    return generate_haar_basis(12, seed=17)


@pytest.fixture(scope="module")
def swap_tensor(basis):
    # swap in, swap back, idle readout: one bit rides the environment
    model = make_model(intervals=(SWAP2, SWAP2, np.eye(4, dtype=complex)))
    return build_standard_tensor(exact_states(model, basis), basis, n=10)


@pytest.fixture(scope="module")
def reset_tensor(basis):
    model = make_model(steps=3, env_reset=True)
    return build_standard_tensor(exact_states(model, basis), basis, n=10)


def _h2(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


def test_binary_channel_mi_table():
    # the probability floor shaves ~1e-11 off the noiseless identity table
    assert binary_channel_mi(np.eye(2)) == pytest.approx(1.0, abs=1e-9)
    assert binary_channel_mi(np.full((2, 2), 0.5)) == pytest.approx(0.0, abs=1e-12)
    # symmetric bit flip: I = 1 - h2(p)
    for p in (0.1, 0.25, 0.4):
        table = np.array([[1 - p, p], [p, 1 - p]])
        assert binary_channel_mi(table) == pytest.approx(1.0 - _h2(p), abs=1e-12)


def test_binary_channel_mi_bounds_random():
    rng = rng_stream(51, 0)
    for _ in range(200):
        cond = rng.uniform(0.0, 1.0, size=(2, 2))
        v = binary_channel_mi(cond)
        assert 0.0 <= v <= 1.0


ANGLE = st.floats(-2.0 * np.pi, 4.0 * np.pi)


@seed(20261019)
@settings(max_examples=10, deadline=None)
@given(pool_seed=st.integers(0, 2**32 - 1), pool=st.integers(10, 14),
       shots=st.sampled_from([None, 1600]),
       probes=st.lists(st.lists(ANGLE, min_size=12, max_size=12),
                       min_size=1, max_size=4))
def test_cmi_kernel_equals_step_oracle(pool_seed, pool, shots, probes):
    # the kernel contracts the barriers once; each probe must then give what
    # its matrix forms (prep, barrier or filler per slot) contracted give
    enc, mid, last = probe_forms(3, CANON, (1,), 0)
    assert np.array_equal(enc, step_matrix_form(u3_matrix(*CANON[0:3]), "prep"))
    assert mid is BARRIER_FORM
    assert np.array_equal(last, step_matrix_form(ID2, "unitary"))
    enc, *rest = probe_forms(3, CANON, (1, 2), 1)
    assert np.array_equal(enc, step_matrix_form(u3_matrix(*CANON[3:6]), "prep"))
    assert all(form is BARRIER_FORM for form in rest)
    filled = np.concatenate([CANON, CANON[3:6]])  # the filler is enc1's gate
    assert np.array_equal(probe_forms(3, filled, (1,), 0)[2],
                          step_matrix_form(u3_matrix(*CANON[3:6]), "unitary"))
    basis = generate_haar_basis(pool, pool_seed)
    model = make_model(duration_ns=2500.0, env_init="plus")
    if shots is None:
        states = exact_states(model, basis)
    else:
        states = qst_mle(simulate_experiment(model, standard_slots(basis),
                                             shots, pool_seed), shots)
    pt = build_standard_tensor(states, basis, pool)
    for placements in ((1,), (2,), (1, 2)):
        kernel = cmi_kernel(pt, placements)
        assert kernel.shape == ((4, 4) if placements == (1, 2)
                                else (4, 4, 4, 4))
        for x in probes:
            for params in (np.array(x), np.array(x[:9])):
                assert abs(cmi_value(kernel, params)
                           - cmi_value_via_steps(pt, params, placements)) <= 1e-12


def test_placement_validation(swap_tensor):
    with pytest.raises(ValueError):
        cmi_kernel(swap_tensor, ())
    with pytest.raises(ValueError):
        cmi_kernel(swap_tensor, (0,))
    with pytest.raises(ValueError):
        cmi_kernel(swap_tensor, (3,))


def test_swap_chain_carries_one_bit_past_first_barrier(swap_tensor):
    # computational-basis probe: the bit swaps into the environment before
    # the barrier and swaps back after it, so it survives untouched
    assert cmi_value(cmi_kernel(swap_tensor, (1,)), CANON) > 1.0 - 1e-9
    # past the second barrier nothing survives: the wire is erased after
    # the bit has returned to the system
    assert cmi_value(cmi_kernel(swap_tensor, (2,)), CANON) < 1e-12
    assert cmi_value(cmi_kernel(swap_tensor, (1, 2)), CANON) < 1e-12


def test_maximize_cmi_swap_chain(swap_tensor):
    res = maximize_cmi(swap_tensor, (1,), restarts=2, seed=0, maxiter=150)
    assert res.bits > 1.0 - 1e-9
    assert res.params.shape == (12,)  # slot 2 is unbarred: it takes a filler
    res2 = maximize_cmi(swap_tensor, (2,), restarts=2, seed=0, maxiter=150)
    assert res2.bits < 1e-8


@pytest.mark.parametrize("params", [CANON, CANONICAL_START],
                         ids=["wait", "identity-filler"])
def test_entropy_floor_clamp_equals_step_oracle(swap_tensor, params):
    # the swap chain's computational-basis table is the identity, so its
    # zero entries are clamped to the floor before the logarithm
    assert cmi_table_via_steps(swap_tensor, params, (1,)).min() < ENTROPY_FLOOR
    assert abs(cmi_value(cmi_kernel(swap_tensor, (1,)), params)
               - cmi_value_via_steps(swap_tensor, params, (1,))) <= 1e-12


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan],
                         ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("index", [0, 4, 8, 9, 11],
                         ids=["enc0-theta", "enc1-phi", "decoder-lam",
                              "filler-theta", "filler-lam"])
def test_non_finite_probe_angle_gives_nan(swap_tensor, bad, index):
    x = CANONICAL_START.copy()  # with the identity filler
    x[index] = bad
    assert np.isnan(cmi_value(cmi_kernel(swap_tensor, (1,)), x))


def test_maximize_cmi_raises_when_every_start_is_nan(swap_tensor):
    nan_tensor = replace(swap_tensor,
                         states=np.full_like(swap_tensor.states, np.nan))
    with pytest.raises(NumericalError, match="every restart"):
        maximize_cmi(nan_tensor, (1,), restarts=2, seed=0, maxiter=20)


def test_markovian_surrogate_has_no_memory(reset_tensor):
    placements = barrier_placements(reset_tensor.steps)
    assert placements == ((1,), (2,), (1, 2))
    results = [maximize_cmi(reset_tensor, pl, restarts=2, seed=0)
               for pl in placements]
    for r in results:
        assert r.bits < 1e-8


def test_memory_grows_with_initial_env_coherence(basis):
    # same couplings and timing, environment started in |0> versus |+>;
    # the coherent start strictly helps the exchange write-out channel
    bounds = {}
    for env_init in ("zero", "plus"):
        model = make_model(steps=3, env_init=env_init, duration_ns=2500.0)
        pt = build_standard_tensor(exact_states(model, basis), basis, n=10)
        bounds[env_init] = maximize_cmi(pt, (1,), restarts=6, seed=0,
                                        maxiter=300).bits
    assert bounds["zero"] > 0.28
    assert bounds["plus"] > bounds["zero"] + 0.05


def test_cmi_deterministic(swap_tensor):
    a = maximize_cmi(swap_tensor, (1,), restarts=3, seed=4, maxiter=100)
    b = maximize_cmi(swap_tensor, (1,), restarts=3, seed=4, maxiter=100)
    assert a.bits == b.bits
    assert np.array_equal(a.params, b.params)


def test_bootstrap_cmi_exact_records(basis):
    model = make_model(intervals=(SWAP2, SWAP2, np.eye(4, dtype=complex)))
    counts = simulate_experiment(model, standard_slots(basis), None, 9)
    iv = bootstrap_cmi(counts, None, basis, n=10, placements=(1,),
                       params=CANON, resamples=20, seed=2)
    assert isinstance(iv, MemoryInterval)
    assert iv.point == pytest.approx(1.0, abs=1e-9)
    assert iv.hi - iv.lo < 1e-9
    assert iv.lo <= iv.point <= iv.hi + 1e-12


def test_bootstrap_cmi_markovian_contains_zero(basis):
    # reconstruct from the full pool: the overdetermined duals keep the
    # shot-noise amplification small enough for a tight zero interval
    model = make_model(steps=3, env_reset=True)
    counts = simulate_experiment(model, standard_slots(basis), 2000, 9)
    iv = bootstrap_cmi(counts, 2000, basis, n=12, placements=(1,),
                       params=CANON, resamples=50, seed=2)
    assert iv.lo == 0.0
    assert iv.point <= 0.01
    assert iv.hi <= 0.05
    iv2 = bootstrap_cmi(counts, 2000, basis, n=12, placements=(1,),
                        params=CANON, resamples=50, seed=2)
    assert (iv2.lo, iv2.hi, iv2.point) == (iv.lo, iv.hi, iv.point)


def _assert_bootstrap_cmi_equals_oracle(basis, shots, n, placements):
    # the redraw yields frequencies and bootstrap_cmi builds the states of
    # the n x n basis block alone, where the oracle converts the whole pool;
    # the binomials, the states and the interval must stay bit for bit
    model = make_model(duration_ns=2500.0, env_init="plus")
    counts = simulate_experiment(model, standard_slots(basis), shots, 3)
    iv = bootstrap_cmi(counts, shots, basis, n=n, placements=placements,
                       params=CANON, resamples=6, seed=11)
    want = bootstrap_cmi_oracle(counts, shots, basis, n, placements, CANON,
                                6, 11)
    got = np.array([iv.point, iv.lo, iv.hi])
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


@pytest.mark.parametrize("shots", [400, None])
@pytest.mark.parametrize("n, placements", [(10, (1,)), (12, (2,)),
                                           (11, (1, 2))])
def test_bootstrap_cmi_equals_complex_redraw_oracle(basis, shots, n,
                                                    placements):
    _assert_bootstrap_cmi_equals_oracle(basis, shots, n, placements)


@pytest.mark.parametrize("shots", [400, None])
@pytest.mark.parametrize("placements", [(1,), (1, 2)])
def test_bootstrap_cmi_equals_complex_redraw_oracle_at_full_survey_shape(
        shots, placements):
    # full_survey's pool 28 and basis size 24, where the whole pool holds
    # 36% more sequences than the block the tensor reads
    _assert_bootstrap_cmi_equals_oracle(generate_haar_basis(28, seed=17),
                                        shots, 24, placements)


def test_bootstrap_cmi_validates(basis):
    model = make_model(steps=3, env_reset=True)
    counts = simulate_experiment(model, standard_slots(basis), None, 9)
    for placements in ((0,), (3,), ()):
        with pytest.raises(ValueError, match="barrier"):
            bootstrap_cmi(counts, None, basis, n=10, placements=placements,
                          params=CANON, resamples=5, seed=0)
    with pytest.raises(ValueError, match="resamples"):
        bootstrap_cmi(counts, None, basis, n=10, placements=(1,),
                      params=CANON, resamples=1, seed=0)
