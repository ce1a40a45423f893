import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy.linalg import expm

from proctensor.basis import generate_haar_basis, standard_preparations
from proctensor.control import (build_decoupling_tensor,
                                build_synthesis_tensor, decoupling_model, qpt,
                                synthesis_model)
from proctensor.markov import estimate_step_channel
from proctensor.qcore import (
    HADAMARD,
    ID2,
    KET0,
    PAULI_X,
    UNITARY_TOL,
    apply_channel,
    channel_from_kraus,
    ket_dm,
    negativity,
    partial_trace,
    purity,
    u3_matrix,
)
from proctensor.simulator import (
    SEModel,
    draw_counts,
    env_initial_state,
    initial_joint_state,
    interval_propagator,
    khz_to_rad_per_ns,
    make_model,
    outcome_probabilities,
    PAIR_SETTINGS,
    draw_pair_counts,
    run_sequence,
    simulate_experiment,
    simulate_grid,
    stream_keys,
    two_qubit_probe,
)
from proctensor.tomography import (channel_from_prep_outputs, qst_mle,
                                   standard_slots)

from helpers import (SWAP2, draw_counts_oracle, exchange_zz_hamiltonian,
                     draw_pair_counts_oracle, experiment_oracle,
                     joint_state_oracle, measure_joint_state_oracle,
                     pair_expectations_exact, pair_probs_oracle, qst_oracle,
                     run_sequence_oracle, standard_sequence)


def probe(model, *gates):
    # one sequence as a grid of one gate per slot
    return two_qubit_probe(model, [(gate,) for gate in gates]).reshape(4, 4)


def make_decoupled_model(gates):
    # the neighbour never interacts: intervals act on the system alone
    return SEModel(intervals=tuple(np.kron(g, ID2) for g in gates),
                   initial_se=initial_joint_state("zero"))


def test_trivial_environment_matches_direct_composition():
    # Oracle: with a decoupled neighbour the process is just channel
    # composition.
    rng = np.random.default_rng(2)
    gates = [u3_matrix(*rng.uniform(0, 2 * np.pi, 3)) for _ in range(3)]
    controls = [u3_matrix(*rng.uniform(0, 2 * np.pi, 3)) for _ in range(3)]
    model = make_decoupled_model(gates)
    out = run_sequence(model, controls)

    rho = ket_dm(KET0)
    for c, g in zip(controls, gates):
        rho = c @ rho @ c.conj().T
        rho = g @ rho @ g.conj().T
    assert np.allclose(out, rho, atol=1e-12)


def test_x_gate_flips_ground_state():
    model = make_decoupled_model([ID2])
    out = run_sequence(model, (PAULI_X,))
    assert np.allclose(out, np.diag([0.0, 1.0]), atol=1e-12)


def test_swap_interval_exchanges_system_and_environment():
    model = SEModel(intervals=(SWAP2,), initial_se=initial_joint_state("zero"))
    out = run_sequence(model, (PAULI_X,))
    # the excitation moved to the environment, system reads |0>
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


def test_sequence_length_must_match_intervals():
    model = make_model(steps=3, duration_ns=144.0)
    with pytest.raises(ValueError):
        run_sequence(model, (ID2,))


def test_output_always_physical():
    rng = np.random.default_rng(9)
    model = make_model(steps=3, duration_ns=1000.0, env_init="bell")
    for _ in range(10):
        seq = tuple(u3_matrix(*rng.uniform(0, 2 * np.pi, 3)) for _ in range(3))
        out = run_sequence(model, seq)
        evals = np.linalg.eigvalsh(out)
        assert evals.min() > -1e-10
        assert out.trace().real == pytest.approx(1.0, abs=1e-10)


def test_env_reset_makes_process_composable():
    zero_env = env_initial_state("zero")
    model2 = make_model(steps=2, duration_ns=800.0, env_reset=True)
    g1 = u3_matrix(1.0, 0.3, 0.2)
    g2 = u3_matrix(0.4, 2.0, 1.1)
    joint = run_sequence(model2, (g1, g2))

    step_model = make_model(steps=1, duration_ns=800.0, env_reset=True)
    mid = run_sequence(step_model, (g1,))
    resumed = SEModel(intervals=step_model.intervals,
                      initial_se=np.kron(mid, zero_env), env_reset=True)
    final = run_sequence(resumed, (g2,))
    assert np.allclose(joint, final, atol=1e-12)


def test_meas_channel_composed_before_readout():
    noisy = channel_from_kraus(
        [np.sqrt(0.9) * ID2, np.sqrt(0.1) * PAULI_X])
    clean = make_model(steps=1, duration_ns=300.0)
    dirty = make_model(steps=1, duration_ns=300.0, meas_channel=noisy)
    seq = (HADAMARD,)
    assert np.allclose(run_sequence(dirty, seq),
                       apply_channel(noisy, run_sequence(clean, seq)), atol=1e-12)


def test_prep_step_acts_as_physical_gate_on_bell_state():
    # preparations are real gates: on a Bell pair they preserve correlations
    model = SEModel(intervals=(np.eye(4, dtype=complex),),
                    initial_se=initial_joint_state("bell"))
    joint = probe(model, PAULI_X)
    assert negativity(joint) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# probes and closed-form entanglement
# ---------------------------------------------------------------------------

def test_two_qubit_probe_zz_negativity_closed_form():
    # Oracle: under H = zeta ZZ/2 from |++>, the joint state stays in the
    # {|++>, |-->} block and negativity(t) = |sin(zeta t)| / 2.
    zz_khz = 30.0
    zeta = khz_to_rad_per_ns(zz_khz)
    for t_ns in (1000.0, 4000.0, 9000.0):
        model = make_model(steps=1, exchange_khz=0.0, zz_khz=zz_khz,
                           duration_ns=t_ns, env_init="plus_plus")
        joint = probe(model, ID2)
        assert negativity(joint) == pytest.approx(abs(np.sin(zeta * t_ns)) / 2, abs=1e-10)


def test_two_qubit_probe_exchange_zz_negativity_closed_form():
    # combined coupling: block dynamics give negativity |sin((zeta-g)t)|/2
    g_khz, zz_khz = 50.0, 30.0
    delta = khz_to_rad_per_ns(zz_khz) - khz_to_rad_per_ns(g_khz)
    t_ns = 6000.0
    model = make_model(steps=1, exchange_khz=g_khz, zz_khz=zz_khz,
                       duration_ns=t_ns, env_init="plus_plus")
    joint = probe(model, ID2)
    assert negativity(joint) == pytest.approx(abs(np.sin(delta * t_ns)) / 2, abs=1e-10)
    red_purity = 1.0 - np.sin(delta * t_ns) ** 2 / 2
    assert purity(partial_trace(joint, 0)) == pytest.approx(red_purity, abs=1e-10)


# ---------------------------------------------------------------------------
# grid kernel
# ---------------------------------------------------------------------------

def bits(a):
    return np.asarray(a, dtype=complex).view(np.int64)


@seed(20261018)
@settings(max_examples=10, deadline=None)
@given(pool=st.integers(10, 14), pool_seed=st.integers(0, 2**32 - 1),
       env_init=st.sampled_from(["zero", "plus", "bell"]),
       env_reset=st.booleans(), shots=st.sampled_from([1600, None]),
       duration_ns=st.floats(100.0, 3000.0), master_seed=st.integers(0, 99))
def test_grid_kernel_equals_per_sequence_oracle(pool, pool_seed, env_init,
                                                env_reset, shots, duration_ns,
                                                master_seed):
    # the stacked propagation shares prefixes across the grid; every state
    # and every drawn count must still be what one sequence at a time gives
    model = make_model(env_init=env_init, env_reset=env_reset,
                       duration_ns=duration_ns)
    basis = generate_haar_basis(pool, pool_seed)
    states = simulate_grid(model, standard_slots(basis))
    assert states.shape == (4, pool, pool, 2, 2)
    counts = simulate_experiment(model, standard_slots(basis), shots,
                                 master_seed)
    assert counts.shape == (4, pool, pool, 3, 2)
    keys = list(np.ndindex(4, pool, pool))
    for idx, (i, j, k) in enumerate(keys):
        want_state, want_counts = experiment_oracle(
            model, standard_sequence(basis, i, j, k), shots, master_seed, idx)
        assert np.array_equal(bits(states[i, j, k]), bits(want_state))
        assert np.array_equal(counts[i, j, k], want_counts)
    estimates = qst_mle(counts, shots)
    for i, j, k in keys[::7]:
        assert np.array_equal(bits(estimates[i, j, k]),
                              bits(qst_oracle(counts[i, j, k], shots)))


@seed(20261019)
@settings(max_examples=8, deadline=None)
@given(pool=st.integers(10, 14), pool_seed=st.integers(0, 2**32 - 1),
       shots=st.sampled_from([1600, None]), master_seed=st.integers(0, 99),
       record_base=st.integers(0, 200), exchange_khz=st.floats(10.0, 80.0))
def test_experiment_layouts_equal_per_sequence_oracle(pool, pool_seed, shots,
                                                      master_seed, record_base,
                                                      exchange_khz):
    # each builder makes one grid call; every estimated state must be what
    # one sequence, one record index and one QST at a time give
    basis = generate_haar_basis(pool, pool_seed)
    preps = standard_preparations()

    def estimate(model, seq, record):
        if shots is None:
            return run_sequence_oracle(model, seq)
        _, counts = experiment_oracle(model, seq, shots, master_seed, record)
        return qst_oracle(counts, shots)

    # synthesis: preparation slot x pool slot, two intervals
    syn = synthesis_model(exchange_khz=exchange_khz)
    got = build_synthesis_tensor(syn, basis, shots, master_seed).states
    for i, p in enumerate(preps):
        for nu, u in enumerate(basis.unitaries):
            seq = (p.gate, u)
            want = estimate(syn, seq, i * pool + nu)
            assert np.array_equal(bits(got[i, nu]), bits(want))
    # gate process tomography: four preparations x a stack of two gates,
    # preparation i and gate j on record 2 i + j
    gates = basis.unitaries[:2]
    outputs = [[estimate(syn, (p.gate, g), 2 * i + j)
                for i, p in enumerate(preps)] for j, g in enumerate(gates)]
    for got, want in zip(qpt(syn, gates, shots, master_seed),
                         channel_from_prep_outputs(np.array(outputs)),
                         strict=True):
        assert np.array_equal(bits(got.choi), bits(want.choi))
    # Markov step channels: single-interval sub-model, gate g and
    # preparation p on record record_base + 4 g + p
    model = make_model(exchange_khz=exchange_khz, env_init="plus")
    env = partial_trace(model.initial_se, 1)
    sub = SEModel(intervals=(model.intervals[1],),
                  initial_se=np.kron(ket_dm(KET0), env))
    gates = basis.unitaries[:2]
    got = estimate_step_channel(model, 1, gates, shots, master_seed,
                                record_base)
    assert got.shape == (2, 4, 4)
    for g, u in enumerate(gates):
        outputs = [estimate(sub, (u @ p.gate,),
                            record_base + 4 * g + r)
                   for r, p in enumerate(preps)]
        assert np.array_equal(
            bits(got[g]), bits(channel_from_prep_outputs(
                np.array(outputs)[None])[0].choi))
    # decoupling probe: the joint states of a one-slot grid
    dec = decoupling_model(exchange_khz=exchange_khz)
    joints = two_qubit_probe(dec, [basis.unitaries])
    for nu, u in enumerate(basis.unitaries):
        want = joint_state_oracle(dec, (u,))
        assert np.array_equal(bits(joints[nu]), bits(want))
    states = build_decoupling_tensor(dec, basis, shots, master_seed).states
    if shots is None:
        assert np.array_equal(bits(states), bits(joints))
    else:
        for nu, joint in enumerate(joints):
            _, want = measure_joint_state_oracle(joint, shots, master_seed, nu)
            assert np.array_equal(bits(states[nu]), bits(want))


def test_run_sequence_and_simulate_experiment_equal_the_oracle():
    # one gate per slot through the stacked propagation, including a
    # measurement channel and a random coupling with resets
    rng = np.random.default_rng(8)

    def gate():
        return u3_matrix(*rng.uniform(0, 2 * np.pi, 3))

    noisy = channel_from_kraus([np.sqrt(0.8) * ID2, np.sqrt(0.2) * PAULI_X])
    scrambled = SEModel(
        intervals=tuple(np.linalg.qr(rng.normal(size=(4, 4))
                                     + 1j * rng.normal(size=(4, 4)))[0]
                        for _ in range(3)),
        initial_se=np.eye(4, dtype=complex) / 4, env_reset=True)
    models = [make_model(env_init="bell", meas_channel=noisy), scrambled,
              make_model(env_init="plus", env_reset=True)]
    for model in models:
        seq = (gate(), gate(), gate())
        want_state, want_counts = experiment_oracle(model, seq, 1600, 4, 2)
        assert np.array_equal(bits(run_sequence(model, seq)), bits(want_state))
        counts = simulate_experiment(model, [(g,) for g in seq],
                                     1600, 4, first_record=2)
        assert np.array_equal(counts.reshape(3, 2), want_counts)


@pytest.mark.parametrize("fault, message", [
    (2.0, "trace"),  # a gate that is not unitary: not trace preserving
])
def test_grid_guard_rejects_nonphysical_states(fault, message):
    # a corrupted gate in one slot makes some grid states non-physical; the
    # guard must raise and name the first offending grid index. A gate's
    # conjugation keeps every state Hermitian and positive, so only the
    # trace can break; check_density_matrix's stack tests cover the rest
    model = make_model(env_init="plus")
    basis = generate_haar_basis(10, 3)
    preps, gates, _ = standard_slots(basis)
    bad = np.sqrt(fault) * gates[5]
    slots = (preps, gates, gates[:5] + (bad,) + gates[6:])
    where = r"simulated state \(\d+, \d+, 5\) "
    with pytest.raises(ValueError, match=where + ".*" + message):
        simulate_grid(model, slots)
    with pytest.raises(ValueError, match=message):
        run_sequence(model, (preps[0], gates[0], bad))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_counts_deterministic_per_stream():
    probs = outcome_probabilities(ket_dm(np.array([1.0, 1.0]) / np.sqrt(2)))
    a, b, c = draw_counts(np.array([probs] * 3), 1600, 7, [0, 0, 1])
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # each axis has its own stream
    assert a[0].tolist() == [1600, 0]
    assert not np.array_equal(a[1], a[2])


def test_sample_counts_matches_born_rule_at_large_shots():
    probs = outcome_probabilities(ket_dm(np.array([1.0, 1.0]) / np.sqrt(2)))
    shots = 1_000_000
    n_plus, n_minus = draw_counts(probs[None], shots, 3, [0])[0, 2]
    assert n_plus + n_minus == shots
    sigma = np.sqrt(0.25 / shots)
    assert abs(n_plus / shots - 0.5) < 3 * sigma


def test_sample_counts_rejects_zero_shots():
    with pytest.raises(ValueError):
        draw_counts(outcome_probabilities(ID2 / 2)[None], 0, 1, [0])
    with pytest.raises(ValueError, match="one record index per row"):
        draw_counts(outcome_probabilities(ID2 / 2)[None], 100, 1, [0, 1])


@pytest.mark.parametrize("master_seed", [0, 7, 2**32 + 7, 2**64 - 1, 3**90])
@pytest.mark.parametrize("n", [3, 9])
def test_stream_keys_equal_seed_sequence(master_seed, n):
    # 3**90 spans more than four 32-bit words, so some seed words are
    # mixed in after the pool
    records = [0, 1, 9407, 2**32 - 1]
    keys = stream_keys(master_seed, records, n)
    assert keys.shape == (len(records), n, 2) and keys.dtype == np.uint64
    for i, r in enumerate(records):
        for a in range(n):
            want = np.random.SeedSequence(master_seed, spawn_key=(r, a))
            assert np.array_equal(keys[i, a],
                                  want.generate_state(2, np.uint64)), (r, a)


@pytest.mark.parametrize("master_seed, record", [(0, -1), (0, 2**32),
                                                 (-1, 0)])
def test_stream_keys_reject_records_beyond_one_word(master_seed, record):
    # numpy hashes a record index of 2**32 or more as two words
    with pytest.raises(ValueError, match="non-negative seed and record"):
        stream_keys(master_seed, [0, record], 3)


@pytest.mark.parametrize("shots", [1, 1600, 1_000_000])
def test_draw_counts_equals_per_stream_oracle(shots):
    # p = 0 and 1 return early; 1e-3 and 0.999 take numpy's inversion
    # branch and 0.5 its BTPE branch (shots * min(p, 1 - p) > 30)
    probs = np.array([[0.0, 1.0, 1e-3], [0.5, 0.999, 0.5],
                      [1e-3, 0.0, 0.999], [0.999, 0.5, 1.0]])
    records = range(96, 96 + len(probs))  # as the Markov baseline's grid
    got = draw_counts(probs, shots, 13, records)
    assert got.dtype == np.int64
    assert np.array_equal(got, draw_counts_oracle(probs, shots, 13, records))


def test_draw_pair_counts_equals_per_stream_oracle():
    # diagonal joint states hold Dirichlet outcome probabilities on the ZZ
    # setting; the first is |00><00|, a one-hot setting
    diag = np.random.default_rng(8).dirichlet(np.ones(4), size=6)
    diag[0] = (1.0, 0.0, 0.0, 0.0)
    joints = np.array([np.diag(p).astype(complex) for p in diag])
    probs = np.array([[pair_probs_oracle(j, axes) for axes in PAIR_SETTINGS]
                      for j in joints])
    for shots in (1, 1600):
        assert np.array_equal(draw_pair_counts(joints, shots, 21),
                              draw_pair_counts_oracle(probs, shots, 21))


def test_draw_counts_empty_stack_keeps_shape():
    assert draw_counts(np.zeros((0, 3)), 100, 1, []).shape == (0, 3, 2)


def test_draw_pair_counts_empty_stack_keeps_shape():
    assert draw_pair_counts(np.zeros((0, 4, 4)), 100, 1).shape == (0, 9, 4)


def test_simulate_experiment_record_structure():
    # a grid's counts: [plus, minus] per sequence and axis, integers that
    # sum to the shots, drawn from the same streams on every call
    model = make_model(steps=1, duration_ns=144.0)
    slots = [(HADAMARD, ID2)]
    counts = simulate_experiment(model, slots, 1600, 11, first_record=4)
    assert counts.shape == (2, 3, 2)
    assert counts.dtype == np.int64
    assert np.all(counts.sum(axis=-1) == 1600)
    assert np.array_equal(counts, simulate_experiment(model, slots, 1600, 11,
                                                      first_record=4))
    # record index = first_record + grid position
    assert np.array_equal(counts[1], simulate_experiment(
        model, [slots[0][1:]], 1600, 11, first_record=5)[0])


def test_simulate_experiment_exact_mode():
    model = make_decoupled_model([ID2])
    counts = simulate_experiment(model, [(HADAMARD,)], None, 0)
    plus, minus = counts[0].T
    assert (plus - minus)[0] == pytest.approx(1.0, abs=1e-12)
    assert (plus - minus)[2] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(plus + minus, 1.0)


def test_pair_sampling_and_exact_expectations():
    bell = ket_dm(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    exact = pair_expectations_exact(bell)
    assert exact[("Z", "Z")] == pytest.approx(1.0)
    assert exact[("X", "X")] == pytest.approx(1.0)
    assert exact[("Y", "Y")] == pytest.approx(-1.0)
    counts = draw_pair_counts(bell[None], 4000, 5)
    assert counts.shape == (1, 9, 4)
    assert (counts.sum(axis=-1) == 4000).all()
    # perfectly correlated outcomes: only ++ and -- occur
    zz = counts[0, PAIR_SETTINGS.index(("Z", "Z"))]
    assert zz[1] == 0 and zz[2] == 0
    with pytest.raises(ValueError, match="shots must be positive"):
        draw_pair_counts(bell[None], 0, 5)


def test_model_validation_errors():
    with pytest.raises(ValueError):
        SEModel(intervals=(np.eye(6, dtype=complex),),
                initial_se=np.eye(6) / 6)
    with pytest.raises(ValueError, match="unknown environment"):
        initial_joint_state("ghz")


def test_interval_propagator_is_unitary():
    u = interval_propagator(50.0, 30.0, 144.0)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


@pytest.mark.parametrize("exchange_khz, zz_khz", [
    (50.0, 30.0), (0.0, 30.0), (50.0, 0.0), (0.0, 0.0), (120.0, 45.0)])
def test_interval_propagator_equals_expm(exchange_khz, zz_khz):
    h = exchange_zz_hamiltonian(exchange_khz, zz_khz)
    for t in (144.0, 256.0, 500.0, 800.0, 2500.0):
        u = interval_propagator(exchange_khz, zz_khz, t)
        assert np.max(np.abs(u - expm(-1j * h * t))) <= 1e-15, t


@pytest.mark.parametrize("exchange_khz, duration_ns", [
    (3e10, 256.0), (3e9, 800.0), (1e10, 500.0), (50.0, 1e12), (50.0, 1e200)])
def test_interval_propagator_is_unitary_at_large_phases(exchange_khz,
                                                        duration_ns):
    # a matrix exponential drifts from unitarity at these phases
    u = interval_propagator(exchange_khz, 30.0, duration_ns)
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= UNITARY_TOL
