"""The stacked qubit numerics equal their per-matrix forms bit for bit.

``mle_project`` and ``fidelity`` take one matrix or a ``(..., d, d)``
stack, and the grid stages call them once per grid. The bootstrap scores
every basis size of the evaluate ladder on one set of redraws, and the CPTP
projection runs on a stack of channels. The decoupling probe's pair
counts are drawn and estimated as one ``(N, 9, 4)`` array. The per-matrix,
per-record and per-size forms
they replace live in ``helpers`` as oracles; every stored number depends
on the two agreeing to the last bit, so values are compared as raw bits.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from proctensor import tomography
from proctensor.basis import (generate_haar_basis, haar_unitary,
                              standard_preparations)
from proctensor.markov import characterize, compare_with_tensor, predict
from proctensor.qcore import (
    ID2,
    PAULIS,
    NumericalError,
    PhysicalityError,
    channel_from_kraus,
    check_density_matrix,
    clamp_spectrum,
    fidelity,
    ket_dm,
    unitary_choi,
)
from proctensor.simulator import (PAIR_SETTINGS, draw_pair_counts, make_model,
                                  rng_stream, simulate_experiment)
from proctensor.tomography import (
    bootstrap_ci,
    build_standard_tensor,
    channel_from_prep_outputs,
    linear_inversion_qubit,
    mle_project,
    pair_qst_mle,
    pool_coefficients,
    predict_batch,
    predict_parts,
    prediction_fidelities,
    project_to_cptp,
    qst_mle,
    standard_slots,
)

from helpers import (bootstrap_ci_oracle, channel_from_prep_outputs_oracle,
                     fidelity_oracle, markov_predict_oracle,
                     measure_joint_state_oracle, mle_project_oracle,
                     predict_batch_oracle,
                     project_to_cptp_oracle, qst_oracle, qubit_probs_of)
from test_qcore import random_density_matrix

KINDS = ("indefinite", "sparse", "mixed", "pure", "diagonal")


def bits(a):
    """Raw bits of a complex or real array, for exact comparison."""
    return np.asarray(a).view(np.int64)


def _matrix(rng, d, kind):
    """A trace-one Hermitian d x d matrix of the given kind; all but
    "indefinite" and "sparse" are physical states."""
    if kind == "pure":  # rank one, some amplitudes exactly zero
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v[1:][rng.random(d - 1) < 0.3] = 0.0
        return ket_dm(v / np.linalg.norm(v))
    if kind == "mixed":
        return random_density_matrix(rng, d)
    if kind == "diagonal":  # exact zero eigenvalues
        p = rng.dirichlet(np.ones(d))
        p[1:][rng.random(d - 1) < 0.4] = 0.0
        return np.diag(p / p.sum()).astype(complex)
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if kind == "sparse":  # exact zero entries, mirrored
        h[np.triu(rng.random((d, d)) < 0.4, 1)] = 0.0
    h = np.tril(h, -1) + np.diag(h.diagonal().real)
    h = h + h.conj().T - np.diag(h.diagonal())
    return h + (1.0 - h.trace().real) / d * np.eye(d)  # negative eigenvalues


def _with_signed_zeros(rng, m):
    """Flip the sign of random real and imaginary parts that are exactly
    zero: the same matrix, written with -0.0."""
    parts = m.copy().view(np.float64)
    flip = (parts == 0.0) & (rng.random(parts.shape) < 0.5)
    parts[flip] = -0.0
    return parts.view(complex)


def _stack(rng, d, shape, kinds, signed_zeros):
    mats = np.empty(shape + (d, d), dtype=complex)
    for idx in np.ndindex(shape):
        m = _matrix(rng, d, kinds[rng.integers(len(kinds))])
        mats[idx] = _with_signed_zeros(rng, m) if signed_zeros else m
    return mats


stacks = dict(
    d=st.sampled_from([2, 4]),
    shape=st.sampled_from([(), (1,), (7,), (2, 3)]),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4, unique=True),
    signed_zeros=st.booleans(),
    draw_seed=st.integers(0, 2**32 - 1),
)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(**stacks)
def test_mle_project_equals_per_matrix_walk(d, shape, kinds, signed_zeros,
                                            draw_seed):
    rho = _stack(rng_stream(draw_seed, 0), d, shape, kinds, signed_zeros)
    got = mle_project(rho)
    assert got.shape == rho.shape
    for idx in np.ndindex(shape):
        want = mle_project_oracle(rho[idx])
        assert np.array_equal(bits(got[idx]), bits(want)), idx
        assert np.array_equal(bits(mle_project(rho[idx])), bits(want)), idx


def _outcome(project, rho):
    """The projection's raw bytes, or the type and message it raised."""
    try:
        with np.errstate(invalid="ignore"):
            return project(rho).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([2, 4]),
       kind=st.sampled_from(["indefinite", "pure", "diagonal", "real"]),
       signed_zeros=st.booleans(),
       nonfinite=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       draw_seed=st.integers(0, 2**32 - 1))
def test_mle_project_one_matrix_equals_stack_of_one(d, kind, signed_zeros,
                                                    nonfinite, draw_seed):
    # one matrix walks its spectrum on Python floats, a stack on arrays;
    # both must give the same bytes, sign of zero and NaN included
    rng = rng_stream(draw_seed, 2)
    rho = _matrix(rng, d, "indefinite" if kind == "real" else kind)
    if signed_zeros:
        rho = _with_signed_zeros(rng, rho)
    if kind == "real":  # a float array, which mle_project makes complex
        rho = rho.real.copy()
    if nonfinite is not None:
        rho[rng.integers(d), rng.integers(d)] = nonfinite
    assert _outcome(mle_project, rho) == \
        _outcome(lambda m: mle_project(m[None])[0], rho)


@pytest.mark.parametrize("d", [2, 4])
def test_mle_project_traceless_raises_alike_alone_and_stacked(d):
    rho = np.diag([0.5, -0.5, 0.25, -0.25][:d]).astype(complex)
    for m in (rho, _with_signed_zeros(rng_stream(0, 3), rho)):
        with pytest.raises(PhysicalityError) as alone:
            mle_project(m)
        with pytest.raises(PhysicalityError) as stacked:
            mle_project(m[None])
        assert str(alone.value) == "cannot project a traceless matrix"
        # the stack's message names the offending index, and only that
        assert str(stacked.value) == str(alone.value) + " (0,)"


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(**stacks)
def test_fidelity_equals_per_pair_form(d, shape, kinds, signed_zeros,
                                       draw_seed):
    rng = rng_stream(draw_seed, 1)
    physical = [k for k in kinds if k in ("mixed", "pure", "diagonal")] or ["pure"]
    a = _stack(rng, d, shape, physical, signed_zeros)
    b = _stack(rng, d, shape, physical, signed_zeros)
    if rng.random() < 0.3:
        b = a.copy()  # equal states: the fidelity clips at one
    got = fidelity(a, b)
    if shape == ():
        assert type(got) is float
    else:
        assert got.shape == shape
    got = np.asarray(got, dtype=float)
    for idx in np.ndindex(shape):
        want = fidelity_oracle(a[idx], b[idx])
        assert bits(got[idx]) == bits(np.float64(want)), idx
        assert bits(np.float64(fidelity(a[idx], b[idx]))) == \
            bits(np.float64(want)), idx


def test_fidelity_squares_like_the_scalar_form():
    # np.float64 ** 2 rounds through C pow, an array ** 2 as x * x; the two
    # differ in about one square in a thousand, so check a large stack
    rng = rng_stream(40, 0)
    a = _stack(rng, 2, (4000,), ["mixed"], False)
    b = _stack(rng, 2, (4000,), ["mixed", "pure"], False)
    want = np.array([fidelity_oracle(x, y) for x, y in zip(a, b)])
    assert np.array_equal(bits(fidelity(a, b)), bits(want))


@pytest.mark.parametrize("shots", [1600, None])
def test_qst_mle_equals_per_sequence_loop(shots):
    rng = rng_stream(41, 0)
    shape = (3, 5, 4, 3)
    if shots is None:
        plus = rng.uniform(-0.1, 1.1, size=shape)  # outside the ball too
        counts = np.stack([plus, 1.0 - plus], axis=-1)
        # exact expectations (+1, -1, +0.0), (-0.0, +0.0, -1), (-0.0, -0.0, 1)
        counts[0, 1, :3] = [[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                            [[-0.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
                            [[-0.0, 0.0], [-0.0, 0.0], [1.0, 0.0]]]
    else:
        plus = rng.integers(0, shots + 1, size=shape)
        plus[0, 0, 0] = (shots, shots, shots)  # far outside the Bloch ball
        plus[0, 0, 1] = (0, shots // 2, shots)
        plus[0, 0, 2] = (shots, 0, shots // 2)  # +1, -1, 0
        counts = np.stack([plus, shots - plus], axis=-1)
    got = qst_mle(counts, shots)
    assert got.shape == shape[:-1] + (2, 2)
    for idx in np.ndindex(shape[:-1]):
        assert np.array_equal(bits(got[idx]), bits(qst_oracle(counts[idx], shots)))


def test_linear_inversion_equals_pauli_sum():
    # the builder writes the four entries of (I + xX + yY + zZ)/2: the Pauli
    # sum's matrices (a zero's sign aside) and mle_project's bits, alone and
    # stacked, at exact +-1 and +-0.0 components, outside the Bloch ball and
    # on a pool-28 grid of sampled expectations
    vals = [-1.5, -1.0, -0.7, -0.0, 0.0, 0.3, 1.0, 1.2]
    special = np.array(list(product(vals, repeat=3)))
    plus = rng_stream(42, 0).integers(0, 1601, size=(4 * 28 * 28, 3))
    ex = np.concatenate([special, (plus - (1600 - plus)) / 1600])
    x, y, z = (v[:, None, None] for v in ex.T)
    want = 0.5 * (ID2 + x * PAULIS["X"] + y * PAULIS["Y"] + z * PAULIS["Z"])
    got = linear_inversion_qubit(*ex.T)
    assert np.array_equal(got, want)
    assert np.array_equal(bits(mle_project(got)), bits(mle_project(want)))
    for g, w in zip(got[:len(special)], want):
        assert np.array_equal(bits(mle_project(g)), bits(mle_project(w)))


@seed(20261022)
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12),
       kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4,
                      unique=True),
       shots=st.sampled_from([1, 7, 400, 1600, 100_000]),
       master_seed=st.integers(0, 2**32 - 1),
       draw_seed=st.integers(0, 2**32 - 1))
def test_pair_readout_equals_per_record_oracle(n, kinds, shots, master_seed,
                                               draw_seed):
    # one multinomial per (record, setting) in record order, then one
    # stacked two-qubit QST: the per-record dict path, bit for bit
    joints = _stack(rng_stream(draw_seed, 2), 4, (n,), kinds, False)
    counts = draw_pair_counts(joints, shots, master_seed)
    assert counts.shape == (n, 9, 4) and counts.dtype == np.int64
    states = pair_qst_mle(counts)
    for r, joint in enumerate(joints):
        want_counts, want = measure_joint_state_oracle(joint, shots,
                                                       master_seed, r)
        assert np.array_equal(counts[r], [want_counts[axes]
                                          for axes in PAIR_SETTINGS]), r
        assert np.array_equal(bits(states[r]), bits(want)), r


@pytest.fixture(scope="module")
def sampled_grid():
    """A 1600-shot standard grid and its QST states (pool 14)."""
    model = make_model(steps=3, duration_ns=2500.0, env_init="plus")
    basis = generate_haar_basis(14, seed=17)
    counts = simulate_experiment(model, standard_slots(basis), 1600, 3)
    return model, basis, qst_mle(counts, 1600)


@pytest.mark.parametrize("n", [10, 12])
def test_prediction_fidelities_equal_per_key_loop(sampled_grid, n):
    # the grid prediction kernel has its own oracle test; its output is the
    # input here, and each key is projected and scored one at a time
    _, basis, states = sampled_grid
    pt = build_standard_tensor(states, basis, n)
    for m in (basis.size - n, basis.size):
        got = prediction_fidelities(pt, basis, states, m)
        assert got.shape == (4, m, m)
        rows = range(basis.size - m, basis.size)
        preds = predict_batch(pt, pool_coefficients(
            pt.slots[1], pt.duals[1], basis.unitaries[basis.size - m:]))
        want = np.empty(got.shape)
        for i, j, k in np.ndindex(got.shape):
            measured = states[i, rows[j], rows[k]]
            check_density_matrix(measured)
            want[i, j, k] = fidelity_oracle(mle_project_oracle(preds[i, j, k]),
                                            measured)
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("master_seed", [0, 1, 2])
def test_compare_with_tensor_equals_per_key_loop(sampled_grid, master_seed):
    model, basis, states = sampled_grid
    mb = characterize(model, basis, shots=1600, master_seed=master_seed)
    for m in (basis.size - 8, basis.size):
        cmp_ = compare_with_tensor(np.ones((4, m, m)), states, mb)
        preds = predict(mb, m)
        assert preds.shape == (4, m, m, 2, 2)
        for i, j, k in np.ndindex(4, m, m):
            key = (i, basis.size - m + j, basis.size - m + k)
            want = markov_predict_oracle(mb, *key)
            assert np.array_equal(bits(preds[i, j, k]), bits(want)), key
            assert bits(cmp_.markov_fids[i, j, k]) == \
                bits(np.float64(fidelity_oracle(want, states[key]))), key


# ---------------------------------------------------------------------------
# the evaluate ladder's bootstrap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shots", [400, None])
@pytest.mark.parametrize("chunk, resamples", [(1, 5), (2, 5), (3, 7), (4, 9),
                                              (64, 6)])
@seed(20261020)
@settings(max_examples=3, deadline=None)
@given(pool_seed=st.integers(0, 2**32 - 1), pool=st.integers(11, 14),
       data=st.data())
def test_bootstrap_ladder_equals_per_size_oracle(shots, chunk, resamples,
                                                 pool_seed, pool, data):
    # chunks of 1, 2, 3 and 4 resamples leave a partial last chunk; 64 takes
    # every resample at once
    basis = generate_haar_basis(pool, pool_seed)
    counts = simulate_experiment(make_model(steps=3), standard_slots(basis),
                                 shots, pool_seed % 1000)
    ladder = list(range(10, pool))
    sizes = data.draw(st.lists(st.sampled_from(ladder), min_size=1,
                               unique=True).map(sorted), label="sizes")
    # one redrawn grid, four real parts per sequence
    grid_bytes = np.prod(counts.shape[:-2]) * 4 * 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tomography, "BOOTSTRAP_CHUNK_BYTES", chunk * grid_bytes)
        lo, hi, sampled = bootstrap_ci(counts, shots, basis, sizes,
                                       resamples=resamples, seed=pool_seed)
        # a resumed ladder scores a subset of the sizes on the same redraws
        full = bootstrap_ci(counts, shots, basis, ladder, resamples=resamples,
                            seed=pool_seed)
    assert lo.shape == hi.shape == (len(sizes),)
    assert sampled.shape == (len(sizes), resamples)
    for s, n in enumerate(sizes):
        want_lo, want_hi, want = bootstrap_ci_oracle(counts, shots, basis, n,
                                                     resamples, pool_seed)
        assert np.array_equal(bits(sampled[s]), bits(want)), n
        assert bits(lo[s]) == bits(np.float64(want_lo)), n
        assert bits(hi[s]) == bits(np.float64(want_hi)), n
        row = ladder.index(n)
        assert np.array_equal(bits(full[2][row]), bits(want)), n
        assert bits(full[0][row]) == bits(lo[s]), n
        assert bits(full[1][row]) == bits(hi[s]), n


def real_parts(states):
    """Re rho00, Re rho11, Re rho10 and Im rho10 of (..., 2, 2) matrices."""
    return (states[..., 0, 0].real, states[..., 1, 1].real,
            states[..., 1, 0].real, states[..., 1, 0].imag)


@st.composite
def prediction_shapes(draw):
    """(pool, n, held_out): the held-out block of an n-element tensor,
    m = pool - n, or the Markov stage's whole pool, m = pool, where n may
    be the pool itself."""
    pool = draw(st.integers(11, 16))
    held_out = draw(st.booleans())
    n = draw(st.integers(10, pool - 1 if held_out else pool))
    return pool, n, held_out


@seed(20261021)
@settings(max_examples=8, deadline=None)
@example(pool_seed=7, shape=(28, 24, False), lead=())  # Markov at 28, n = 24
@given(pool_seed=st.integers(0, 2**32 - 1), shape=prediction_shapes(),
       lead=st.sampled_from([(), (1,), (3,), (2, 2)]))
def test_predict_parts_equals_oracle_components(pool_seed, shape, lead):
    # the bootstrap predicts four real parts of each state; each must equal
    # the matching part of the complex prediction, signed zeros included
    pool, n, held_out = shape
    basis = generate_haar_basis(pool, pool_seed)
    rng = rng_stream(pool_seed, 5)
    raw = rng.standard_normal(lead + (4, pool, pool, 2, 2, 2))
    raw[rng.random(raw.shape) < 0.1] = 0.0
    raw[rng.random(raw.shape) < 0.1] = -0.0
    states = raw.view(complex)[..., 0]
    pt = build_standard_tensor(np.zeros((4, pool, pool, 2, 2)), basis, n)
    coeffs = pool_coefficients(pt.slots[1], pt.duals[1],
                               basis.unitaries[n if held_out else 0:])
    m = len(coeffs)
    parts = np.stack(real_parts(states), axis=-1)
    got = predict_parts(parts[..., :n, :n, :], coeffs)
    assert got.shape == lead + (4, 4, m, m)
    for idx in np.ndindex(lead):
        want = predict_batch_oracle(states[idx][:, :n, :n], coeffs)
        want = np.stack(real_parts(want), axis=1)  # (P, 4, m, m)
        assert np.array_equal(bits(got[idx]), bits(want)), idx


def test_predict_batch_with_leading_axes_equals_each_tensor(sampled_grid):
    _, basis, states = sampled_grid
    n = 10
    pt = build_standard_tensor(states, basis, n)
    coeffs = pool_coefficients(pt.slots[1], pt.duals[1], basis.unitaries[n:])
    stack = np.stack([states, states[:, ::-1, ::-1], states[:, :, ::-1]])
    got = predict_batch(replace(pt, states=stack[:, :, :n, :n]), coeffs)
    assert got.shape == (3, 4, basis.size - n, basis.size - n, 2, 2)
    for b in range(3):
        want = predict_batch_oracle(stack[b, :, :n, :n], coeffs)
        assert np.array_equal(bits(got[b]), bits(want)), b


# ---------------------------------------------------------------------------
# stacked process tomography and CPTP projection
# ---------------------------------------------------------------------------

CHANNEL_KINDS = ("unitary", "identity", "depolarizing", "kraus", "noisy")


def _choi(rng, kind):
    """A qubit Choi matrix: CPTP for every kind but "noisy", which is a
    unitary channel plus Hermitian noise, the way linear inversion of
    sampled outputs leaves it."""
    if kind == "identity":  # exact zeros and ones
        return unitary_choi(np.eye(2, dtype=complex))
    if kind == "depolarizing":
        return np.eye(4, dtype=complex) / 2.0
    if kind == "kraus":
        gs = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        evals, vecs = np.linalg.eigh(sum(g.conj().T @ g for g in gs))
        inv_sqrt = (vecs / np.sqrt(evals)) @ vecs.conj().T
        return channel_from_kraus([g @ inv_sqrt for g in gs]).choi
    choi = unitary_choi(haar_unitary(2, rng))
    if kind == "noisy":
        noise = rng.normal(size=(4, 4), scale=0.03) \
            + 1j * rng.normal(size=(4, 4), scale=0.03)
        choi = choi + (noise + noise.conj().T) / 2.0
    return choi


@seed(20261021)
@settings(max_examples=12, deadline=None)
@given(g=st.sampled_from([1, 7, 28]), draw_seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(CHANNEL_KINDS), min_size=1, max_size=5,
                      unique=True))
def test_project_to_cptp_stack_equals_per_matrix_oracle(g, draw_seed, kinds):
    rng = rng_stream(draw_seed, 0)
    # every stack of more than one matrix mixes CPTP and noisy inputs
    picks = [kinds[rng.integers(len(kinds))] for _ in range(g)]
    if g > 1:
        picks[:2] = ["noisy", "unitary"]
    chois = np.array([_choi(rng, kind) for kind in picks])
    got = project_to_cptp(chois)
    assert got.shape == (g, 4, 4)
    for i, choi in enumerate(chois):
        assert np.array_equal(bits(got[i]), bits(project_to_cptp_oracle(choi))), \
            (i, picks[i])


@pytest.mark.parametrize("g", [1, 7])
def test_channel_from_prep_outputs_stack_equals_per_channel_oracle(g):
    rng = rng_stream(5, g)
    preps = np.array([p.state for p in standard_preparations()])
    exact = np.array([[u @ rho @ u.conj().T for rho in preps]
                      for u in (haar_unitary(2, rng) for _ in range(g))])
    # odd channels get 400-shot estimates, whose solved maps are not CP
    plus = rng.binomial(400, qubit_probs_of(exact))
    sampled = qst_mle(np.stack([plus, 400 - plus], axis=-1), 400)
    outputs = np.where((np.arange(g) % 2 == 1)[:, None, None, None],
                       sampled, exact)
    channels = channel_from_prep_outputs(outputs)
    assert len(channels) == g
    for i, ch in enumerate(channels):
        assert np.array_equal(bits(ch.choi),
                              bits(channel_from_prep_outputs_oracle(outputs[i])))


# ---------------------------------------------------------------------------
# physicality guards
# ---------------------------------------------------------------------------

def test_physicality_error_is_numerical_and_value_error():
    assert issubclass(PhysicalityError, NumericalError)
    assert issubclass(PhysicalityError, ValueError)


def test_stacked_guards_name_the_offending_index():
    states = np.broadcast_to(np.eye(2, dtype=complex) / 2, (2, 3, 2, 2)).copy()
    bad = states.copy()
    bad[1, 2] = [[0.5, 0.0], [0.0, -0.5]]  # traceless
    with pytest.raises(PhysicalityError, match=r"traceless matrix \(1, 2\)"):
        mle_project(bad)
    bad[1, 2] = np.diag([0.3, 0.3])
    with pytest.raises(PhysicalityError, match=r"state \(1, 2\) trace 0.6"):
        check_density_matrix(bad)
    spectra = np.full((4, 2), 0.5)
    spectra[3] = (1.2, -0.2)
    with pytest.raises(PhysicalityError, match=r"\(3,\) eigenvalue -2"):
        clamp_spectrum(spectra)
    neg = states.copy()
    neg[0, 1] = np.diag([1.2, -0.2])
    with pytest.raises(PhysicalityError, match=r"state a \(0, 1\)"):
        fidelity(neg, states)
    # a single matrix names no index
    with pytest.raises(PhysicalityError, match="^cannot project a traceless matrix$"):
        mle_project(np.diag([0.5, -0.5]))
