"""Composable-channel baseline: estimation, prediction, comparison."""

import numpy as np
import pytest

from proctensor.basis import generate_haar_basis
from proctensor.markov import (
    bootstrap_median_ci,
    characterize,
    compare_with_tensor,
    estimate_step_channel,
    predict,
)
from proctensor.qcore import (
    check_density_matrix,
    partial_trace,
)
from proctensor.simulator import make_model, rng_stream
from proctensor.tomography import evaluate_split

from helpers import exact_states, identity_channel, intervals_overlap


@pytest.fixture(scope="module")
def basis():
    return generate_haar_basis(12, seed=17)


def _direct_step_choi(model, interval, gate):
    """Definition of the per-step channel, evaluated on matrix units."""
    v = model.intervals[interval]
    rho_e = partial_trace(model.initial_se, 1)
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            joint = np.kron(gate @ unit @ gate.conj().T, rho_e)
            out = partial_trace(v @ joint @ v.conj().T, 0)
            block = np.zeros((2, 2), dtype=complex)
            block[i, j] = 1.0
            choi += np.kron(block, out)
    return choi


def test_channel_estimation_matches_definition(basis):
    model = make_model(steps=3, duration_ns=2500.0)
    for interval, gate in [(0, np.eye(2, dtype=complex)), (1, basis.unitaries[3])]:
        est = estimate_step_channel(model, interval, [gate], shots=None,
                                    master_seed=0)
        want = _direct_step_choi(model, interval, gate)
        assert np.max(np.abs(est[0] - want)) < 1e-7


def test_estimation_with_env_marginal_of_correlated_start(basis):
    # a Bell start has a maximally mixed environment marginal, and the
    # estimated channel must be built on that marginal
    model = make_model(steps=3, env_init="bell", duration_ns=2500.0)
    est = estimate_step_channel(model, 1, basis.unitaries[:1], shots=None,
                                master_seed=0)
    want = _direct_step_choi(model, 1, basis.unitaries[0])
    assert np.max(np.abs(est[0] - want)) < 1e-7


def test_markovian_surrogate_composes_exactly(basis):
    model = make_model(steps=3, env_reset=True, duration_ns=2500.0)
    states = exact_states(model, basis)
    ev = evaluate_split(states, basis, n=10)
    mb = characterize(model, basis, shots=None, master_seed=1)
    cmp_ = compare_with_tensor(ev.fidelities, states, mb)
    assert cmp_.markov_fids.min() > 1.0 - 1e-9
    assert abs(cmp_.median_gap) < 1e-9


def test_coupled_surrogate_breaks_composition(basis):
    model = make_model(steps=3, duration_ns=2500.0)
    states = exact_states(model, basis)
    ev = evaluate_split(states, basis, n=10)
    mb = characterize(model, basis, shots=None, master_seed=1)
    cmp_ = compare_with_tensor(ev.fidelities, states, mb)
    assert cmp_.tensor_stats.median > 1.0 - 1e-9
    assert cmp_.markov_stats.median < 0.95
    assert cmp_.median_gap > 0.05
    ci_t = bootstrap_median_ci(cmp_.tensor_fids, resamples=300, seed=3)
    ci_m = bootstrap_median_ci(cmp_.markov_fids, resamples=300, seed=3)
    assert not intervals_overlap(ci_t, ci_m)


def test_predictions_are_physical(basis):
    model = make_model(steps=3, duration_ns=2500.0)
    mb = characterize(model, basis, shots=None, master_seed=1)
    preds = predict(mb, basis.size)
    assert preds.shape == (4, 12, 12, 2, 2)
    check_density_matrix(preds)


def test_characterize_deterministic_with_shots():
    model = make_model(steps=3, duration_ns=2500.0)
    basis = generate_haar_basis(3, seed=17)  # the fixture's first 3 gates
    a = characterize(model, basis, shots=300, master_seed=5)
    b = characterize(model, basis, shots=300, master_seed=5)
    assert [c.shape for c in a.chois] == [(1, 4, 4), (3, 4, 4), (3, 4, 4)]
    for choi_a, choi_b in zip(a.chois, b.chois):
        assert np.array_equal(choi_a, choi_b)
    c = characterize(model, basis, shots=300, master_seed=6)
    assert any(not np.allclose(choi_a, choi_c, atol=1e-6)
               for choi_a, choi_c in zip(a.chois, c.chois))


def test_characterize_rejects_readout_error(basis):
    model = make_model(steps=3, meas_channel=identity_channel())
    with pytest.raises(ValueError, match="readout"):
        characterize(model, basis, shots=None, master_seed=0)


def test_bootstrap_median_ci_behavior():
    const = np.full(40, 0.7)
    lo, hi = bootstrap_median_ci(const, resamples=100, seed=0)
    assert lo == hi == 0.7
    rng = rng_stream(61, 0)
    vals = rng.uniform(0.8, 1.0, size=60)
    lo, hi = bootstrap_median_ci(vals, resamples=500, seed=1)
    assert lo <= np.median(vals) <= hi
    assert bootstrap_median_ci(vals, resamples=500, seed=1) == (lo, hi)
    with pytest.raises(ValueError):
        bootstrap_median_ci(np.array([1.0]), resamples=10, seed=0)
