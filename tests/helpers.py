"""Shared helpers for the test suite."""

import numpy as np

from proctensor.basis import PINV_RCOND, hermitian_frame
from proctensor.simulator import ControlSequence, run_sequence, \
    simulate_experiment
from proctensor.tomography import (enumerate_standard_keys, pool_coefficients,
                                   qst_mle, standard_sequence,
                                   step_matrix_form)

FLOAT_TOL = 1e-9

ACCEPTANCE_LINES: list[str] = []


def record_verdict(num: int, description: str, ok: bool) -> None:
    """Collect one pass/fail line per acceptance criterion.

    The lines are echoed in a terminal summary section by conftest.py so
    they are visible even when pytest captures test output.
    """
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def assert_json_close(actual, expected, path="$"):
    """Structural equality with a tolerance on float leaves.

    Golden files pin structure and integer/string values exactly; float
    values may differ across BLAS builds in the last few ulps.
    """
    if isinstance(expected, float) and not isinstance(expected, bool):
        assert isinstance(actual, (int, float)) and not isinstance(
            actual, bool), f"{path}: expected a number, got {actual!r}"
        assert abs(actual - expected) <= FLOAT_TOL * max(1.0, abs(expected)), \
            f"{path}: {actual!r} != {expected!r}"
        return
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected object"
        assert sorted(actual) == sorted(expected), \
            f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for key in expected:
            assert_json_close(actual[key], expected[key], f"{path}.{key}")
        return
    if isinstance(expected, list):
        assert isinstance(actual, list), f"{path}: expected array"
        assert len(actual) == len(expected), \
            f"{path}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_close(a, e, f"{path}[{i}]")
        return
    assert actual == expected, f"{path}: {actual!r} != {expected!r}"


def assert_csv_close(actual_text, expected_text, name=""):
    """Headers and cell layout exact; numeric cells within FLOAT_TOL."""
    actual = actual_text.splitlines()
    expected = expected_text.splitlines()
    assert actual[0] == expected[0], f"{name}: header changed"
    assert len(actual) == len(expected), f"{name}: row count changed"
    for r, (arow, erow) in enumerate(zip(actual[1:], expected[1:]), 1):
        acells, ecells = arow.split(","), erow.split(",")
        assert len(acells) == len(ecells), f"{name} row {r}: column count"
        for c, (a, e) in enumerate(zip(acells, ecells)):
            try:
                ev = float(e)
            except ValueError:
                assert a == e, f"{name} row {r} col {c}: {a!r} != {e!r}"
                continue
            av = float(a)
            assert abs(av - ev) <= FLOAT_TOL * max(1.0, abs(ev)), \
                f"{name} row {r} col {c}: {av!r} != {ev!r}"


def tensor_matrix(pt):
    """Defining matrix form T = sum_nu (D_0 (x) ... (x) D_{k-1})^T (x) rho^nu.

    The package contracts through slot coefficients only; this is the
    oracle those contractions are checked against.
    """
    sizes = tuple(s.size for s in pt.slots)
    in_dim = int(np.prod([s.forms[0].shape[0] for s in pt.slots]))
    dim = in_dim * pt.out_dim
    matrix = np.zeros((dim, dim), dtype=complex)
    for idx in np.ndindex(*sizes):
        dual_full = pt.duals[0].duals[idx[0]].T
        for s in range(1, pt.steps):
            dual_full = np.kron(dual_full, pt.duals[s].duals[idx[s]].T)
        matrix += np.kron(dual_full, pt.states[idx])
    return matrix


def duals_via_frame_loop(forms):
    """Duals of a list of matrix forms, one frame element at a time.

    The loop form of ``build_duals``: coordinates by one trace per
    (element, frame element) pair, and each dual summed frame element by
    frame element. ``build_duals`` must equal it bit for bit.
    """
    frame = list(hermitian_frame(forms[0].shape[0]))
    coords = np.array([[np.einsum("ij,ji->", g, f).real for g in frame]
                       for f in forms])
    f_dag = np.linalg.pinv(coords.T, rcond=PINV_RCOND)
    duals = []
    for row in f_dag:
        mat = np.zeros(frame[0].shape, dtype=complex)
        for c, g in zip(row, frame):
            mat += c * g
        duals.append(mat)
    return np.array(duals)


def key_coefficient_tables(pt, basis, keys):
    """Per-sequence coefficient tables (a0, a1, a2) for (i, j, k) keys.

    a0 holds one-hot preparation rows; a1 and a2 hold the pool
    coefficients of each key's two unitary slots.
    """
    prep_eye = np.eye(len(basis.preparations))
    pool_coeffs = pool_coefficients(pt, basis, range(basis.size))
    a0 = np.array([prep_eye[i] for i, _, _ in keys])
    a1 = np.array([pool_coeffs[j] for _, j, _ in keys])
    a2 = np.array([pool_coeffs[k] for _, _, k in keys])
    return a0, a1, a2


def predict_via_key_tables(pt, basis, keys):
    """Per-sequence predictions, shape (len(keys), d, d).

    The unfactorised form of ``predict_batch``: one 4-operand einsum over
    the per-key tables. ``predict_batch`` must equal it bit for bit.
    """
    a0, a1, a2 = key_coefficient_tables(pt, basis, keys)
    return np.einsum("si,sj,sk,ijkab->sab", a0, a1, a2, pt.states)


def contract_via_matrix(pt, seq, matrix=None):
    """Defining contraction T[A] = tr_in[(A_hat (x) I_out)^T T].

    Pass ``matrix = tensor_matrix(pt)`` to reuse it across sequences.
    """
    steps = seq.steps if isinstance(seq, ControlSequence) else tuple(seq)
    assert len(steps) == pt.steps
    a_full = step_matrix_form(steps[0], pt.slots[0].kind)
    for s in range(1, pt.steps):
        a_full = np.kron(a_full, step_matrix_form(steps[s], pt.slots[s].kind))
    in_dim = a_full.shape[0]
    if matrix is None:
        matrix = tensor_matrix(pt)
    t4 = matrix.reshape(in_dim, pt.out_dim, in_dim, pt.out_dim)
    return np.einsum("pm,pamb->ab", a_full, t4)


def exact_states(model, basis, pool=None):
    pool = pool if pool is not None else basis.size
    out = np.empty((len(basis.preparations), pool, pool, 2, 2), dtype=complex)
    for i in range(len(basis.preparations)):
        for j in range(pool):
            for k in range(pool):
                out[i, j, k] = run_sequence(model, standard_sequence(basis, i, j, k))
    return out


def mle_states(records, pool):
    states = np.empty((4, pool, pool, 2, 2), dtype=complex)
    for key, rec in records.items():
        states[key] = qst_mle(rec)
    return states


def sampled_records(model, basis, shots, master_seed):
    records = {}
    for idx, (i, j, k) in enumerate(
            enumerate_standard_keys(len(basis.preparations), basis.size)):
        records[(i, j, k)] = simulate_experiment(
            model, standard_sequence(basis, i, j, k), shots, master_seed,
            record_index=idx)
    return records
