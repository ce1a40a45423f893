"""Shared helpers for the test suite."""

import math
from dataclasses import replace

import numpy as np

from proctensor.basis import (PINV_RCOND, PrepOp, hermitian_frame,
                              standard_preparations)
from proctensor.memory import BARRIER_FORM, ENTROPY_FLOOR, cmi_kernel, cmi_value
from proctensor.qcore import (EIG_CLAMP_TOL, ID2, KET0, PAULI_MINUS, PAULI_PLUS,
                              PAULIS,
                              QuantumChannel, apply_channel,
                              check_density_matrix, check_unitary,
                              choi_to_superop, ket_dm, partial_trace,
                              purity, superop_to_choi, u3_entries, u3_matrix,
                              unitary_choi)
from proctensor.simulator import (AXES, PAIR_SETTINGS, khz_to_rad_per_ns,
                                  rng_stream, simulate_grid)
from proctensor import tomography
from proctensor.tomography import (CI_ALPHA, _states_from_probs,
                                   build_standard_tensor, contract_fast,
                                   form_coefficients, mle_project,
                                   pool_coefficients,
                                   qubit_bloch, standard_slots,
                                   step_matrix_form)

FLOAT_TOL = 1e-9

KET1 = np.array([0.0, 1.0], dtype=complex)
# exchanges the system and its neighbour qubit
SWAP2 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

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
    dim = in_dim * pt.states.shape[-1]
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
    pool_coeffs = pool_coefficients(pt.slots[1], pt.duals[1], basis.unitaries)
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


def contract_via_matrix(pt, gates, matrix=None):
    """Defining contraction T[A] = tr_in[(A_hat (x) I_out)^T T].

    Pass ``matrix = tensor_matrix(pt)`` to reuse it across sequences.
    """
    assert len(gates) == pt.steps
    a_full = step_matrix_form(gates[0], pt.slots[0].kind)
    for s in range(1, pt.steps):
        a_full = np.kron(a_full, step_matrix_form(gates[s], pt.slots[s].kind))
    in_dim, out_dim = a_full.shape[0], pt.states.shape[-1]
    if matrix is None:
        matrix = tensor_matrix(pt)
    t4 = matrix.reshape(in_dim, out_dim, in_dim, out_dim)
    return np.einsum("pm,pamb->ab", a_full, t4)


def exact_states(model, basis):
    """Exact states of the standard grid, shape (4, pool, pool, 2, 2)."""
    return simulate_grid(model, standard_slots(basis))


def standard_sequence(basis, i, j, k):
    """Gates of sequence (i, j, k) of the standard grid: preparation i, then
    pool gates j and k."""
    return (basis.preparations[i].gate, basis.unitaries[j], basis.unitaries[k])


def contract_forms(pt, forms):
    """Contract one matrix form per slot through ``form_coefficients``, as
    ``contract_fast`` contracts gates: the route of an operation that is not
    a gate, such as the memory probe's barrier ``BARRIER_FORM``."""
    coeffs = [form_coefficients(f, d) for f, d in zip(forms, pt.duals)]
    letters = "ijklmn"[: pt.steps]
    return np.einsum(",".join(letters) + f",{letters}ab->ab", *coeffs,
                     pt.states)


def joint_state_oracle(model, gates):
    """The per-sequence propagation: every sequence builds its own
    kron(U, I) and propagates the joint state from the initial state."""
    rho = model.initial_se.copy()
    env0 = partial_trace(model.initial_se, 1)
    for gate, u in zip(gates, model.intervals):
        g = np.kron(np.asarray(gate, dtype=complex), np.eye(2))
        rho = g @ rho @ g.conj().T
        rho = u @ rho @ u.conj().T
        if model.env_reset:
            rho = np.kron(partial_trace(rho, 0), env0)
    return rho


def run_sequence_oracle(model, steps):
    """The per-sequence simulator: ``joint_state_oracle`` read out on the
    system."""
    out = partial_trace(joint_state_oracle(model, steps), 0)
    if model.meas_channel is not None:
        out = apply_channel(model.meas_channel, out)
    return check_density_matrix(out, name="simulated state")


def experiment_oracle(model, steps, shots, master_seed, record_index):
    """Per-sequence three-axis counts [plus, minus], shape (3, 2): one
    Born-rule probability and one stream per axis."""
    state = run_sequence_oracle(model, steps)
    counts = []
    for ax_idx, ax in enumerate(AXES):
        p = float(np.einsum("ij,ji->", PAULI_PLUS[ax], state).real)
        p = min(max(p, 0.0), 1.0)
        if shots is None:
            counts.append((p, 1.0 - p))
        else:
            rng = rng_stream(master_seed, record_index, ax_idx)
            n_plus = int(rng.binomial(shots, p))
            counts.append((n_plus, shots - n_plus))
    return state, np.array(counts)


def draw_counts_oracle(probs, shots, master_seed, records):
    """``draw_counts`` one stream at a time: axis a of record r draws one
    binomial from ``rng_stream(master_seed, r, a)``."""
    plus = np.array([[rng_stream(master_seed, r, a).binomial(shots, p)
                      for a, p in enumerate(row)]
                     for r, row in zip(records, probs)], dtype=np.int64)
    return np.stack([plus, shots - plus], axis=-1)


def draw_pair_counts_oracle(probs, shots, master_seed):
    """``draw_pair_counts`` one stream at a time, from its normalised
    outcome probabilities ``(N, 9, 4)``: setting s of record r draws one
    multinomial from ``rng_stream(master_seed, r, s)``."""
    return np.array([[rng_stream(master_seed, r, s).multinomial(shots, p)
                      for s, p in enumerate(row)]
                     for r, row in enumerate(probs)], dtype=np.int64)


def mle_project_oracle(rho):
    """One matrix's eigenvalue-truncation walk, one eigenvalue at a time.
    ``tomography.mle_project`` must equal it bit for bit, alone and on a
    stack."""
    rho = np.asarray(rho, dtype=complex)
    tr = rho.trace()
    if abs(tr) < 1e-12:
        raise ValueError("cannot project a traceless matrix")
    rho = rho / tr
    evals, vecs = np.linalg.eigh(rho)
    order = np.argsort(evals)[::-1]
    mu = evals[order].astype(float)
    vecs = vecs[:, order]
    acc = 0.0
    for i in range(len(mu) - 1, -1, -1):
        if mu[i] + acc / (i + 1) < 0:
            acc += mu[i]
            mu[i] = 0.0
        else:
            mu[: i + 1] += acc / (i + 1)
            break
    return (vecs * mu) @ vecs.conj().T


def fidelity_oracle(a, b):
    """One pair's Uhlmann fidelity through two eigendecompositions, as a
    Python float. ``qcore.fidelity`` must equal it bit for bit, alone and
    on a stack."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    evals, vecs = np.linalg.eigh(a)
    assert evals.min() >= -EIG_CLAMP_TOL
    sa = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    evals = np.linalg.eigvalsh(sa @ b @ sa)
    assert evals.min() >= -EIG_CLAMP_TOL
    f = float(np.sum(np.sqrt(np.clip(evals, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)


def qst_oracle(counts, shots):
    """One sequence's state estimate from its (3, 2) counts, one axis at
    a time in Python scalars."""
    x, y, z = (float(plus - minus) / (shots if shots else 1.0)
               for plus, minus in counts.tolist())
    return mle_project_oracle(0.5 * (ID2 + x * PAULIS["X"] + y * PAULIS["Y"]
                                     + z * PAULIS["Z"]))


def markov_predict_oracle(baseline, i, j, k):
    """One standard sequence's composed-channel prediction: the three
    superoperators built for this key alone and multiplied, then applied
    to the preparation. ``markov.predict`` must equal it bit for bit."""
    s0, s1, s2 = (choi_to_superop(choi) for choi in (
        baseline.chois[0][0], baseline.chois[1][j], baseline.chois[2][k]))
    choi = superop_to_choi(s2 @ (s1 @ s0))
    return np.einsum("satb,st->ab", choi.reshape(2, 2, 2, 2),
                     baseline.prep_states[i])


def predict_batch_oracle(states, coeffs):
    """One tensor's predictions (P, m, m, 2, 2) from its states (P, n, n,
    2, 2): terms summed j-major, k fastest, one at a time.
    ``tomography.predict_batch`` must equal it bit for bit, for one tensor
    and for each tensor of a stack."""
    n_prep, n = states.shape[:2]
    parts = states.view(np.float64).reshape(n_prep, n, n, -1)
    acc = np.zeros((n_prep, parts.shape[-1], len(coeffs), len(coeffs)))
    term = np.empty_like(acc)
    for j in range(n):
        weights = np.multiply.outer(coeffs[:, j], coeffs)  # [q, r, k]
        for k in range(n):
            np.multiply(parts[:, j, k, :, None, None], weights[:, :, k],
                        out=term)
            acc += term
    acc = np.ascontiguousarray(acc.transpose(0, 2, 3, 1))
    return acc.view(complex).reshape(acc.shape[:3] + states.shape[-2:])


def qubit_probs_of(states: np.ndarray) -> np.ndarray:
    """Plus-outcome probabilities along X, Y, Z for a batch of states."""
    bloch = qubit_bloch(states)
    return (1.0 + bloch) / 2.0


def qubit_fidelity_vectorized(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-form Uhlmann fidelity for batches of qubit states:
    F = tr(ab) + 2 sqrt(det a det b)."""
    va = qubit_bloch(a)
    vb = qubit_bloch(b)
    ra2 = np.minimum(np.sum(va * va, axis=-1), 1.0)
    rb2 = np.minimum(np.sum(vb * vb, axis=-1), 1.0)
    dot = np.sum(va * vb, axis=-1)
    f = 0.5 * (1.0 + dot + np.sqrt((1.0 - ra2) * (1.0 - rb2)))
    return np.clip(f, 0.0, 1.0)


def redraw_records_oracle(counts, shots, resamples, rng):
    """The redraw as complex states: the grid's estimated states, shape
    grid + (2, 2), and an iterator of ``resamples`` redraws of them, with
    the binomials drawn in the order ``tomography.redraw_records`` draws
    them."""
    if resamples < 2:
        raise ValueError("need at least two resamples")
    probs = counts[..., 0].reshape(-1, 3) / (shots or 1)
    shape = counts.shape[:-2] + (2, 2)

    def redraws():
        for _ in range(resamples):
            p = probs if shots is None else rng.binomial(shots, probs) / shots
            yield _states_from_probs(p).reshape(shape)

    return _states_from_probs(probs).reshape(shape), redraws()


def bootstrap_ci_oracle(counts, shots, basis, n, resamples, seed):
    """One basis size's bootstrap: every redraw drawn for this size alone
    and scored one at a time, on complex states. ``tomography.bootstrap_ci``
    must equal it bit for bit at each size of its ladder; returns (lo, hi,
    samples)."""
    base_states, redraws = redraw_records_oracle(counts, shots, resamples,
                                                 rng_stream(seed, 777))
    pt0 = build_standard_tensor(base_states, basis, n)
    coeffs = pool_coefficients(pt0.slots[1], pt0.duals[1],
                               basis.unitaries[n:])
    sampled = np.empty(resamples)
    for b, re_states in enumerate(redraws):
        preds = predict_batch_oracle(re_states[:, :n, :n], coeffs)
        fids = qubit_fidelity_vectorized(
            _states_from_probs(qubit_probs_of(preds).reshape(-1, 3)),
            re_states[:, n:, n:].reshape(-1, 2, 2))
        sampled[b] = 1.0 - fids.mean()
    lo, hi = np.percentile(sampled, [100 * CI_ALPHA / 2,
                                     100 * (1 - CI_ALPHA / 2)])
    return float(lo), float(hi), sampled


def bootstrap_cmi_oracle(counts, shots, basis, n, placements, params,
                         resamples, seed):
    """``memory.bootstrap_cmi`` on complex states: every redraw of the whole
    pool, drawn from ``rng_stream(seed, 202, *placements)`` in
    ``tomography.redraw_records``' order, becomes a tensor scored with
    ``cmi_value(cmi_kernel(...))``. The redrawn frequencies must equal
    ``bootstrap_cmi``'s bit for bit; its linear readout differs from
    ``cmi_value`` by ulps. Returns the frequencies (resamples, P, pool,
    pool, 3) and (point, lo, hi, samples)."""
    probs = counts[..., 0] / (shots or 1)
    rng = rng_stream(seed, 202, *placements)
    freqs = np.array([probs if shots is None else rng.binomial(shots, probs)
                      / shots for _ in range(resamples)])
    pt0 = build_standard_tensor(_states_from_probs(probs), basis, n)
    point, *samples = (cmi_value(cmi_kernel(replace(
        pt0, states=_states_from_probs(p[:, :n, :n])), placements), params)
        for p in [probs, *freqs])
    q_lo, q_hi = np.percentile(samples, [100 * CI_ALPHA / 2,
                                         100 * (1 - CI_ALPHA / 2)])
    lo = min(max(2.0 * point - q_hi, 0.0), 1.0)
    hi = min(max(2.0 * point - q_lo, 0.0), 1.0)
    return freqs, (point, lo, hi, np.array(samples))


def _project_tp_oracle(choi):
    marginal = np.einsum("iaja->ij", choi.reshape(2, 2, 2, 2))
    return choi + np.kron(ID2 - marginal, ID2) / 2


def project_to_cptp_oracle(choi):
    """One qubit Choi matrix's Dykstra projection onto the CPTP set, with
    the TP step built by ``np.kron``. ``tomography.project_to_cptp`` must
    equal it bit for bit on each matrix of a stack."""
    y = (np.asarray(choi, dtype=complex) + np.asarray(choi).conj().T) / 2.0
    p = np.zeros_like(y)
    for _ in range(tomography.CPTP_MAX_ITER):
        z = _project_tp_oracle(y)
        zp = z + p
        evals, vecs = np.linalg.eigh((zp + zp.conj().T) / 2.0)
        w = (vecs * np.clip(evals, 0.0, None)) @ vecs.conj().T
        p = zp - w
        y = w
        tp_defect = np.max(np.abs(
            np.einsum("iaja->ij", y.reshape(2, 2, 2, 2)) - ID2))
        min_eval = np.linalg.eigvalsh(y).min()
        if tp_defect < tomography.CPTP_TOL and min_eval > -tomography.CPTP_TOL:
            break
    return _project_tp_oracle(y)


def channel_from_prep_outputs_oracle(outputs):
    """One qubit channel's linear-inversion tomography from its four
    preparation outputs, as a Choi matrix. ``channel_from_prep_outputs``
    must equal it bit for bit on each channel of a stack."""
    inputs = np.empty((4, 4), dtype=complex)
    out = np.empty((4, 4), dtype=complex)
    for p, prep in enumerate(standard_preparations()):
        inputs[:, p] = prep.state.reshape(-1)
        out[:, p] = np.asarray(outputs[p]).reshape(-1)
    superop = out @ np.linalg.inv(inputs)
    return project_to_cptp_oracle(superop_to_choi(superop))


def pauli_transfer_matrix_oracle(ch):
    """R[a, b] = tr[P_a ch(P_b)] / 2, one kron and one einsum per entry."""
    r = np.zeros((4, 4))
    for a, pa in enumerate("IXYZ"):
        for b, pb in enumerate("IXYZ"):
            op = np.kron(PAULIS[pb].T, PAULIS[pa])
            r[a, b] = float(np.einsum("ij,ji->", op, ch.choi).real) / 2.0
    return r


# ---------------------------------------------------------------------------
# Small constructions only the tests use
# ---------------------------------------------------------------------------

def exchange_zz_hamiltonian(exchange_khz, zz_khz):
    """The coupling ``g (XX + YY)/2 + zeta ZZ/2`` in rad/ns, whose
    ``expm(-1j H t)`` checks the closed-form interval propagator."""
    g, z = khz_to_rad_per_ns(exchange_khz), khz_to_rad_per_ns(zz_khz)
    xx, yy, zz = (np.kron(PAULIS[p], PAULIS[p]) for p in "XYZ")
    return g * (xx + yy) / 2.0 + z * zz / 2.0


def channel_from_unitary(u):
    u = check_unitary(u, tol=1e-9, name="gate")
    return QuantumChannel(choi=unitary_choi(u))


def identity_channel():
    return channel_from_unitary(ID2)


def preparation_channel(state):
    """Trace-and-replace map sending every input to ``state``."""
    state = check_density_matrix(state, name="prepared state")
    return QuantumChannel(choi=np.kron(ID2, state))


def trace_distance(a, b):
    """Half the trace norm of a - b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return float(0.5 * np.sum(np.linalg.svd(a - b, compute_uv=False)))


def pair_expectations_exact(joint):
    out = {}
    for a, b in PAIR_SETTINGS:
        op = np.kron(PAULIS[a], PAULIS[b])
        out[(a, b)] = float(np.einsum("ij,ji->", op, joint).real)
    return out


# ---------------------------------------------------------------------------
# Per-record two-qubit readout oracle
# ---------------------------------------------------------------------------
#
# The decoupling probe's readout as it was written one record and one
# setting at a time, with dict-keyed counts: ``draw_pair_counts`` and
# ``pair_qst_mle`` must reproduce it bit for bit.

def pair_probs_oracle(joint, axes):
    """Normalised probabilities of the four +/- outcomes of a joint Pauli
    pair."""
    a, b = axes
    projs = [np.kron(pa, pb) for pa in (PAULI_PLUS[a], PAULI_MINUS[a])
             for pb in (PAULI_PLUS[b], PAULI_MINUS[b])]
    probs = np.array([max(float(np.einsum("ij,ji->", pr, joint).real), 0.0)
                      for pr in projs])
    return probs / probs.sum()


def sample_pair_counts_oracle(joint, axes, shots, rng):
    """Multinomial counts over the four +/- outcomes of a joint Pauli pair."""
    return rng.multinomial(shots, pair_probs_oracle(joint, axes))


def pair_counts_to_correlations_oracle(counts):
    """Pauli correlation matrix c[a, b] (order I, X, Y, Z) from the
    9-setting pair counts, single-qubit terms averaged over settings."""
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    singles_a = np.zeros((4, 2))  # accumulator, count
    singles_b = np.zeros((4, 2))
    for (a, b), n in counts.items():
        n = np.asarray(n, dtype=float)
        ia, ib = AXES.index(a) + 1, AXES.index(b) + 1
        pp, pm, mp, mm = n / n.sum()
        c[ia, ib] = pp - pm - mp + mm
        singles_a[ia] += (pp + pm - mp - mm, 1.0)
        singles_b[ib] += (pp - pm + mp - mm, 1.0)
    for i in range(1, 4):
        c[i, 0] = singles_a[i, 0] / singles_a[i, 1]
        c[0, i] = singles_b[i, 0] / singles_b[i, 1]
    return c


def two_qubit_mle_oracle(correlations):
    """Physical two-qubit state from a Pauli correlation matrix."""
    rho = np.zeros((4, 4), dtype=complex)
    for i, a in enumerate("IXYZ"):
        for j, b in enumerate("IXYZ"):
            rho += correlations[i, j] * np.kron(PAULIS[a], PAULIS[b]) / 4.0
    return mle_project(rho)


def measure_joint_state_oracle(joint, shots, master_seed, record_index):
    """9-setting sampled QST of one two-qubit state: setting s draws from
    the stream (master seed, record index, s)."""
    counts = {axes: sample_pair_counts_oracle(
                  joint, axes, shots, rng_stream(master_seed, record_index, s))
              for s, axes in enumerate(PAIR_SETTINGS)}
    return counts, two_qubit_mle_oracle(
        pair_counts_to_correlations_oracle(counts))


def preparations_from_unitaries(unitaries, labels=None):
    """Preparations induced by applying arbitrary gates to |0>."""
    labels = labels or [f"U{i}" for i in range(len(unitaries))]
    return tuple(PrepOp(label=l, gate=u, state=ket_dm(u @ KET0))
                 for l, u in zip(labels, unitaries))


def duality_defect(forms, duals):
    """Max deviation of tr[B_i D_j] from the identity pattern."""
    gram = np.einsum("aij,bji->ab", np.asarray(forms), duals.duals).real
    return float(np.max(np.abs(gram - np.eye(len(gram)))))


def intervals_overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


# ---------------------------------------------------------------------------
# Step-list oracles for the optimiser objectives
# ---------------------------------------------------------------------------
#
# The package evaluates each objective on a kernel in which every slot that
# stays fixed during the search is already contracted. These are the
# defining forms: build the probe's gates (or, for the memory probe, the
# matrix form of each slot), contract them with the tensor and post-process
# the output with the general matrix routines.

def decoupling_objective_via_steps(pt, gate):
    joint = mle_project(contract_fast(pt, [gate]))
    g1 = purity(partial_trace(joint, 0))
    g2 = purity(partial_trace(joint, 1))
    return float(max(0.0, 2.0 - g1 - g2))


def restoration_error_via_steps(pt, gate, env_ref):
    pred = mle_project(contract_fast(pt, [gate]))
    fid = qubit_fidelity_vectorized(partial_trace(pred, 1), env_ref)
    return float(max(0.0, 1.0 - fid))


def synthesis_predictions_via_steps(pt, x):
    """The tensor's unprojected outputs for the four standard preparations
    followed by the u3 gate of angles ``x``."""
    gate = u3_matrix(*x)
    return [contract_fast(pt, [prep.gate, gate])
            for prep in standard_preparations()]


def synthesis_loss_via_steps(pt, x, target):
    loss = 0.0
    for prep, pred in zip(standard_preparations(),
                          synthesis_predictions_via_steps(pt, x)):
        loss += trace_distance(mle_project(pred),
                               apply_channel(target, prep.state))
    return float(loss)


def synthesis_loss_oracle(kernel, x):
    """The synthesis loss of one angle vector as scalar code: one
    ``(4,) @ (4, 4, 16)`` and one ``(4,) @ (4, 16)`` product against the
    kernel's first target. Each lane of ``synthesis_loss`` must equal it bit
    for bit."""
    readout, (target, *_) = kernel
    try:
        u00, u01, u10, u11 = u3_entries(*np.asarray(x, dtype=float).tolist())
    except ValueError:  # math.cos of an infinite angle
        return math.nan
    v = np.array((u00, u10, u01, u11))
    pred = (v @ (v.conj() @ readout)).real.reshape(4, 4).tolist()
    loss = 0.0
    for (tr, bx, by, bz), (tx, ty, tz) in zip(pred, target):
        bx, by, bz = bx / tr, by / tr, bz / tr
        r = math.hypot(bx, by, bz)
        if r > 1.0:
            bx, by, bz = bx / r, by / r, bz / r
        loss += 0.5 * math.hypot(bx - tx, by - ty, bz - tz)
    return loss


def probe_forms(steps, params, placements, which):
    """Matrix forms, one per slot of the standard tensor, of the probe
    encoding bit ``which`` with barriers at ``placements``; the probe's u3
    angles ``params`` are encoders, decoder, then filler if any."""
    row = [step_matrix_form(u3_matrix(*params[3 * which:3 * which + 3]), "prep")]
    for s in range(1, steps):
        if s in placements:
            row.append(BARRIER_FORM)
        elif len(params) == 12:
            row.append(step_matrix_form(u3_matrix(*params[9:12]), "unitary"))
        else:
            row.append(step_matrix_form(ID2, "unitary"))
    return tuple(row)


def cmi_table_via_steps(pt, params, placements):
    """The probe's conditional table p(d|e), before the MI clamps it."""
    dec = u3_matrix(*params[6:9])
    cond = np.empty((2, 2))
    for e in (0, 1):
        rho = contract_forms(pt, probe_forms(pt.steps, params, placements, e))
        rotated = dec @ rho @ dec.conj().T
        cond[e] = rotated[0, 0].real, rotated[1, 1].real
    return cond


def binary_channel_mi_oracle(cond):
    """``binary_channel_mi``'s clamp, renormalisation and sum as array
    operations, for finite tables."""
    cond = np.clip(np.asarray(cond, dtype=float), ENTROPY_FLOOR, 1.0)
    joint = 0.5 * cond / cond.sum(axis=1, keepdims=True)
    ratio = joint / (0.5 * joint.sum(axis=0))
    mi = np.sum(np.where(joint > ENTROPY_FLOOR, joint * np.log2(ratio), 0.0))
    return float(min(max(mi, 0.0), 1.0))


def cmi_value_via_steps(pt, params, placements):
    return binary_channel_mi_oracle(cmi_table_via_steps(pt, params, placements))


def jsonify_oracle(obj):
    """The store's payload conversion as one branch per type, the reference
    for ``harness._jsonify``."""
    if type(obj) in (str, int, float, bool, type(None)):
        return obj  # already plain JSON; the common case in large payloads
    if isinstance(obj, dict):
        return {str(k): jsonify_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify_oracle(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonify_oracle(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj
