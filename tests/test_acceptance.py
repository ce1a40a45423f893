"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single [PASS]/[FAIL] line (echoed in the terminal
summary by conftest.py) and then asserts. The checks run the real
pipeline at production settings; stated runtime budgets are asserted
where a claim carries one. Empirical margins behind the thresholds are
recorded in the project notes.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from proctensor.basis import (build_duals, generate_haar_basis,
                              order_by_overlap, overlap_order,
                              unitary_matrix_form)
from proctensor.control import (build_decoupling_tensor, build_synthesis_tensor,
                                decoupling_model, optimize_decoupling,
                                simulate_trajectory, synthesis_model,
                                synthesis_sweep)
from proctensor.harness import (ALPHA_RANGE, ExperimentPlan, ResultsStore,
                                report, run_plan)
from proctensor.markov import (bootstrap_median_ci, characterize,
                               compare_with_tensor)
from proctensor.memory import bootstrap_cmi, maximize_cmi
from proctensor.simulator import make_model, rng_stream, simulate_experiment
from proctensor.tomography import (_states_from_probs, bootstrap_ci,
                                   build_standard_tensor, evaluate_split,
                                   prediction_fidelities, qst_mle,
                                   slot_coefficients, standard_slots)

from helpers import (SWAP2, assert_csv_close, assert_json_close,
                     contract_via_matrix, duality_defect, exact_states,
                     intervals_overlap, key_coefficient_tables,
                     preparations_from_unitaries, qubit_fidelity_vectorized,
                     qubit_probs_of, record_verdict, standard_sequence,
                     tensor_matrix)
from test_golden import GOLDEN_PLAN, _strip_timestamps

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def basis28():
    return generate_haar_basis(28, 7)


def test_criterion_01_exact_interpolation(basis28):
    t0 = time.monotonic()
    # a minimal basis is the ordered pool's prefix; ordering is what keeps
    # ten elements well conditioned (see the ordering criterion below)
    basis = order_by_overlap(basis28)
    states = exact_states(make_model(), basis)
    pt = build_standard_tensor(states, basis, 10)
    # every sequence outside the training grid, not just the both-slots split
    outside = np.ones((4, 28, 28), dtype=bool)
    outside[:, :10, :10] = False
    fids = prediction_fidelities(pt, basis, states, 28)[outside]
    elapsed = time.monotonic() - t0
    ok = bool(fids.min() >= 1.0 - 1e-9) and elapsed < 60.0
    record_verdict(1, "noiseless n=10 tensor predicts every held-out "
                      "sequence to 1e-9", ok)
    assert fids.min() >= 1.0 - 1e-9, \
        f"worst held-out fidelity {fids.min():.3e} over {fids.size} sequences"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_shot_noise_characterization(basis28):
    t0 = time.monotonic()
    model = make_model()
    med24, mean24, mean10 = [], [], []
    for seed in range(5):
        counts = simulate_experiment(model, standard_slots(basis28), 1600,
                                     master_seed=seed)
        states = qst_mle(counts, 1600)
        e24 = evaluate_split(states, basis28, 24)
        e10 = evaluate_split(states, basis28, 10)
        med24.append(1.0 - e24.stats.median)
        mean24.append(e24.mean_infidelity)
        mean10.append(e10.mean_infidelity)
    elapsed = time.monotonic() - t0
    med = float(np.mean(med24))
    ok = (med <= 5e-3 and np.mean(mean24) < np.mean(mean10)
          and elapsed < 600.0)
    record_verdict(2, "1600-shot n=24 median held-out infidelity <= 5e-3 "
                      "and beats n=10 (5 seeds)", ok)
    assert med <= 5e-3, f"seed-averaged median infidelity {med:.2e}"
    assert np.mean(mean24) < np.mean(mean10), \
        f"mean infidelity n=24 {np.mean(mean24):.2e} " \
        f"vs n=10 {np.mean(mean10):.2e}"
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_03_overlap_ordering_benefit():
    model = make_model()
    plain_fids, ordered_fids, wins = [], [], 0
    pools = 12
    for p in range(pools):
        b = generate_haar_basis(28, 100 + p)
        counts = simulate_experiment(model, standard_slots(b), 1600,
                                     master_seed=1000 + p)
        states = qst_mle(counts, 1600)
        plain = evaluate_split(states, b, 10).stats.mean
        perm = overlap_order(b)
        ordered = evaluate_split(states[:, perm][:, :, perm],
                                 order_by_overlap(b), 10).stats.mean
        plain_fids.append(plain)
        ordered_fids.append(ordered)
        wins += ordered > plain
    p_val = sps.binomtest(wins, pools, 0.5, alternative="greater").pvalue
    ok = np.mean(ordered_fids) >= np.mean(plain_fids) and p_val < 0.05
    record_verdict(3, "reordered minimal bases beat unordered over "
                      f"{pools} pools (sign test)", ok)
    assert np.mean(ordered_fids) >= np.mean(plain_fids), \
        f"ordered mean {np.mean(ordered_fids):.4f} " \
        f"vs plain {np.mean(plain_fids):.4f}"
    assert p_val < 0.05, f"wins {wins}/{pools}, p={p_val:.4f}"


def test_criterion_04_duality_properties(basis28):
    states = exact_states(make_model(), basis28)
    pt = build_standard_tensor(states, basis28, 10)
    defects = []
    for slot in pt.slots:
        assert slot.rank == slot.size  # exact duality
        defects.append(duality_defect(list(slot.forms), slot.duals))
    relaxed, rank = build_duals(
        [unitary_matrix_form(u) for u in basis28.unitaries[:24]],
        required_rank=10)
    assert rank < len(relaxed)  # relaxed duality
    resolution = float(np.abs(sum(relaxed) - np.eye(4)).max())
    recon = 0.0
    matrix = tensor_matrix(pt)
    for i in range(4):
        for j in range(10):
            for k in range(10):
                pred = contract_via_matrix(
                    pt, standard_sequence(basis28, i, j, k), matrix)
                recon = max(recon, float(np.abs(pred - states[i, j, k]).max()))
    ok = max(defects) <= 1e-8 and resolution <= 1e-8 and recon <= 1e-9
    record_verdict(4, "exact duality, relaxed duals resolve identity, "
                      "training states recovered", ok)
    assert max(defects) <= 1e-8, f"duality defects {defects}"
    assert resolution <= 1e-8, f"sum of relaxed duals off identity by {resolution:.2e}"
    assert recon <= 1e-9, f"worst training-state deviation {recon:.2e}"


def test_criterion_05_memory_detection(basis28):
    t0 = time.monotonic()
    # (a) reset environment: all bounds near zero with CIs containing zero
    model = make_model(env_reset=True)
    counts = simulate_experiment(model, standard_slots(basis28), 10_000,
                                 master_seed=0)
    pt = build_standard_tensor(qst_mle(counts, 10_000), basis28, 24)
    reset = []
    for placements in ((1,), (2,), (1, 2)):
        res = maximize_cmi(pt, placements, restarts=20, seed=0)
        iv = bootstrap_cmi(counts, 10_000, basis28, 24, placements,
                           res.params, resamples=200, seed=0)
        reset.append((placements, res.bits, iv.lo, iv.hi))
    reset_ok = all(bits <= 2e-2 and lo <= 0.0 <= hi
                   for _, bits, lo, hi in reset)
    # (b) swap memory: a single barrier cannot hide one full bit
    swap = make_model(intervals=(SWAP2, SWAP2, np.eye(4, dtype=complex)))
    spt = build_standard_tensor(exact_states(swap, basis28), basis28, 24)
    swap_bits = maximize_cmi(spt, (1,), restarts=6, seed=0).bits
    # (c) coherent neighbour binds more memory than a ground-state one
    cmi = {}
    for env in ("zero", "plus"):
        m = make_model(duration_ns=2500.0, env_init=env)
        p = build_standard_tensor(exact_states(m, basis28), basis28, 24)
        cmi[env] = maximize_cmi(p, (1,), restarts=6, seed=0).bits
    elapsed = time.monotonic() - t0
    ok = (reset_ok and swap_bits >= 0.9 and cmi["plus"] >= cmi["zero"]
          and elapsed < 900.0)
    record_verdict(5, "memory bounds: reset ~0 with CI at 0, swap >= 0.9 "
                      "bits, coherent >= ground", ok)
    assert reset_ok, f"reset-environment bounds {reset}"
    assert swap_bits >= 0.9, f"swap-memory bound {swap_bits:.4f} bits"
    assert cmi["plus"] >= cmi["zero"], \
        f"coherent {cmi['plus']:.4f} vs ground {cmi['zero']:.4f} bits"
    assert elapsed < 900.0, f"took {elapsed:.1f}s"


def test_criterion_06_markov_model_gap(basis28):
    outcomes = {}
    for label, reset in (("coupled", False), ("reset", True)):
        m = make_model(duration_ns=2500.0, env_init="plus", env_reset=reset)
        states = exact_states(m, basis28)
        ev = evaluate_split(states, basis28, 24)
        baseline = characterize(m, basis28, None, master_seed=101)
        comp = compare_with_tensor(ev.fidelities, states, baseline)
        t_ci = bootstrap_median_ci(comp.tensor_fids, resamples=200, seed=0)
        m_ci = bootstrap_median_ci(comp.markov_fids, resamples=200, seed=1)
        outcomes[label] = (comp.median_gap, intervals_overlap(t_ci, m_ci))
    gap, coupled_overlap = outcomes["coupled"]
    reset_gap, reset_overlap = outcomes["reset"]
    ok = gap >= 0.005 and not coupled_overlap and reset_overlap
    record_verdict(6, "composable baseline trails by >= 0.5pp with memory, "
                      "matches without", ok)
    assert gap >= 0.005, f"coupled median gap {100 * gap:.3f}pp"
    assert not coupled_overlap, "coupled CIs overlap"
    assert reset_overlap, f"reset CIs disjoint (gap {100 * reset_gap:.3f}pp)"


def test_criterion_07_decoupling(basis28):
    model = decoupling_model()
    pt = build_decoupling_tensor(model, basis28, shots=None)
    res = optimize_decoupling(pt, restarts=20, seed=0)
    idle = simulate_trajectory(None)
    dec = simulate_trajectory((res.gate,))
    gain = float(dec.purity_q1.min() - idle.purity_q1.min())
    suppression = 1.0 - float(dec.negativity.max()) / float(idle.negativity.max())
    ok = gain >= 0.1 and suppression >= 0.5
    record_verdict(7, "periodic optimized gate lifts minimum purity by "
                      ">= 0.1 and halves peak negativity", ok)
    assert gain >= 0.1, f"minimum-purity gain {gain:.4f}"
    assert suppression >= 0.5, f"negativity suppression {suppression:.3f}"


def test_criterion_08_nonunitary_synthesis(basis28):
    model = synthesis_model()
    pt = build_synthesis_tensor(model, basis28, shots=None)
    alpha = float(rng_stream(0, 606).uniform(*ALPHA_RANGE))
    points = synthesis_sweep(pt, model, alpha, restarts=20, seed=0)
    min_realized = min(p.realized_unitarity for p in points)
    peak = max(points, key=lambda p: p.process_fidelity)
    below = sorted((p for p in points if p.target_unitarity < min_realized),
                   key=lambda p: -p.target_unitarity)
    monotone = all(b.process_fidelity <= a.process_fidelity + 2e-3
                   for a, b in zip(below, below[1:]))
    ok = (peak.process_fidelity >= 0.97
          and peak.target_unitarity >= min_realized and monotone)
    record_verdict(8, "synthesis peaks >= 0.97 at achievable unitarity and "
                      "decays below it", ok)
    assert peak.process_fidelity >= 0.97, \
        f"peak process fidelity {peak.process_fidelity:.4f} at eta {peak.eta:.2f}"
    assert peak.target_unitarity >= min_realized, \
        f"peak target unitarity {peak.target_unitarity:.4f} " \
        f"below achievable minimum {min_realized:.4f}"
    assert monotone, "fidelity rises as target sinks below the achievable " \
        f"minimum: {[(round(p.target_unitarity, 3), round(p.process_fidelity, 4)) for p in below]}"


def test_criterion_09_out_of_basis_preparations(basis28):
    n = 24
    model = make_model()
    counts = simulate_experiment(model, standard_slots(basis28), 1600,
                                 master_seed=0)
    states = qst_mle(counts, 1600)
    (lo_in,), (hi_in,), _ = bootstrap_ci(counts, 1600, basis28, [n],
                                         resamples=200, seed=0)
    # probe four preparations outside the tomography basis on the held grid
    new_preps = preparations_from_unitaries(list(basis28.unitaries[24:28]))
    held_jk = [(j, k) for j in range(n, 28) for k in range(n, 28)]
    held = basis28.unitaries[n:]
    # record indices continue after the standard grid's 4 * 28 * 28
    prep_counts = simulate_experiment(
        model, ([p.gate for p in new_preps], held, held),
        1600, 0, first_record=4 * 28 * 28)
    pt0 = build_standard_tensor(states, basis28, n)
    # coefficient tables for the new sequences; only the prep row changes
    std_tables = key_coefficient_tables(
        pt0, basis28, [(0, j, k) for _ in range(4) for j, k in held_jk])
    prep_coeffs = np.array([
        slot_coefficients(pt0.slots[0], p.gate)
        for p in new_preps])
    a0 = np.repeat(prep_coeffs, len(held_jk), axis=0)
    a1, a2 = std_tables[1], std_tables[2]
    probs = counts[..., 0].reshape(-1, 3) / 1600
    pprobs = prep_counts[..., 0].reshape(-1, 3) / 1600
    rng = rng_stream(0, 778)
    resamples = 200
    samples = np.empty(resamples)
    for b_i in range(resamples):
        re_probs = rng.binomial(1600, probs) / 1600
        re_states = _states_from_probs(re_probs).reshape(4, 28, 28, 2, 2)
        preds = np.einsum("si,sj,sk,ijkab->sab", a0, a1, a2,
                          re_states[:, :n, :n])
        re_pstates = _states_from_probs(rng.binomial(1600, pprobs) / 1600)
        fids = qubit_fidelity_vectorized(
            _states_from_probs(qubit_probs_of(preds)), re_pstates)
        samples[b_i] = 1.0 - fids.mean()
    lo_p, hi_p = (float(v) for v in np.percentile(samples, [2.5, 97.5]))
    ok = intervals_overlap((lo_in, hi_in), (lo_p, hi_p))
    record_verdict(9, "held-out preparations agree with in-basis "
                      "reconstruction error bars", ok)
    assert ok, f"in-basis CI ({lo_in:.2e}, {hi_in:.2e}) vs " \
        f"held-out preparation CI ({lo_p:.2e}, {hi_p:.2e})"


def test_criterion_10_determinism_and_formats(tmp_path):
    plan = ExperimentPlan(**GOLDEN_PLAN)
    runs = []
    for sub in ("a", "b"):
        store = ResultsStore(tmp_path / sub / "store")
        run_plan(plan, store)
        written = report(plan, store, tmp_path / sub / "report")
        runs.append((store, written))
    (store_a, written_a), (store_b, written_b) = runs
    bitexact = (
        _strip_timestamps((store_a.root / "records.jsonl").read_text())
        == _strip_timestamps((store_b.root / "records.jsonl").read_text())
        and all(written_b[k].read_bytes() == written_a[k].read_bytes()
                for k in written_a))
    docs = [json.loads(line) for line in
            (store_a.root / "records.jsonl").read_text().splitlines()]
    head = [docs[0], docs[1], next(d for d in docs if d["stage"] == "evaluate")]
    for doc in head:
        doc.pop("created_utc")
    golden_err = None
    try:
        assert_json_close(
            head, json.loads((DATA / "golden_store_head.json").read_text()))
        for name in ("fidelity_vs_n", "box_stats"):
            assert_csv_close(written_a[name].read_text(),
                             (DATA / f"golden_{name}.csv").read_text(), name)
    except AssertionError as exc:
        golden_err = str(exc)
    ok = bitexact and golden_err is None
    record_verdict(10, "fixed-seed re-runs are bit-exact and match the "
                       "golden store and report formats", ok)
    assert bitexact, "re-running the same plan changed stored values"
    assert golden_err is None, golden_err
