"""Pins on the shared resampling, process-tomography and objective paths.

``markov.characterize`` and ``control.qpt`` both solve for a channel from
four preparation outputs and project it onto the CPTP set;
``memory.bootstrap_cmi`` and ``tomography.bootstrap_ci`` both redraw
every sequence from its counts. The golden values in
``data/golden_merged_paths.json`` were computed before those paths were
merged into single helpers and are compared to 1e-9.

The ``objectives`` entry pins the four optimiser objectives (decoupling
purity, neighbour restoration, synthesis loss and the CMI probe) at fixed
angle vectors on small exact tensors. It was recorded before control
steps were reduced to plain Choi matrices.

Regenerate (only when a deliberate numerical change is made) with
``PYTHONPATH=src:tests python tests/test_merged_paths.py``.
"""

import json
from pathlib import Path

import numpy as np

from proctensor.basis import generate_haar_basis
from proctensor.control import (DECOUPLING_ENV_REF, build_decoupling_tensor,
                                 build_synthesis_tensor, decoupling_kernel,
                                 decoupling_model, decoupling_objective,
                                 nonunitary_target, qpt, restoration_error,
                                 synthesis_kernel, synthesis_loss,
                                 synthesis_model)
from proctensor.markov import characterize
from proctensor.memory import (CANONICAL_START, bootstrap_cmi, cmi_kernel,
                               cmi_value)
from proctensor.qcore import u3_matrix
from proctensor.simulator import make_model, simulate_experiment
from proctensor.tomography import build_standard_tensor, standard_slots

from helpers import assert_json_close, exact_states

GOLDEN = Path(__file__).parent / "data" / "golden_merged_paths.json"
POOL = 10


def _complex_doc(mat):
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def markov_channels():
    baseline = characterize(make_model(), generate_haar_basis(POOL, 7),
                            shots=1600, master_seed=11)
    # keyed "interval:gate", gate I after the preparation, U<j> after that
    return {f"{m}:{'I' if m == 0 else f'U{j}'}": _complex_doc(choi)
            for m, stack in enumerate(baseline.chois)
            for j, choi in enumerate(stack)}


def qpt_channel():
    ch, = qpt(synthesis_model(), [u3_matrix(0.3, 1.1, -0.4)], shots=1600,
              master_seed=3)
    return _complex_doc(ch.choi)


def bootstrap_intervals():
    basis = generate_haar_basis(POOL, 7)
    # a coherent neighbour and long idles leave memory for the probe to see
    model = make_model(duration_ns=2500.0, env_init="plus")
    counts = simulate_experiment(model, standard_slots(basis), 1600,
                                 master_seed=2)
    out = {}
    # the computational-basis probe, with the identity filler and without
    for placements, params in (((1,), CANONICAL_START),
                               ((1, 2), CANONICAL_START[:9])):
        iv = bootstrap_cmi(counts, 1600, basis, POOL, placements, params,
                           resamples=20, seed=4)
        out["+".join(map(str, placements))] = [iv.point, iv.lo, iv.hi]
    return out


GATE_ANGLES = ((0.3, 1.1, -0.4), (2.0, -0.7, 0.9), (1.2, 2.5, 0.2))
PROBE_ANGLES = (
    (5.057983, 5.076442, 3.237886, 1.795743, 0.338857, 2.408778,
     2.566513, 0.284472, 0.306354, 6.278009, 4.098956, 1.473471),
    (5.557983, 5.576442, 3.737886, 2.295743, 0.838857, 2.908778,
     3.066513, 0.784472, 0.806354, 6.778009, 4.598956, 1.973471),
    (6.057983, 6.076442, 4.237886, 2.795743, 1.338857, 3.408778,
     3.566513, 1.284472, 1.306354, 7.278009, 5.098956, 2.473471),
)


def objective_values():
    basis = generate_haar_basis(POOL, 7)
    dec = decoupling_kernel(build_decoupling_tensor(decoupling_model(), basis))
    env_ref = DECOUPLING_ENV_REF
    syn = build_synthesis_tensor(synthesis_model(), basis)
    syn_kernel = synthesis_kernel(syn, nonunitary_target(0.4, 0.2))
    model = make_model(duration_ns=2500.0, env_init="plus")
    mem = build_standard_tensor(exact_states(model, basis), basis, POOL)
    mem_kernel = cmi_kernel(mem, (1,))
    return {
        "decoupling_objective": [decoupling_objective(dec, np.array(x))
                                 for x in GATE_ANGLES],
        "restoration_error": [restoration_error(dec, np.array(x), env_ref)
                              for x in GATE_ANGLES],
        "synthesis_loss": [synthesis_loss(syn_kernel, np.array([x]))[0]
                           for x in GATE_ANGLES],
        "cmi_value": [cmi_value(mem_kernel, np.array(x))
                      for x in PROBE_ANGLES],
    }


def _golden():
    return json.loads(GOLDEN.read_text())


def test_markov_characterize_channels_pinned():
    assert_json_close(markov_channels(), _golden()["markov_channels"])


def test_control_qpt_pinned():
    assert_json_close(qpt_channel(), _golden()["qpt_channel"])


def test_bootstrap_cmi_pinned():
    assert_json_close(bootstrap_intervals(), _golden()["bootstrap_cmi"])


def test_optimiser_objectives_pinned():
    assert_json_close(objective_values(), _golden()["objectives"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"markov_channels": markov_channels(),
                                  "qpt_channel": qpt_channel(),
                                  "bootstrap_cmi": bootstrap_intervals(),
                                  "objectives": objective_values()},
                                 indent=1, sort_keys=True) + "\n")
