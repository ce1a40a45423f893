"""Pins on the shared resampling and process-tomography paths.

``markov.characterize`` and ``control.qpt`` both solve for a channel from
four preparation outputs and project it onto the CPTP set;
``memory.bootstrap_cmi`` and ``tomography.bootstrap_samples`` both redraw
every record from its counts. The golden values in
``data/golden_merged_paths.json`` were computed before those paths were
merged into single helpers and are compared to 1e-9.

Regenerate (only when a deliberate numerical change is made) with
``PYTHONPATH=src:tests python tests/test_merged_paths.py``.
"""

import json
from pathlib import Path

import numpy as np

from proctensor.basis import generate_haar_basis
from proctensor.control import qpt, synthesis_model
from proctensor.markov import characterize
from proctensor.memory import CANONICAL_START, ProbeParams, bootstrap_cmi
from proctensor.qcore import u3_matrix
from proctensor.simulator import make_model

from helpers import assert_json_close, sampled_records

GOLDEN = Path(__file__).parent / "data" / "golden_merged_paths.json"
POOL = 10


def _complex_doc(mat):
    mat = np.asarray(mat, dtype=complex)
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def markov_channels():
    baseline = characterize(make_model(), generate_haar_basis(POOL, 7),
                            shots=1600, master_seed=11)
    return {f"{m}:{label}": _complex_doc(ch.choi)
            for (m, label), ch in sorted(baseline.channels.items())}


def qpt_channel():
    ch = qpt(synthesis_model(), u3_matrix(0.3, 1.1, -0.4), shots=1600,
             master_seed=3)
    return _complex_doc(ch.choi)


def bootstrap_intervals():
    basis = generate_haar_basis(POOL, 7)
    # a coherent neighbour and long idles leave memory for the probe to see
    model = make_model(duration_ns=2500.0, env_init="plus")
    records = sampled_records(model, basis, 1600, master_seed=2)
    out = {}
    for placements, filler in (((1,), CANONICAL_START["filler"]),
                               ((1, 2), None)):
        params = ProbeParams(enc0=CANONICAL_START["enc0"],
                             enc1=CANONICAL_START["enc1"],
                             decoder=CANONICAL_START["decoder"], filler=filler)
        iv = bootstrap_cmi(records, basis, POOL, placements, params,
                           resamples=20, seed=4)
        out["+".join(map(str, placements))] = [iv.point, iv.lo, iv.hi]
    return out


def _golden():
    return json.loads(GOLDEN.read_text())


def test_markov_characterize_channels_pinned():
    assert_json_close(markov_channels(), _golden()["markov_channels"])


def test_control_qpt_pinned():
    assert_json_close(qpt_channel(), _golden()["qpt_channel"])


def test_bootstrap_cmi_pinned():
    assert_json_close(bootstrap_intervals(), _golden()["bootstrap_cmi"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"markov_channels": markov_channels(),
                                  "qpt_channel": qpt_channel(),
                                  "bootstrap_cmi": bootstrap_intervals()},
                                 indent=1, sort_keys=True) + "\n")
