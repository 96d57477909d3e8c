"""The benchmark's recorded outputs, byte for byte.

For `fischer` and `check` seeds 0-9 and `sample` seed 0, one pass over
the seed's corpus is run and digested with ``perfbench/run.py``'s own
workloads and `digest`, and compared with ``perfbench/digests.json``.  A
change that alters one rendered byte of those outputs fails here.  The
test only reads ``perfbench/``; ``run.py --record-digests`` rewrites the
recorded digests when an output is meant to change.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
import run  # noqa: E402

sys.dont_write_bytecode = writes_bytecode

RECORDED = json.loads((PERFBENCH / "digests.json").read_text())


@pytest.mark.parametrize("name,seed", [(name, seed) for name in ("fischer", "check") for seed in range(10)]
                         + [("sample", 0)])
def test_first_pass_digest_matches_the_recorded_one(name, seed):
    workload = run.WORKLOADS[name]
    lib = run.load(workload)
    corpus = workload.corpus(seed, False)
    one = run.Pass(workload, lib, corpus)
    assert run.verify(workload, lib, corpus, [one], {}) == (0, len(corpus))
    assert run.digest(one.rendered) == RECORDED[name][str(seed)]
