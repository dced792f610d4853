"""Each benchmark workload runs once, traced and with its probes, against
the library as it stands.  A name that ``perfbench/`` calls or patches and
the labs no longer provide fails here as a raising job or a crash, not only
in a benchmark run.  ``rep.py`` writes its trace dump to ``.perfbench_out/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_repetition_passes_its_checks(workload):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "rep.py"), "--workload", workload,
         "--seed", "1", "--trace", "1", "--probes", "1"],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failures"] == [] and out["attempted"] > 0
