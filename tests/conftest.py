"""Test-session set-up.

OpenBLAS reads its thread count once, when numpy is first imported, and
pytest imports this file before any test module.  One BLAS thread keeps
dense eigensolves from contending with each other and with other
processes on a small machine, where a 720x720 solve otherwise ranges
from 0.07 s to several seconds.  CLI subprocesses inherit the setting.
"""

import os
import sys

# tests import their reference code as ``references`` under any import mode
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
