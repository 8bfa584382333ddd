"""Test-session set-up.

BLAS is held to one thread before numpy loads, as bench/run.py does, so
that test timings compare between runs on a shared host.  A value already
set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
