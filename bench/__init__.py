"""Benchmark of the serve, round and publish paths.

Drives the real stack from outside, through public functions only; see
``bench/README.md``.  Importing the package does the two things that
must happen before the first ``numpy``/``repro`` import:

* pin every BLAS/OpenMP pool to one thread — on a 2-core host an
  un-pinned pool makes the benchmark measure the scheduler, not the
  program (this is what the rejected first attempt measured);
* put the checkout's ``src/`` on ``sys.path``, so the benchmark runs
  from a plain checkout with nothing installed.
"""

import os
import sys
from pathlib import Path

for _pool in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_pool] = "1"

#: Root of the checkout the benchmark runs in (parent of ``bench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The benchmark's own directory; everything it writes stays below it.
BENCH_DIR = Path(__file__).resolve().parent

_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
