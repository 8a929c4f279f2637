"""The environment variables that size numpy's BLAS and OpenMP pools.

A BLAS library reads them once, when it loads — so they must be set
before the first ``import numpy`` of a process, and a forked serve
worker runs with whatever pool its parent loaded.  Importing this
module imports nothing else.
"""

from __future__ import annotations

import os

#: The pool-size variables of OpenMP, OpenBLAS, MKL, numexpr and
#: Accelerate (the same list ``bench`` pins).
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_thread_pools() -> None:
    """Size every pool the user has not sized to one thread.

    The serving and protocol paths run many small products, where a
    threaded BLAS on a busy or pinned CPU costs far more than it gives:
    one 64-frame walk took about 125 ms with a multi-threaded pool on
    one pinned CPU, against about 0.5 ms single-threaded.
    """
    for name in THREAD_POOL_VARS:
        os.environ.setdefault(name, "1")
