"""Loaded by pytest before any test module, so before NumPy is imported:
BLAS runs at one thread, as benchmarks/run.py and tools/same_outputs.py
set it for their children.  The suite's matmuls are small, and BLAS
threads beside another CPU-bound process oversubscribe the cores.  A value
already set in the environment wins."""

import os
import sys
import warnings

if "numpy" in sys.modules:
    warnings.warn("NumPy was imported before tests/conftest.py: its BLAS thread count stands")
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
