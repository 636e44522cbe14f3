"""Discrete-event simulator for DAG task offloading onto edge devices,
with a from-scratch DQN scheduler and heuristic baselines.

Names are imported from their modules (``mecsched.experiment``,
``mecsched.sim_engine`` and so on); the package itself holds only
``__version__`` and the BLAS thread default below."""

import os as _os
import sys as _sys

# The learner's matrices are small, and OpenBLAS starts a thread per core,
# which only adds CPU time: use one BLAS thread unless the caller chose a
# count. BLAS reads this when numpy is first imported; ``python -m
# mecsched`` imports this package before its ``__main__``, so it sits here.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in _sys.modules:
    for _var in _BLAS_VARS:
        _os.environ.setdefault(_var, "1")
elif not any(_var in _os.environ for _var in _BLAS_VARS):
    import warnings as _warnings

    _warnings.warn(
        "numpy was imported before mecsched with no BLAS thread count set, so "
        "OpenBLAS runs a thread per core, which slows the learner; set "
        "OPENBLAS_NUM_THREADS=1 before numpy is imported, or import mecsched first",
        RuntimeWarning, stacklevel=2)

__version__ = "0.1.0"
