"""Conservation-corrected spectral surrogates for PDE trajectories.

The package covers the full loop: manufacture conserving trajectory
datasets with reference solvers, train a small spectral-convolution
surrogate on next-step pairs, correct each prediction's zero DFT mode so
the conserved integral is restored exactly, and report the effect.

Public names are imported from the modules that define them; the root
provides only ``__version__`` and the thread caps.  ``ZEROMODE_THREADS``
caps the BLAS/FFT thread pools and must take effect before numpy loads,
so ``import zeromode`` loads neither numpy nor any submodule.
"""

import os as _os

_THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_cap = _os.environ.get("ZEROMODE_THREADS")
if _cap:
    for _var in _THREAD_CAP_VARS:
        _os.environ.setdefault(_var, _cap)
    del _var
del _os, _cap

__version__ = "0.1.0"
