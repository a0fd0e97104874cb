"""The numeric environment a result was produced under.

Bitwise digests depend on more than the code: OpenBLAS built with
``DYNAMIC_ARCH`` picks its kernels for the CPU at run time, and numpy
dispatches its ufuncs by the SIMD targets the CPU enables. ``fingerprint``
names all three, so a pinned digest can say where it was recorded.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath


def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (the same library its linear algebra loaded),
    or None when numpy was built against another BLAS."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas*"))
    return ctypes.CDLL(str(paths[0])) if paths else None


def _call_str(lib: ctypes.CDLL | None, symbol: str) -> str | None:
    fn = getattr(lib, symbol, None)
    if fn is None:
        return None
    fn.argtypes, fn.restype = [], ctypes.c_char_p
    return fn().decode()


def fingerprint() -> dict:
    """The numpy version, the OpenBLAS build string and the kernel core it
    picked at run time (None without a bundled OpenBLAS), and numpy's SIMD
    dispatch targets that this CPU enables."""
    lib = _openblas()
    features = _multiarray_umath.__cpu_features__
    return {
        "numpy": np.__version__,
        "openblas_config": _call_str(lib, "scipy_openblas_get_config64_"),
        "openblas_core": _call_str(lib, "scipy_openblas_get_corename64_"),
        "simd_targets": [t for t in _multiarray_umath.__cpu_dispatch__ if features.get(t)],
    }
