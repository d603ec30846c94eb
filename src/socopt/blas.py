"""The OpenBLAS kernel numpy loaded.

Matmul and LAPACK results can round differently under another kernel,
so the byte pins of the test suite and the timings of a benchmark both
name the kernel they were taken under.
"""

import ctypes
from pathlib import Path

import numpy as np


def blas_kernel() -> str | None:
    """The core name of the OpenBLAS kernel numpy loaded, as its
    ``scipy_openblas_get_corename64_`` reports it (``OPENBLAS_CORETYPE``
    overrides the CPU's choice), or None where numpy's BLAS is not that
    OpenBLAS."""
    pkg = Path(np.__file__).parent
    for lib in sorted([*pkg.parent.glob("numpy.libs/*openblas*"), *pkg.glob(".dylibs/*openblas*")]):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None
