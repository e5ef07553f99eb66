#!/usr/bin/env python3
"""Print the BLAS kernel and the SIMD features numpy runs with, on one line.

Run from anywhere:

    python tools/blas_kernel.py

numpy's bundled OpenBLAS picks its kernel family for the CPU when it loads
(``OPENBLAS_CORETYPE`` forces one), and some reductions on the optimizer
path change in the last bits with the kernel, so the pinned ledgers hold
only under the kernel they were pinned with (SkylakeX).  The core name is
read through ``ctypes`` from ``scipy_openblas_get_corename64_`` in the
OpenBLAS library under ``numpy.libs``; the SIMD features are the ones
``numpy.show_config`` reports as found.  Either reads ``unknown`` where it
cannot be read, and the script always exits 0.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

UNKNOWN = "unknown"


def openblas_core() -> str:
    """The kernel family the loaded OpenBLAS chose, or ``unknown``."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        name = corename()
        return name.decode() if name else UNKNOWN
    return UNKNOWN


def numpy_simd() -> str:
    """numpy's dispatched SIMD features, comma-separated, or ``unknown``."""
    try:
        found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):
        return UNKNOWN
    return ",".join(found) or UNKNOWN


def main() -> None:
    print(f"OpenBLAS core: {openblas_core()}; numpy {np.__version__} SIMD: {numpy_simd()}")


if __name__ == "__main__":
    main()
