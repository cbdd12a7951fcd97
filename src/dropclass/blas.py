"""One BLAS thread for a block of products: OpenBLAS may split a float64
product over threads that sum it in another order, so its last bits can
depend on the thread count."""
import contextlib
import ctypes
import sys

import numpy  # loads the extension module that links BLAS


def _thread_functions():
    """(set, get) of the thread count of numpy's BLAS, or None; a lookup in
    numpy's extension module also searches the libraries it links."""
    ext = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get("numpy.core._multiarray_umath")
    try:
        lib = ctypes.CDLL(ext.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                 "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        setter, getter = (getattr(lib, name.format(op), None) for op in ("set", "get"))
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


_THREADS = _thread_functions()


@contextlib.contextmanager
def one_thread():
    """Yield True with numpy's BLAS at one thread, process-wide, and restore
    the caller's count after, also on an exception; yield False and change
    nothing where no setter was found (numpy's Accelerate wheels)."""
    if _THREADS is None:
        yield False
        return
    setter, getter = _THREADS
    before = getter()
    setter(1)
    try:
        yield True
    finally:
        setter(before)
