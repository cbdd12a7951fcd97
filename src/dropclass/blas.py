"""One BLAS thread for a block of products: OpenBLAS may split a float64
product over threads that sum it in another order, so its last bits can
depend on the thread count."""
import collections
import contextlib
import ctypes
import sys
import threading

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
_LOCK = threading.Lock()  # guards the two below
_inside = collections.Counter()  # Python thread id -> its entries not yet left
_outside = None  # the count before the first thread inside entered


@contextlib.contextmanager
def one_thread():
    """Yield True with numpy's BLAS at one thread, process-wide, and restore
    the caller's count after, also on an exception; yield False and change
    nothing where no setter was found (numpy's Accelerate wheels).  While
    another Python thread is inside, an exit restores nothing; the last
    thread out restores the count from before the first one entered."""
    global _inside, _outside
    if _THREADS is None:
        yield False
        return
    setter, getter = _THREADS
    me = threading.get_ident()
    with _LOCK:
        before = getter()
        if not _inside:
            _outside = before
        _inside[me] += 1
        setter(1)
    try:
        yield True
    finally:
        with _LOCK:
            _inside -= collections.Counter([me])  # drops a count that reaches 0
            if set(_inside) <= {me}:  # no other thread inside
                setter(before if _inside else _outside)
