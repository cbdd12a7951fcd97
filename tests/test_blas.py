import os
import subprocess
import sys

import pytest

from dropclass import blas


@pytest.mark.skipif(blas._THREADS is None, reason="numpy's BLAS has no thread setter")
def test_one_thread_restores_the_callers_count():
    setter, getter = blas._THREADS
    before = getter()
    try:
        setter(2)
        with blas.one_thread() as pinned:
            assert pinned and getter() == 1
        assert getter() == 2
        with pytest.raises(KeyError, match="body"):
            with blas.one_thread():
                assert getter() == 1
                raise KeyError("body")
        assert getter() == 2
    finally:
        setter(before)


def test_without_a_setter_nothing_changes(monkeypatch):
    monkeypatch.setattr(blas, "_THREADS", None)
    with blas.one_thread() as pinned:
        assert pinned is False


_OVERLAP_CHILD = """
import threading
from dropclass import blas
_, getter = blas._THREADS
a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
seen = []

def a():
    with blas.one_thread():
        a_in.set()
        b_in.wait(60)
    a_out.set()

def b():
    a_in.wait(60)
    with blas.one_thread():
        b_in.set()
        a_out.wait(60)
        seen.append(getter())

threads = [threading.Thread(target=a), threading.Thread(target=b)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
    assert not thread.is_alive()
print(getter(), *seen)
"""


@pytest.mark.skipif(blas._THREADS is None, reason="numpy's BLAS has no thread setter")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="two BLAS threads need two cores")
def test_one_thread_holds_while_another_thread_is_inside():
    # thread A enters, then B, then A leaves: B's body still runs at one
    # thread, and the count from before A entered comes back when B leaves;
    # the session's own pin holds this process, so the child starts at two
    src = os.path.dirname(os.path.dirname(blas.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _OVERLAP_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    after, inside_b = done.stdout.split()
    assert (inside_b, after) == ("1", "2")
