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
