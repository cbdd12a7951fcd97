"""Settings for the tests in this directory only."""
from pathlib import Path

import pytest

from dropclass import blas

HERE = Path(__file__).parent

# a file or socket a test leaves open for the collector to close fails that test
LEAKS_FAIL = (pytest.mark.filterwarnings("error::ResourceWarning"),
              pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))


def pytest_collection_modifyitems(items):
    # the hook sees every collected item, so keep to the ones under this directory
    for item in items:
        if HERE in item.path.parents:
            for mark in LEAKS_FAIL:
                item.add_marker(mark)


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    # every in-process product runs at one BLAS thread, as CI runs the suite,
    # so the acceptance lines do not depend on the host's core count; child
    # processes that tests start set their own thread count
    with blas.one_thread():
        yield
