"""Settings for the tests in this directory only."""
from pathlib import Path

import pytest

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
