"""Shared pytest configuration.

``--update-goldens`` regenerates the golden-trace corpus under
``tests/goldens/`` instead of comparing against it (see
``tests/test_goldens.py``).
"""

import pytest

from repro.simt import memo as launch_memo


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current simulator "
             "output instead of asserting against it",
    )


@pytest.fixture
def update_goldens(request):
    return request.config.getoption("--update-goldens")


@pytest.fixture(autouse=True)
def _fresh_launch_memo():
    """Each test starts with an empty launch memo (repro.simt.memo), so a
    launch repeated from an earlier test simulates: only repeats inside
    one test are served from the memo."""
    launch_memo.clear()
