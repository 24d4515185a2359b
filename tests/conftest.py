import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _no_stored_states():
    """Start every test with the oracle's store of reduced states empty.

    Tests count solves and eigensolver calls, so states solved in an
    earlier test must not answer for them.
    """
    oracle = sys.modules.get("cohex.oracle")
    if oracle is not None:
        oracle._store.clear()
