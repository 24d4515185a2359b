import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _no_stored_states():
    """Start every test with the oracle's stores of reduced states and
    bath operators empty.

    Tests count solves, bath-operator builds and eigensolver calls, so
    what an earlier test built must not answer for them.
    """
    oracle = sys.modules.get("cohex.oracle")
    if oracle is not None:
        oracle._store.clear()
        oracle._bath_store.clear()
