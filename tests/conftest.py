import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _no_stored_comparison():
    """Start every test without the oracle's stored comparison.

    Tests count solves and eigensolver calls, so a comparison kept from
    an earlier test must not answer for them.
    """
    oracle = sys.modules.get("cohex.oracle")
    if oracle is not None:
        oracle._last_comparison = None
