import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def _no_stored_exact_solve():
    """Start every test without the oracle's stored exact solve.

    Tests count solves and eigensolver calls, so a solve kept from an
    earlier test must not answer for them.
    """
    oracle = sys.modules.get("cohex.oracle")
    if oracle is not None:
        oracle._last_exact = None
