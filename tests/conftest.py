import sys
from fractions import Fraction

import pytest

from diagonalis import majorization


@pytest.fixture
def no_exact_float(monkeypatch):
    """Make ``float(Fraction)`` raise, so exact mode is seen to decide exactly.

    The one caller let through is ``majorization._ln``: its log estimates
    carry a bounded error and are confirmed on exact values.  Every blocked
    call is also recorded and fails the test at teardown, in case the code
    under test catches the error.
    """
    to_float = Fraction.__float__
    allowed = majorization._ln.__code__
    blocked = []

    def guarded(self):
        caller = sys._getframe(1).f_code
        if caller is allowed:
            return to_float(self)
        blocked.append(f"{caller.co_name} ({caller.co_filename}:{caller.co_firstlineno})")
        raise AssertionError(f"float({self!r}) in exact mode, called from {blocked[-1]}")

    monkeypatch.setattr(Fraction, "__float__", guarded)
    yield
    assert not blocked, blocked
