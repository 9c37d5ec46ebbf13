"""Outward rounding on plain doubles, shared by every stage.

The constants and outward steps of the rounding model stated in
``points``: ``EPS_PRIM`` and ``TINY`` bound one operation's error, and
``_up``/``_down`` step one double outward, so a bound built from them
never rounds toward the value it bounds.  Here too are the pi
enclosure and ``JetError``/``JetDomainError``.  The point layer
(``points``) and the jet classes (``jets``) build on these; ``cli``,
``filling`` and the Lobachevsky coefficients use them without loading
either.
"""

import math

# Relative error committed by one round-to-nearest double operation is at
# most 2^-53; the budget itself is then rounded outward.
EPS_PRIM = 2.0 ** -53
# One quantum of the subnormal range; covers the absolute error of a single
# underflowing multiply/divide, where the relative bound fails.
TINY = 5e-324

_INF = math.inf

# pi is irrational; math.pi is the nearest double and lies below the true
# value, so [PI_LO, PI_HI] is a certified enclosure one ulp wide.
PI_LO = math.pi
PI_HI = math.nextafter(math.pi, _INF)
SQRT2_HI = math.nextafter(math.sqrt(2.0), _INF)

_nextafter = math.nextafter


class JetError(ValueError):
    """Invalid jet construction (non-finite field, bad index, ...)."""


class JetDomainError(JetError):
    """Operation applied to a jet outside its provable domain."""


def _up(x: float) -> float:
    return _nextafter(x, _INF)


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _mul_up(x: float, y: float) -> float:
    return _up(x * y)
