"""Slope-length bounds and exhaustive Dehn-filling enumeration.

A filled manifold that stays hyperbolic with volume below a target
forces the filling slope to be short on the cusp torus:

    vol_filled >= (1 - (2 pi / l_min)^2)^(3/2) * vol_parent
    l_min     <=  2 pi / sqrt(1 - (vol_target / vol_parent)^(2/3)).

Translations of the meridian and longitude on a horoball boundary make
slopes lattice vectors p*m + q*l in C, so all candidate coefficient
pairs below a length cutoff form a finite, enumerable set.

``enumerate_slopes`` decides membership exactly apart from pi.  The
float inputs are rationals, so Q = |p*m + q*l|^2 is an exact rational,
and the cutoff test l <= 2 pi (1 + fudge) / sqrt(1 - (T/P)^(2/3)) is, with
K = 4 pi^2 (1 + fudge)^2, equivalent to: Q <= K, or else
(1 - K/Q)^3 <= (T/P)^2.  Evaluated with ``rounding.PI_HI`` for pi this is a
superset of the true list, so no candidate pair is omitted.  A float
filter with an a priori error bound settles all but the borderline
pairs, which go through ``fractions``; ``fudge`` is optional widening
and carries no soundness.  The search box comes from a certified upper
bound on the cutoff; a box that is not finite or holds more than
``MAX_BOX_PAIRS`` pairs is a ValueError before any pair is tried.  The
reported lengths and bounds are plain floats.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from math import gcd

from .rounding import EPS_PRIM, PI_HI, _down, _up

# Most (p, q) pairs a search box may hold.  The tests, the selftest and
# the census benchmark search boxes of at most 4 * 10^4 pairs; a box at
# the cap takes under a second and about 100 MB.
MAX_BOX_PAIRS = 10**6


class CuspData(namedtuple("CuspData", "meridian longitude parent_volume")):
    """Meridian/longitude translations on a horoball boundary.

    Named tuples rather than dataclasses, as ``lobachevsky.SeriesCoeffs``:
    ``dataclasses`` imports ``inspect``, which would add to the start-up
    of ``bound`` and ``enumerate``.
    """

    __slots__ = ()

    def __new__(cls, meridian, longitude, parent_volume):
        self = super().__new__(cls, complex(meridian), complex(longitude),
                               float(parent_volume))
        if not (cmath.isfinite(self.meridian) and cmath.isfinite(self.longitude)
                and math.isfinite(self.parent_volume)):
            raise ValueError("cusp data must be finite")
        if not self.parent_volume > 0.0:
            raise ValueError("parent volume must be positive")
        if not self.lattice_area() > 0.0:
            raise ValueError("meridian and longitude must be R-linearly independent")
        return self

    def lattice_area(self) -> float:
        m, l = self.meridian, self.longitude
        return abs(m.real * l.imag - m.imag * l.real)


class SlopeList(namedtuple("SlopeList", "bound_used fudge pairs")):
    """Normalized coprime pairs below the fudged length bound, sorted by
    (p, q); ``pairs`` holds (p, q, length) tuples."""

    __slots__ = ()

    def coefficients(self) -> set:
        return {(p, q) for p, q, _ in self.pairs}


def fkp_lower_bound(vol_parent: float, l_min: float) -> float:
    """Volume lower bound for a filling whose slopes all exceed length l_min."""
    if not vol_parent > 0.0:
        raise ValueError("parent volume must be positive")
    if not l_min > 2 * math.pi:
        raise ValueError("the bound is vacuous unless l_min > 2*pi")
    ratio = 2 * math.pi / l_min
    return (1.0 - ratio * ratio) ** 1.5 * vol_parent


def slope_length_bound(vol_parent: float, vol_target: float) -> float:
    """Largest minimal slope length compatible with a hyperbolic filling of
    volume at most vol_target."""
    if not vol_parent > 0.0:
        raise ValueError("parent volume must be positive")
    if not 0.0 < vol_target < vol_parent:
        raise ValueError("need 0 < vol_target < vol_parent")
    r = (vol_target / vol_parent) ** (2.0 / 3.0)
    return 2 * math.pi / math.sqrt(1.0 - r)


def slope_length(p: int, q: int, cusp: CuspData) -> float:
    """|p * meridian + q * longitude| on the horoball boundary."""
    if p == 0 and q == 0:
        raise ValueError("(0, 0) is not a slope")
    v = p * cusp.meridian + q * cusp.longitude
    return math.hypot(v.real, v.imag)


def enumerate_slopes(cusp: CuspData, vol_target: float, fudge: float = 0.01) -> SlopeList:
    """All normalized coprime (p, q) with slope length at most
    slope_length_bound * (1 + fudge), decided exactly apart from pi (see
    the module docstring).

    Normalization keeps q > 0, or q = 0 with p > 0, so no pair appears
    together with its negation.  The search box |p| <= L|longitude|/A,
    |q| <= L|meridian|/A (A the lattice covolume, L a certified upper
    bound on the cutoff) provably covers the length-L disk, so the
    enumeration is exhaustive.
    """
    if not fudge >= 0.0:
        raise ValueError("fudge must be >= 0")
    bound = slope_length_bound(cusp.parent_volume, vol_target)
    c2_lo, c2_hi = _cutoff_squared(cusp.parent_volume, vol_target, fudge)
    m, l = cusp.meridian, cusp.longitude
    mr, mi, lr, li = m.real, m.imag, l.real, l.imag
    area = _area_lower(m, l)
    radius = _up(math.sqrt(c2_hi))
    p_hi = _up(_up(radius * _abs_upper(l)) / area)
    q_hi = _up(_up(radius * _abs_upper(m)) / area)
    # Pairs in the box below, from above; an overflowed bound is infinite.
    size = (2.0 * p_hi + 3.0) * (q_hi + 2.0)
    if not size <= MAX_BOX_PAIRS:
        raise ValueError(f"the search box holds about {size:.3g} pairs, over "
                         f"the cap of {MAX_BOX_PAIRS}")
    p_max = int(p_hi) + 1
    q_max = int(q_hi) + 1

    # ``error(q2)`` bounds |fl(Q) - Q| for every box pair with fl(Q) <= q2.
    # The two parts of p*m + q*l take two roundings each, so together they
    # are off by at most s (2 eps per rounding, taken at 3 eps); squaring
    # them adds under 2 s sqrt(Q) + s^2 (taken at 3 s sqrt(q2)), rounding
    # the squares and their sum under 3 eps fl(Q) (taken at 4 eps), and
    # the factor 2 covers the rounding of the bound itself.
    s = _up(3.0 * EPS_PRIM * (p_max * (abs(mr) + abs(mi)) + q_max * (abs(lr) + abs(li))))

    def error(q2):
        return 2.0 * (4.0 * EPS_PRIM * q2 + 3.0 * s * math.sqrt(q2) + s * s)

    # fl(Q) <= surely_in proves Q <= c2_lo.  For fl(Q) > surely_out, Q >
    # c2_hi: directly up to fl(Q) = 4 c2_hi, and beyond it because the
    # error is then below a tenth of fl(Q) (when 64 s <= 2 sqrt(c2_hi)).
    surely_in = _down(c2_lo - error(c2_lo))
    far = 4.0 * c2_hi
    surely_out = _up(c2_hi + error(far)) if (64.0 * s) ** 2 <= far else math.inf

    pairs = []
    for q in range(0, q_max + 1):
        p_lo = 1 if q == 0 else -p_max
        qr, qi = q * lr, q * li
        for p in range(p_lo, p_max + 1):
            if q == 0 and p != 1:
                # coprimality forces (1, 0) as the only q = 0 slope
                continue
            if p == 0 and q != 1:
                continue
            # x, y are the parts of p*m + q*l as ``slope_length`` rounds them
            x = p * mr + qr
            y = p * mi + qi
            q2 = x * x + y * y
            if q2 > surely_out or gcd(abs(p), q) != 1:
                continue
            if q2 > surely_in and not _exactly_in(p, q, cusp, vol_target, fudge):
                continue
            pairs.append((p, q, math.hypot(x, y)))
    pairs.sort(key=lambda t: (t[0], t[1]))
    return SlopeList(bound_used=bound, fudge=fudge, pairs=tuple(pairs))


def _exactly_in(p: int, q: int, cusp: CuspData, vol_target: float, fudge: float) -> bool:
    """The exact membership test of the module docstring, with PI_HI for pi."""
    from fractions import Fraction  # borderline pairs only

    m, l = cusp.meridian, cusp.longitude
    x = p * Fraction(m.real) + q * Fraction(l.real)
    y = p * Fraction(m.imag) + q * Fraction(l.imag)
    big_q = x * x + y * y
    k = 4 * Fraction(PI_HI) ** 2 * (1 + Fraction(fudge)) ** 2
    if big_q <= k:
        return True
    ratio = Fraction(vol_target) / Fraction(cusp.parent_volume)
    return (1 - k / big_q) ** 3 <= ratio * ratio


def _cutoff_squared(vol_parent: float, vol_target: float, fudge: float) -> tuple:
    """Floats lo <= K / (1 - r) <= hi, where K = 4 PI_HI^2 (1 + fudge)^2
    and r = (vol_target / vol_parent)^(2/3): outward-rounded arithmetic,
    with the cube root verified by cubing, so no libm result is trusted."""
    t = vol_target / vol_parent
    t_lo, t_hi = _down(t), _up(t)
    s_lo, s_hi = _down(t_lo * t_lo), _up(t_hi * t_hi)  # bracket (T/P)^2
    if t < 2.0 ** -300:
        r_lo, r_hi = 0.0, 2.0 ** -200
    else:
        r_lo = r_hi = t ** (2.0 / 3.0)
        while _down(_down(r_hi * r_hi) * r_hi) < s_hi:
            r_hi = _up(r_hi)
        while _up(_up(r_lo * r_lo) * r_lo) > s_lo:
            r_lo = _down(r_lo)
    d_lo, d_hi = _down(1.0 - r_hi), _up(1.0 - r_lo)
    if not d_lo > 0.0:
        raise ValueError("vol_target is too close to the parent volume to bound the cutoff")
    four_pi_sq = 4.0 * PI_HI * PI_HI
    g_lo, g_hi = _down(1.0 + fudge), _up(1.0 + fudge)
    k_lo = _down(_down(four_pi_sq) * _down(g_lo * g_lo))
    k_hi = _up(_up(four_pi_sq) * _up(g_hi * g_hi))
    return _down(k_lo / d_hi), _up(k_hi / d_lo)


def _abs_upper(z: complex) -> float:
    return _up(math.sqrt(_up(_up(z.real * z.real) + _up(z.imag * z.imag))))


def _area_lower(m: complex, l: complex) -> float:
    """A positive float below the lattice covolume |Re m Im l - Im m Re l|."""
    a, b = m.real * l.imag, m.imag * l.real
    lo, hi = _down(_down(a) - _up(b)), _up(_up(a) - _down(b))
    if lo > 0.0:
        return lo
    if hi < 0.0:
        return -hi
    raise ValueError("meridian and longitude are too close to parallel to bound the search")
