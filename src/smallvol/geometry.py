"""Certified volumes of ideal triangulations from shape parameters.

An ideal tetrahedron with shape z = x + iy (y > 0) has dihedral angles
arg z, arg 1/(1-z) = arg((1-x) + iy) and arg (z-1)/z = arg((|z|^2-x) + iy):
conjugating a number, or scaling it by |z|^2 > 0, leaves its argument
unchanged.  So each angle is the argument of a number with real part a
polynomial in x and imaginary part y, and no complex arithmetic is
needed.  The volume of a triangulation is the sum of the Lobachevsky
function over all dihedral angles.

Exact shapes (delta = 0) are evaluated on the point layer, with no jet:
each angle is an ``points._arg_mod_pi`` pair (L is pi-periodic, so an
angle is needed only modulo pi), |z|^2 - x is x (x - 1) + y^2 from the
pair operations, and ``lobachevsky._point`` sums the series to full
precision, so ``tol`` does not change their bounds.  Orientation is
tested on the point layer for every delta: Im z - delta, rounded down,
must be positive.

Given a distance bound ``delta > 0`` on the true solution, each shape
is the centre of a box with two variables of radius delta, for Re z and
Im z (the box over-covers the delta-ball), and the volume interval
holds the volume of any true solution within delta; ``tol`` bounds the
truncation of each Lobachevsky series.  The angles and their terms are
(center, coeffs, err) triples under the rules of ``smallvol.jets``: no
jet object is built, and exact shapes never load that module.

The angle triples of a box come from one Taylor rule on the point layer
(``_angles``; Moore, Kearfott and Cloud, *Introduction to Interval
Analysis*, 2009, ch. 6), with no jet product, quotient or atan.  Angle
k is Im F_k(z) for F_1 = log z, F_2 = -log(1 - z) and F_3 = log(1 - 1/z),
so it has gradient (p, q) = (Im F_k', Re F_k') in (Re z, Im z), with
F_1' = 1/z, F_2' = 1/(1 - z) and F_3' = -F_1' F_2' (one product, which
does not cancel for huge |z|).  A triple holds:

* center: the exact-shape angle modulo pi at the box's center;
* coefficients: (p delta, q delta), the reciprocals taken in
  power-of-two-scaled parts (``points._recip_scaled``) so that nothing
  over- or underflows for |z| from 1e-150 to 1e150;
* err: the center's err, the gradient's err times the box's spreads,
  the coefficients' roundings, and the Lagrange remainder
  1/2 sup|F_k''| h^2 over the disc of radius h (the box's
  half-diagonal), with |F_1''| = 1/|z|^2, |F_2''| = 1/|1 - z|^2 and
  |F_3''| = |1 - 2z| / (|z|^2 |1 - z|^2), each bounded from the ratios
  h / inf|z| and h / inf|1 - z|.

A box whose disc meets 0 or 1, or that meets the real axis, is refused.
The volume passes the angles modulo pi to ``lobachevsky._triple`` (L
is pi-periodic), so a near-flat angle never meets pi's enclosure.

The volume is a sum of one term per tetrahedron (Neumann-Zagier), and
terms of different tetrahedra share no variable.  So each tetrahedron's
three terms are summed over its own two variables, and the tetrahedra
are added as dimension-0 (center, spread) pairs: the boxes are
independent, so the sup of the sum is the sum of the sups, and one jet
over all 2n variables would be no tighter.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

# The package's ``__getattr__`` loads ``smallvol.jets`` on first use.
import smallvol

from .lobachevsky import _point, _triple
from .points import _add0, _arg_mod_pi, _mul0, _radius, _recip_scaled, _reject
from .rounding import (EPS_PRIM, TINY, JetDomainError, JetError, _INF, _down,
                       _nextafter, _up)

# Covers the roundings of one part of a complex product of parts whose
# absolute values sum to at most A1 and A2: u A1 A2 (2 + u), u = EPS_PRIM.
_G3 = 2.01 * EPS_PRIM
# A sum of k nonnegative products of nonnegative floats, none of them
# underflowing, is within (1 + u)^k - 1 of its float value; times this
# for k far below 2^12.
_SLACK = 1.0 + 2.0 ** -40


class Interval(namedtuple("Interval", "lo hi")):
    __slots__ = ()

    def width(self) -> float:
        return self.hi - self.lo


class OrientationError(ValueError):
    """A tetrahedron could not be proved positively oriented."""


class ShapeAssignment(namedtuple("ShapeAssignment", "shapes delta")):
    """Approximate shapes plus a solution-distance bound in C^n."""

    __slots__ = ()

    def __new__(cls, shapes, delta=0.0):
        self = super().__new__(cls, tuple(complex(z) for z in shapes), delta)
        if not self.shapes:
            raise ValueError("shape assignment needs at least one tetrahedron")
        if not (self.delta >= 0.0 and self.delta < float("inf")):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        for j, z in enumerate(self.shapes):
            if not cmath.isfinite(z):
                raise ValueError(f"shape {j} is not finite")
            # hypot returns inf where abs(z) of a finite z raises OverflowError.
            if (math.hypot(z.real, z.imag) <= self.delta
                    or math.hypot(z.real - 1.0, z.imag) <= self.delta):
                raise ValueError(
                    f"shape {j} = {z} is within delta of a degenerate value"
                )
        return self


def _centres(x: float, y: float, w: tuple) -> tuple:
    """The three dihedral angles of z = x + iy, y > 0, modulo pi as
    ``_arg_mod_pi`` pairs, given the pair w = 1 - x: the arguments of
    x + iy, w + iy and |z|^2 - x + iy.  |z|^2 - x is x (x - 1) + y^2,
    which keeps its relative accuracy where |z|^2 and x nearly cancel
    (z near 1); it raises JetError where it overflows."""
    zw = _add0(*_mul0(x, 0.0, -w[0], w[1]), *_mul0(y, 0.0, y, 0.0))
    return _arg_mod_pi(x, 0.0, y), _arg_mod_pi(*w, y), _arg_mod_pi(*zw, y)


def _angles(x: float, y: float, delta: float) -> list:
    """Triples (center, coeffs, err) of the three dihedral angles modulo
    pi over the box of radius delta about z = x + iy, whose imaginary
    part must be provably positive (see the module docstring for the
    rule and its charges)."""
    up, inf = _nextafter, _INF
    # The spread of Re z and of Im z, as ``jets._spread`` bounds delta.
    dx = up(delta, inf) if delta else 0.0
    w = _add0(1.0, 0.0, -x, 0.0)
    # 1/z = s1 (r1 + i i1) and 1/(1-z) = s2 (r2 + i i2), each part within
    # s1 e1 (s2 e2); m1 <= s1 |z| and m2 <= s2 |1 - z|.
    r1, i1, e1, s1, m1 = _recip_scaled(x, 0.0, y)
    r2, i2, e2, s2, m2 = _recip_scaled(w[0], w[1], -y)
    h = _radius(dx, dx)
    hs1, hs2 = up(h * s1, inf), up(h * s2, inf)
    rho1, rho2 = up(m1 - hs1, -inf), up(m2 - hs2, -inf)  # s1 inf|z|, s2 inf|1 - z|
    if not rho1 > 0.0:
        raise JetDomainError("shape not provably distinct from 0")
    if not rho2 > 0.0:
        raise JetDomainError("shape not provably distinct from 1")
    if not (up(y - dx, -inf) if dx else y) > 0.0:
        raise JetDomainError("argument: quadrant not provable (origin or branch cut)")
    centres = _centres(x, y, w)
    # F3' = -(1/z)(1/(1-z)) as one product, in units of s3 = s1 s2 (exact:
    # the centres overflow long before s3 could underflow).  Its parts
    # are off by e1 a2 + e2 a1 + 2 e1 e2 from the inputs, a_k the sums of
    # |parts|, and by u a1 a2 (2 + u) + TINY from the roundings; all of
    # these are far above the underflow range.
    s3 = s1 * s2
    a1, a2 = abs(r1) + abs(i1), abs(r2) + abs(i2)
    e3 = up((e1 * a2 + e2 * a1 + 2.0 * e1 * e2 + _G3 * a1 * a2) * _SLACK + TINY, inf)
    grads = ((i1 * s1, r1 * s1, up(up(e1 * s1, inf) + TINY, inf)),
             (i2 * s2, r2 * s2, up(up(e2 * s2, inf) + TINY, inf)),
             (-(r1 * i2 + i1 * r2) * s3, (i1 * i2 - r1 * r2) * s3,
              up(up(e3 * s3, inf) + TINY, inf)))
    if h:
        # sup|1 - 2z| <= |1 - 2c| + 2h about the center c, and 1 - 2x is
        # within half an ulp of its float.
        q1, q2 = up(hs1 / rho1, inf), up(hs2 / rho2, inf)
        t = up(_radius(up(abs(1.0 - 2.0 * x), inf), 2.0 * abs(y)) + up(2.0 * h, inf), inf)
        for f, g in ((s1, rho1), (s2, rho2)):  # sup|1 - 2z| / inf(|z| |1 - z|)
            t = up(up(t * f, inf) / g, inf)
        rems = (up(0.5 * up(q1 * q1, inf), inf), up(0.5 * up(q2 * q2, inf), inf),
                up(0.5 * up(up(q1 * q2, inf) * t, inf), inf))
    else:
        rems = (0.0, 0.0, 0.0)
    d = up(dx + dx, inf)
    sum_up = smallvol.jets._sum_up
    out = []
    for (c, ec), (p, q, eg), rem in zip(centres, grads, rems):
        cp, cq = p * delta, q * delta
        ap, aq = abs(cp), abs(cq)
        # The charges of coefficient i as p x_i + q y_i over the columns
        # x = (delta, 0) of Re z and y = (0, delta) of Im z: two products
        # and a sum, each EPS_PRIM |value| + TINY.
        e = sum_up((ec, rem, up(eg * d, inf),
                    up(EPS_PRIM * sum_up((ap, ap, aq, aq)) + 6.0 * TINY, inf)))
        if not e < inf:
            _reject(c, e)
        out.append((c, (cp, cq), e))
    return out


def _oriented(shapes, delta: float) -> bool:
    """Im > 0 on each shape's box of radius delta: the outward lower bound
    of Im z - delta, as a jet of the box's imaginary part would bound it."""
    return all((z.imag if not delta else _down(z.imag - _up(delta))) > 0.0
               for z in shapes)


def certified_volume(assignment: ShapeAssignment, tol: float = 1e-12) -> Interval:
    """Interval containing the volume of any true solution within delta.

    Exact shapes (delta = 0) are summed on the point layer
    (``_exact_volume``).  Otherwise each tetrahedron's three Lobachevsky
    terms are summed over its own two variables, as (center, coeffs, err)
    triples (``_angles``, ``lobachevsky._triple``, ``jets._add``), and the
    tetrahedra are added as (center, spread) pairs.
    """
    delta = float(assignment.delta)
    if not _oriented(assignment.shapes, delta):
        raise OrientationError(
            "tetrahedra not provably positively oriented within delta"
        )
    if delta == 0.0:
        return _interval(*_exact_volume(assignment.shapes))
    jets = smallvol.jets
    add, spread = jets._add, jets._spread
    total = err = 0.0
    for z in assignment.shapes:
        c, xs, e = 0.0, (), 0.0
        for a in _angles(z.real, z.imag, delta):
            c, xs, e = add(c, xs, e, *_triple(*a, tol))
        total, err = _add0(total, err, c, spread(xs, e))
    # The sum's spread as a dimension-0 jet bounds it.
    return _interval(total, spread((), err))


def _interval(c: float, s: float) -> Interval:
    """[c - s, c + s], rounded outward."""
    return Interval(_down(c - s), _up(c + s)) if s else Interval(c, c)


def _exact_volume(shapes) -> tuple:
    """Pair (center, err) enclosing the volume of the exact, positively
    oriented shapes: each angle of ``_centres`` through ``_point``.  A
    refusal names the tetrahedron, and the angle or quantity that
    failed."""
    total = err = 0.0
    for j, z in enumerate(shapes):
        x, y = z.real, z.imag
        try:
            angles = _centres(x, y, _add0(1.0, 0.0, -x, 0.0))
        except JetError:
            raise JetError(f"tetrahedron {j}: |z|^2 is not finite") from None
        for i, a in enumerate(angles, 1):
            try:
                v, e = _point(*a)
            except JetDomainError as exc:
                raise type(exc)(f"tetrahedron {j}: dihedral angle {i}: {exc}") from None
            total, err = _add0(total, err, v, e)
    return total, err


def prove_volume_gt(assignment: ShapeAssignment, threshold: float,
                    tol: float = 1e-12) -> bool:
    """True only if the certified volume interval lies strictly above
    ``threshold``; False whenever the computation is inconclusive."""
    try:
        return certified_volume(assignment, tol).lo > threshold
    except ValueError:
        return False
