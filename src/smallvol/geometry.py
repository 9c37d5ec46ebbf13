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

Given an approximate shape assignment together with a distance bound
``delta > 0`` on the true solution, every shape becomes a complex jet
(``jets.ComplexJet``, a pair of real jets) with two fresh perturbation
variables of radius delta, and the volume interval bounds the volume of
any true solution within delta; ``tol`` bounds the truncation of each
jet Lobachevsky series.  The jet classes are reached as
``smallvol.jets``, so exact shapes never load them.

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

from .lobachevsky import _point, lobachevsky
from .points import _add0, _arg_mod_pi, _mul0
from .rounding import JetDomainError, JetError, _down, _up


class Interval(namedtuple("Interval", "lo hi")):
    __slots__ = ()

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

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

    @property
    def count(self) -> int:
        return len(self.shapes)

    def shape_jets(self) -> list:
        """One ComplexJet per tetrahedron over its own two variables.

        Variable 0 moves the real part and variable 1 the imaginary part,
        each by at most delta: delta bounds the C^n distance to the true
        solution, so the per-coordinate box over-covers the delta-ball.
        Tetrahedra share no variable (see ``certified_volume``).  Exact
        shapes (delta == 0) need no jet; here they get zero-radius
        variables.
        """
        ComplexJet = smallvol.jets.ComplexJet
        return [ComplexJet.variable(z, 0, 1, self.delta, 2) for z in self.shapes]


def dihedral_angles(z: ComplexJet) -> tuple:
    """Angle jets (arg z, arg 1/(1-z), arg (z-1)/z) of one tetrahedron: the
    arguments of z, (1-x) + iy and (|z|^2-x) + iy (see the module docstring).

    |z|^2 and |1-z|^2 are computed once each, to prove z away from 0 and 1."""
    jets = smallvol.jets
    z_sq = z.abs_squared()
    if not z_sq.prove_positive():
        raise JetDomainError("shape not provably distinct from 0")
    w = jets.ComplexJet(1.0 - z.re, z.im)
    if not w.abs_squared().prove_positive():
        raise JetDomainError("shape not provably distinct from 1")
    a1 = jets.arg_complex(z)
    a2 = jets.arg_complex(w)
    a3 = jets.arg_complex(jets.ComplexJet(z_sq - z.re, z.im))
    return a1, a2, a3


def _oriented(shapes, delta: float) -> bool:
    """Im > 0 on each shape's box of radius delta: the outward lower bound
    of the imaginary-part jet of ``shape_jets``, with no jet built."""
    return all((z.imag if not delta else _down(z.imag - _up(delta))) > 0.0
               for z in shapes)


def check_positive_orientation(assignment: ShapeAssignment) -> bool:
    """True only when every point within delta of every shape has Im > 0."""
    return _oriented(assignment.shapes, assignment.delta)


def certified_volume(assignment: ShapeAssignment, tol: float = 1e-12) -> Interval:
    """Interval containing the volume of any true solution within delta.

    Exact shapes (delta = 0) are summed on the point layer
    (``_exact_volume``).  Otherwise each tetrahedron's three Lobachevsky
    terms are summed over its own two variables, and the tetrahedra are
    added as (center, spread) pairs.
    """
    if not _oriented(assignment.shapes, assignment.delta):
        raise OrientationError(
            "tetrahedra not provably positively oriented within delta"
        )
    if assignment.delta == 0.0:
        c, e = _exact_volume(assignment.shapes)
        return Interval(_down(c - e), _up(c + e)) if e else Interval(c, c)
    jets = smallvol.jets
    total = zero = jets.Jet.constant(0.0)
    for zj in assignment.shape_jets():
        term = sum((lobachevsky(a, tol) for a in dihedral_angles(zj)), zero)
        total = total + jets._jet(term.center, (), term.spread())
    lo, hi = total.bounds()
    return Interval(lo, hi)


def _exact_volume(shapes) -> tuple:
    """Pair (center, err) enclosing the volume of the exact, positively
    oriented shapes: for each z = x + iy, the angles of x + iy, (1 - x) +
    iy and (|z|^2 - x) + iy, each through ``_arg_mod_pi`` and ``_point``.
    A refusal names the tetrahedron, and the angle or quantity that
    failed."""
    total = err = 0.0
    for j, z in enumerate(shapes):
        x, y = z.real, z.imag
        w = _add0(1.0, 0.0, -x, 0.0)
        try:
            # |z|^2 - x as x (x - 1) + y^2, which keeps its relative
            # accuracy where |z|^2 and x nearly cancel (z near 1).
            zw = _add0(*_mul0(x, 0.0, -w[0], w[1]), *_mul0(y, 0.0, y, 0.0))
        except JetError:
            raise JetError(f"tetrahedron {j}: |z|^2 is not finite") from None
        for i, (r, er) in enumerate(((x, 0.0), w, zw), 1):
            try:
                v, e = _point(*_arg_mod_pi(r, er, y))
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


def prove_volume_le(assignment: ShapeAssignment, threshold: float,
                    tol: float = 1e-12) -> bool:
    """True only if the certified volume interval lies at or below
    ``threshold``; False whenever the computation is inconclusive."""
    try:
        return certified_volume(assignment, tol).hi <= threshold
    except ValueError:
        return False
