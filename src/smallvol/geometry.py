"""Certified volumes of ideal triangulations from shape parameters.

An ideal tetrahedron with shape z (Im z > 0) has dihedral angles
arg z, arg 1/(1-z), arg (z-1)/z, and the volume of a triangulation is
the sum of the Lobachevsky function over all dihedral angles.  Given an
approximate shape assignment together with a distance bound ``delta``
on the true solution, every shape becomes a complex jet with two fresh
perturbation variables of radius delta, and the resulting volume jet
bounds the volume of any true solution within delta.  Exact shapes
(delta = 0) are dimension-0 jets, so their whole evaluation runs on the
jet core's plain-float path.

Each angle term depends only on its own tetrahedron's shape, so
tetrahedron j is evaluated over its own two variables, and only the
finished Lobachevsky terms are placed at coordinates 2j and 2j+1 of the
2n-variable volume jet.  The work per tetrahedron therefore does not
grow with n.  The bounds are the same, bit for bit, as over 2n shared
variables: a zero coefficient draws no rounding charge in any jet
operation and adds nothing to ``Jet.spread``, so the nonzero
coefficients, the charges and their order are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .jets import ComplexJet, Jet, JetDomainError, _jet, arg_complex
from .lobachevsky import lobachevsky


class Interval(NamedTuple):
    lo: float
    hi: float

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def width(self) -> float:
        return self.hi - self.lo


class OrientationError(ValueError):
    """A tetrahedron could not be proved positively oriented."""


@dataclass(frozen=True)
class ShapeAssignment:
    """Approximate shapes plus a solution-distance bound in C^n."""

    shapes: tuple
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "shapes", tuple(complex(z) for z in self.shapes))
        if not self.shapes:
            raise ValueError("shape assignment needs at least one tetrahedron")
        if not (self.delta >= 0.0 and self.delta < float("inf")):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta!r}")
        for j, z in enumerate(self.shapes):
            if z != z or abs(z) == float("inf"):
                raise ValueError(f"shape {j} is not finite")
            if abs(z) <= self.delta or abs(z - 1.0) <= self.delta:
                raise ValueError(
                    f"shape {j} = {z} is within delta of a degenerate value"
                )

    @property
    def count(self) -> int:
        return len(self.shapes)

    def shape_jets(self) -> list:
        """One ComplexJet per tetrahedron over its own two variables.

        Variable 0 moves the real part and variable 1 the imaginary part,
        each by at most delta: delta bounds the C^n distance to the true
        solution, so the per-coordinate box over-covers the delta-ball.
        Tetrahedron j's variables are coordinates 2j and 2j+1 of the
        volume jet (see ``certified_volume``).  With delta == 0 the shapes
        are exact and the jets have dimension 0.
        """
        if self.delta == 0.0:
            return [ComplexJet.constant(z) for z in self.shapes]
        return [ComplexJet.variable(z, 0, 1, self.delta, 2) for z in self.shapes]


def dihedral_angles(z: ComplexJet) -> tuple:
    """Angle jets (arg z, arg 1/(1-z), arg (z-1)/z) of one tetrahedron.

    |z|^2 and |1-z|^2 are computed once each: the same jets prove z away
    from 0 and 1 and then divide."""
    z_sq = z.abs_squared()
    if not z_sq.prove_positive():
        raise JetDomainError("shape not provably distinct from 0")
    one_minus = 1.0 - z
    one_minus_sq = one_minus.abs_squared()
    if not one_minus_sq.prove_positive():
        raise JetDomainError("shape not provably distinct from 1")
    a1 = arg_complex(z)
    a2 = arg_complex(one_minus.reciprocal(one_minus_sq))
    a3 = arg_complex((z - 1.0) * z.reciprocal(z_sq))
    return a1, a2, a3


def _oriented(shape_jets) -> bool:
    return all(zj.im.prove_positive() for zj in shape_jets)


def check_positive_orientation(assignment: ShapeAssignment) -> bool:
    """True only when every point within delta of every shape has Im > 0."""
    try:
        return _oriented(assignment.shape_jets())
    except JetDomainError:
        return False


def certified_volume(assignment: ShapeAssignment, tol: float = 1e-12) -> Interval:
    """Interval containing the volume of any true solution within delta.

    Each Lobachevsky term is evaluated over its tetrahedron's two local
    variables, then summed into a jet over all 2n, tetrahedron by
    tetrahedron and angle by angle, with tetrahedron j at 2j and 2j+1.
    A dimension-0 term (an exact shape) adds only its center and err.
    """
    shape_jets = assignment.shape_jets()
    if not _oriented(shape_jets):
        raise OrientationError(
            "tetrahedra not provably positively oriented within delta"
        )
    dim = 2 * assignment.count
    total = Jet.constant(0.0)
    for j, zj in enumerate(shape_jets):
        before, after = (0.0,) * (2 * j), (0.0,) * (dim - 2 * j - 2)
        for angle in dihedral_angles(zj):
            term = lobachevsky(angle, tol)
            if term.coeffs:
                term = _jet(term.center, before + term.coeffs + after, term.err)
            total = total + term
    lo, hi = total.bounds()
    return Interval(lo, hi)


def prove_volume_gt(assignment: ShapeAssignment, threshold: float,
                    tol: float = 1e-12) -> bool:
    """True only if the certified volume interval lies strictly above
    ``threshold``; False whenever the computation is inconclusive."""
    try:
        return certified_volume(assignment, tol).lo > threshold
    except (ValueError, JetDomainError):
        return False


def prove_volume_le(assignment: ShapeAssignment, threshold: float,
                    tol: float = 1e-12) -> bool:
    """True only if the certified volume interval lies at or below
    ``threshold``; False whenever the computation is inconclusive."""
    try:
        return certified_volume(assignment, tol).hi <= threshold
    except (ValueError, JetDomainError):
        return False
