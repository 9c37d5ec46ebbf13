"""volume-screen: screening candidate shapes through the library API.

Each item builds a seeded ``ShapeAssignment`` of n = 1..4 tetrahedra.
Most items call ``certified_volume``, whose interval must hold the
mpmath volume at the centre shapes.  Shapes spread over the upper
half-plane; about one in seven sits at an angle near 0 or pi.  delta is
one of 0, 1e-12, 1e-8, 1e-4 and ``tol`` one of 1e-12, 1e-8, crossed
evenly.  One item in ten calls ``prove_volume_gt`` on a claim 1 % to
50 % below the volume, with delta at most 1e-8, and must prove it.  In
another one in ten a tetrahedron has Im z well below delta, and the
correct outcome is ``OrientationError`` (``False`` from
``prove_volume_gt``).  Only jets, Lobachevsky and geometry run here;
certification does none of the work.

The timed items hold no shape on which smallvol is known to fail.  While
``jets.arg_complex`` picks its branch by which sign of Re or Im it can
prove, not by which part dominates, a dihedral parameter w (z, 1/(1-z)
or 1-1/z) whose box lies close to an axis, relative to the box's size,
gets a useless atan enclosure, and ``certified_volume`` raises
``ReductionError`` or ``JetDomainError``.  So every generated shape keeps
min(|Re w|, |Im w|)^2 >= ``AXIS_CLEARANCE`` * r(w) * |w| for all three,
where r(w) is the radius delta gives w plus one ulp.  Failures start
near a ratio of 1 (over 8000 shapes drawn as here), so 20 leaves a wide
margin.  The cut rejects 13 % of the shapes drawn with delta = 1e-4
(nearly all of the near-flat ones among them), 0.2 % of those drawn
with delta = 1e-8 and none with smaller delta.  ``known_defects`` runs
two reproducers of that defect, untimed, and the run reports whether
they still fail.

A round of 40 items holds 23 items with n = 1, 3 each with n = 2 and 3,
7 with n = 4, and the 4 orientation rejects, so on every seed the median
lands well inside the n = 1 items and p90 inside the n = 4 items.
"""

from __future__ import annotations

import cmath
import math

from smallvol import geometry

from . import reference
from .common import Check, log_uniform, round_rng

NAME = "volume-screen"

DELTAS = (0.0, 1e-12, 1e-8, 1e-4)
TOLS = (1e-12, 1e-8)
COMBOS = tuple((d, t) for d in DELTAS for t in TOLS)
VOLUME_COUNTS = {1: 22, 2: 2, 3: 2, 4: 6}
AXIS_CLEARANCE = 20.0

# Reproducers of the arg_complex defect: oriented shapes whose correct
# outcome is an interval.  The first has 1 - 1/z within 1.5e-4 rad of
# pi/2; the second is nearly flat, with delta 1e-4.
ARG_REPROS = ((cmath.rect(0.8675, 0.52079), 1e-8),
              (complex(-1.6565746585139676, 0.010336541860134755), 1e-4))


def _clear_of_axes(z, delta) -> bool:
    """True when every dihedral parameter of z keeps its box clear of
    both axes (see the module docstring)."""
    zp = 1.0 / (1.0 - z)
    for w, scale in ((z, 1.0), (zp, abs(zp) ** 2), (1.0 - 1.0 / z, 1.0 / abs(z) ** 2)):
        r = delta * scale + 2.0 ** -52 * abs(w)
        if min(abs(w.real), abs(w.imag)) ** 2 < AXIS_CLEARANCE * r * abs(w):
            return False
    return True


def _valid_shape(rng, delta):
    """A shape that is provably oriented within delta, with room to spare."""
    while True:
        r = log_uniform(rng, 0.3, 3.0)
        if rng.random() < 0.15:
            theta = log_uniform(rng, 1e-3, 0.05)
            if rng.random() < 0.5:
                theta = math.pi - theta
        else:
            theta = rng.uniform(0.15, math.pi - 0.15)
        z = cmath.rect(r, theta)
        if abs(z - 1.0) >= 0.05 and z.imag >= 100.0 * delta and _clear_of_axes(z, delta):
            return z


def _flat_shape(rng, delta):
    """A shape with 0 < Im z < delta / 3, away from 0 and 1."""
    while True:
        x = rng.uniform(-2.0, 3.0)
        if min(abs(x), abs(x - 1.0)) >= 0.1:
            return complex(x, delta * rng.uniform(0.01, 0.3))


class VolumeItem:
    def __init__(self, shapes, delta, tol, flat):
        self.shapes, self.delta, self.tol, self.flat = shapes, delta, tol, flat

    def run(self):
        assignment = geometry.ShapeAssignment(self.shapes, self.delta)
        try:
            iv = geometry.certified_volume(assignment, tol=self.tol)
        except geometry.OrientationError:
            return None
        return iv.lo, iv.hi

    def check(self, outcome, _refs) -> Check:
        if self.flat:
            ok = outcome is None
            return Check(ok, "" if ok else "interval returned for a flat tetrahedron")
        if outcome is None:
            return Check(False, "OrientationError on an oriented assignment")
        lo, hi = outcome
        ok = reference.interval_contains_volume(lo, hi, self.shapes)
        width = (hi - lo) / reference.volume_fp(self.shapes)
        return Check(ok, "" if ok else "mpmath volume outside the interval", width)


class GtItem:
    def __init__(self, shapes, delta, tol, flat, threshold):
        self.shapes, self.delta, self.tol, self.flat = shapes, delta, tol, flat
        self.threshold = threshold

    def run(self):
        assignment = geometry.ShapeAssignment(self.shapes, self.delta)
        return geometry.prove_volume_gt(assignment, self.threshold, tol=self.tol)

    def check(self, outcome, _refs) -> Check:
        if self.flat:
            ok = outcome is False
            return Check(ok, "" if ok else "claim proven for a flat tetrahedron")
        true_claim = reference.volume_fp(self.shapes) > self.threshold
        ok = outcome is True and true_claim
        return Check(ok, "" if ok else "true volume claim not proven")


def make_round(seed: int, index: int, workdir: str) -> list:
    rng = round_rng(NAME, seed, index)
    items = []
    for n, count in VOLUME_COUNTS.items():
        start = rng.randrange(len(COMBOS))
        for i in range(count):
            delta, tol = COMBOS[(start + i) % len(COMBOS)]
            shapes = [_valid_shape(rng, delta) for _ in range(n)]
            items.append(VolumeItem(shapes, delta, tol, False))
    for n in (1, 2, 3, 4):
        delta = rng.choice(DELTAS[:3])
        shapes = [_valid_shape(rng, delta) for _ in range(n)]
        threshold = reference.volume_fp(shapes) * rng.uniform(0.5, 0.99)
        items.append(GtItem(shapes, delta, rng.choice(TOLS), False, threshold))
    for i in range(4):
        delta = DELTAS[2 + i % 2]
        n = rng.randint(1, 4)
        shapes = [_valid_shape(rng, delta) for _ in range(n)]
        shapes[rng.randrange(n)] = _flat_shape(rng, delta)
        if i < 2:
            items.append(VolumeItem(shapes, delta, rng.choice(TOLS), True))
        else:
            items.append(GtItem(shapes, delta, rng.choice(TOLS), True, 0.0))
    rng.shuffle(items)
    return items


def references():
    return None


def known_defects(_workdir: str) -> dict:
    """Untimed check of the open arg_complex defect."""
    failing = 0
    for z, delta in ARG_REPROS:
        try:
            geometry.certified_volume(geometry.ShapeAssignment([z], delta), tol=1e-12)
        except geometry.JetDomainError:  # ReductionError is one
            failing += 1
    return {"arg_complex": f"reproduces ({failing} of {len(ARG_REPROS)} fail)"
            if failing else "fixed"}
