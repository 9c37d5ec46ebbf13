import cmath
import math
import random

import mpmath
import pytest

from smallvol import geometry
from smallvol.geometry import (
    Interval,
    OrientationError,
    ShapeAssignment,
    certified_volume,
    prove_volume_gt,
)
from smallvol.certify import figure_eight_system, krawczyk_certify
from smallvol import jets
from smallvol.jets import ComplexJet, Jet, JetDomainError, pi_jet
from smallvol.lobachevsky import lobachevsky

from oracles import jet_contains_value, lobachevsky_quad, mp_arg

OMEGA = complex(0.5, math.sqrt(3) / 2)  # e^{i pi/3}, the regular shape
V_TET = None  # filled lazily: 3 L(pi/3)


def _v_tet():
    global V_TET
    if V_TET is None:
        V_TET = 3 * lobachevsky_quad(mpmath.pi / 3)
    return V_TET


def _bloch_wigner(z):
    """D(z) = Im Li2(z) + arg(1 - z) log|z| at 50 digits, through D(z) =
    -D(1/z) when |z| > 1, where the two terms would cancel."""
    with mpmath.workdps(50):
        w = mpmath.mpc(z)
        sign = 1
        if abs(w) > 1:
            w, sign = 1 / w, -1
        return sign * (mpmath.im(mpmath.polylog(2, w)) + mpmath.arg(1 - w) * mpmath.log(abs(w)))


def _refuse(*args):
    raise AssertionError("refused call on the volume path")


def _angle_jets(z, delta):
    """The box kernel's angle triples over the box of radius delta about
    z, as jets."""
    return [Jet(*t) for t in geometry._angles(z.real, z.imag, delta)]


def _principal(z, delta):
    """The principal angles (arg z, arg 1/(1-z), arg (z-1)/z) over a box
    in the upper half-plane: the volume kernel's angles modulo pi, with
    pi added to a negative center."""
    pi = pi_jet()
    return tuple(a + pi if math.copysign(1.0, a.center) < 0.0 else a
                 for a in _angle_jets(z, delta))


def _oriented(assignment):
    return geometry._oriented(assignment.shapes, assignment.delta)


class TestShapeAssignment:
    def test_valid(self):
        s = ShapeAssignment((OMEGA,), 0.0)
        assert s.shapes == (OMEGA,) and s.delta == 0.0
        # No property shadows the tuple method ``count``.
        assert ShapeAssignment.count is tuple.count

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ShapeAssignment((0.0005 + 0j,), 0.001)
        with pytest.raises(ValueError):
            ShapeAssignment((1.0005 + 0j,), 0.001)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ShapeAssignment((OMEGA,), -1e-9)

    @pytest.mark.parametrize("delta", (0.0, 1e-3))
    def test_finite_shape_whose_modulus_overflows(self, delta):
        # abs() of this finite shape raises OverflowError, which is no
        # ValueError; the assignment is built and its volume refused.
        s = ShapeAssignment((complex(1.7e308, 1.7e308),), delta)
        with pytest.raises(ValueError):
            certified_volume(s)
        assert not prove_volume_gt(s, 0.0)


class TestDihedralAngles:
    def test_regular_tetrahedron(self):
        angles = _principal(OMEGA, 0.0)
        third_pi = mpmath.pi / 3
        for a in angles:
            assert jet_contains_value(a, third_pi)

    def test_z_equals_i(self):
        angles = _principal(1j, 0.0)
        expected = (mpmath.pi / 2, mpmath.pi / 4, mpmath.pi / 4)
        for a, e in zip(angles, expected):
            assert jet_contains_value(a, e)

    def test_random_containment_vs_oracle(self):
        rng = random.Random(9)
        for _ in range(60):
            z = complex(rng.uniform(-1.5, 2.5), rng.uniform(0.15, 1.5))
            angles = _principal(z, 1e-4)
            for _ in range(5):
                dz = complex(rng.uniform(-1e-4, 1e-4), rng.uniform(-1e-4, 1e-4))
                w = z + dz
                true = (
                    mp_arg(w.real, w.imag),
                    mp_arg((1 / (1 - mpmath.mpc(w))).real, (1 / (1 - mpmath.mpc(w))).imag),
                    mp_arg(((mpmath.mpc(w) - 1) / mpmath.mpc(w)).real,
                           ((mpmath.mpc(w) - 1) / mpmath.mpc(w)).imag),
                )
                xs = (dz.real / 1e-4, dz.imag / 1e-4)
                for a, t in zip(angles, true):
                    lin = a.center + a.coeffs[0] * xs[0] + a.coeffs[1] * xs[1]
                    assert lin - a.err <= float(t) <= lin + a.err

    def test_angle_sum_contains_pi(self):
        rng = random.Random(10)
        for _ in range(40):
            z = complex(rng.uniform(-1, 2), rng.uniform(0.2, 1.5))
            a1, a2, a3 = _principal(z, 1e-5)
            total = a1 + a2 + a3
            assert jet_contains_value(total, mpmath.pi)

    def test_degenerate_shape_rejected(self):
        with pytest.raises(JetDomainError):
            _principal(0.001 + 0.001j, 0.01)


def _mod_pi_angles(x, y):
    """The three dihedral angles of x + iy (y > 0) modulo pi at 50 digits,
    as atan(y / R) in (-pi/2, pi/2] for R = x, 1 - x and x (x - 1) + y^2,
    so a near-flat angle keeps its relative accuracy."""
    out = []
    for r in (x, 1 - x, x * (x - 1) + y * y):
        out.append(mpmath.atan(y / r) if r else mpmath.pi / 2)
    return out


def _kernel_boxes():
    """(z, delta) for the angle-kernel oracle: |z| from 1e-150 to 1e150
    at angles spread over (0, pi) and within 1e-12..0.1 of 0 or pi,
    shapes near 1, and centres one ulp off each axis, with delta up to
    1e-4 |z| and below Im z / 2."""
    rng = random.Random(24)
    shapes = []
    for _ in range(100):
        flat = 10.0 ** rng.uniform(-12, -1)
        theta = rng.choice((rng.uniform(0.02, math.pi - 0.02), flat, math.pi - flat))
        shapes.append(cmath.rect(10.0 ** rng.uniform(-150, 150), theta))
    for _ in range(20):
        shapes.append(1.0 + cmath.rect(10.0 ** rng.uniform(-12, -1),
                                       rng.uniform(0.02, math.pi - 0.02)))
    shapes += _one_ulp_off_the_axes()
    return [(z, min(abs(z) * 10.0 ** rng.uniform(-16, -4), 0.5 * z.imag))
            for z in shapes]


class TestAngleKernel:
    """Each angle triple is Im F(z) for a holomorphic F: the angle at the
    centre, the gradient (Im F', Re F') times delta as the coefficients,
    and a Lagrange remainder from the distances of the box to 0 and 1."""

    def test_oracle_sweep(self):
        # Every sampled member's angle lies in the triple evaluated there:
        # modulo pi for the kernel, and principal once pi is added to a
        # negative centre.
        rng = random.Random(25)
        bad = []
        with mpmath.workdps(50):
            for z, delta in _kernel_boxes():
                mod_pi = _angle_jets(z, delta)
                principal = _principal(z, delta)
                for xs in ((1, 1), (1, -1), (-1, 1), (-1, -1),
                           (rng.uniform(-1, 1), rng.uniform(-1, 1))):
                    x = mpmath.mpf(z.real) + mpmath.mpf(delta) * xs[0]
                    y = mpmath.mpf(z.imag) + mpmath.mpf(delta) * xs[1]
                    for a, p, v in zip(mod_pi, principal, _mod_pi_angles(x, y)):
                        lin = mpmath.mpf(a.center) + sum(
                            mpmath.mpf(k) * t for k, t in zip(a.coeffs, xs))
                        k = mpmath.nint((v - lin) / mpmath.pi)
                        if not abs(v - k * mpmath.pi - lin) <= a.err:
                            bad.append((z, delta, xs))
                        true = v if v > 0 else v + mpmath.pi
                        lin = mpmath.mpf(p.center) + sum(
                            mpmath.mpf(k) * t for k, t in zip(p.coeffs, xs))
                        if not abs(true - lin) <= p.err:
                            bad.append((z, delta, xs, "principal"))
        assert not bad, bad[:5]

    @pytest.mark.parametrize("unit", (1 + 1j, -1 + 3j))
    def test_huge_shape_keeps_a_third_angle_narrower_than_its_centre(self, unit):
        # The third angle is about Im z / |z|^2; F3' = -(1/z)(1/(1-z)) as
        # one product does not cancel, and the remainder is built from
        # ratios, so nothing over- or underflows.
        z = unit * 1e150
        for a3 in (_angle_jets(z, abs(z) * 1e-9)[2], _principal(z, abs(z) * 1e-9)[2]):
            assert 0.0 < a3.spread() < a3.center

    @pytest.mark.parametrize("z, delta, message", (
        (1.001 + 0.001j, 0.01, "distinct from 1"),
        (0.001 + 0.02j, 0.015, "distinct from 0"),
        (2.0 + 0.001j, 0.01, "quadrant not provable")))
    def test_refuses_boxes_meeting_0_1_or_the_real_axis(self, z, delta, message):
        with pytest.raises(JetDomainError, match=message):
            geometry._angles(z.real, z.imag, delta)

    def test_lower_half_plane_is_refused(self):
        # The kernel takes boxes above the axis only; the conjugate's
        # principal angles enclose the negated angles of z.
        z = complex(0.3, -0.8)
        with pytest.raises(JetDomainError, match="quadrant not provable"):
            geometry._angles(z.real, z.imag, 1e-6)
        above = _principal(z.conjugate(), 1e-6)
        for a, t in zip(above, (cmath.phase(z), cmath.phase(1 / (1 - z)),
                                cmath.phase((z - 1) / z))):
            assert jet_contains_value(a, -t)

    @pytest.mark.parametrize("name", ("fig8", "n4"))
    @pytest.mark.parametrize("delta", (1e-8, 1e-4))
    def test_volume_path_runs_no_jet_angle_operation(self, monkeypatch, name, delta):
        # No modulus is squared, no jet divided and no atan taken: a change
        # that puts the jet-division angles back fails here.
        s = ShapeAssignment(GOLDEN_SHAPES[name], delta)
        expected = certified_volume(s)
        monkeypatch.setattr(jets, "arg_complex", _refuse)
        monkeypatch.setattr(jets, "atan_jet", _refuse)
        monkeypatch.setattr(ComplexJet, "abs_squared", _refuse)
        monkeypatch.setattr(Jet, "reciprocal", _refuse)
        assert certified_volume(s) == expected

    @pytest.mark.parametrize("z, delta", ((2 + 1e-9j, 2e-300),
                                          (0.5 + 1.1102230246251565e-16j, 5e-301)))
    def test_near_flat_shapes_as_narrow_as_exact_ones(self, z, delta):
        # The first was 7.0e-14 wide on the jet-division path (1.25e-22 at
        # delta = 0); the second straddled zero there, the angle near pi
        # meeting pi's enclosure.  The angles are taken modulo pi.
        iv = certified_volume(ShapeAssignment((z,), delta))
        vol = _bloch_wigner(z)
        assert mpmath.mpf(iv.lo) <= vol <= mpmath.mpf(iv.hi)
        assert iv.width() <= 1.1 * certified_volume(ShapeAssignment((z,), 0.0)).width()


class TestEachValueOnce:
    def test_dihedral_angles_square_each_modulus_once(self, monkeypatch):
        # |z|^2 and |1 - z|^2 are each formed once, as scaled point pairs
        # inside ``points._recip_scaled``; no jet squares a modulus.
        calls = []
        original = geometry._recip_scaled

        def counted(a, ea, b):
            calls.append((a, b))
            return original(a, ea, b)

        monkeypatch.setattr(geometry, "_recip_scaled", counted)
        monkeypatch.setattr(ComplexJet, "abs_squared", _refuse)
        geometry._angles(OMEGA.real, OMEGA.imag, 1e-9)
        assert calls == [(OMEGA.real, OMEGA.imag), (1.0 - OMEGA.real, -OMEGA.imag)]

    def test_complex_jet_has_no_complex_arithmetic(self):
        # Each angle is the argument of a polynomial in Re z and Im z, so a
        # complex jet is a pair of real jets with no operations of its own.
        for name in ("_lift", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__mul__", "__rmul__", "conjugate", "prove_nonzero", "reciprocal",
                     "__truediv__", "__rtruediv__"):
            assert not hasattr(ComplexJet, name), name

    def test_certified_volume_runs_the_box_kernel_once_per_shape(self, monkeypatch):
        calls = []
        original = geometry._angles

        def counted(x, y, delta):
            calls.append((x, y, delta))
            return original(x, y, delta)

        monkeypatch.setattr(geometry, "_angles", counted)
        certified_volume(ShapeAssignment((OMEGA, OMEGA), 1e-9))
        assert calls == [(OMEGA.real, OMEGA.imag, 1e-9)] * 2


class TestOrientation:
    def test_regular_true(self):
        assert _oriented(ShapeAssignment((OMEGA,), 0.0))

    def test_ball_crossing_axis_false(self):
        assert not _oriented(
            ShapeAssignment((0.5 + 0.001j,), 0.01)
        )

    def test_figure_eight_small_delta(self):
        assert _oriented(ShapeAssignment((OMEGA, OMEGA), 1e-6))

    @pytest.mark.parametrize("y, delta, oriented", (
        (5e-324, 0.0, True), (0.0, 0.0, False), (-1e-300, 0.0, False),
        (-5e-324, 0.0, False),
        # Im z = delta, and two ulps above it: the outward step of delta
        # and of the difference leaves one ulp.
        (1e-3, 1e-3, False), (math.nextafter(math.nextafter(1e-3, 1), 1), 1e-3, True),
        # Subnormal delta: 3 quanta minus 2 rounds down to 0, 4 minus 2 does not.
        (5e-324, 5e-324, False), (1.5e-323, 5e-324, False), (2e-323, 5e-324, True),
    ))
    def test_imaginary_part_minus_delta_decides(self, y, delta, oriented):
        # The point-layer test decides as the imaginary-part jet would.
        assert Jet.variable(y, 1, delta, 2).prove_positive() is oriented
        z = complex(0.5, y)
        assert _oriented(ShapeAssignment((OMEGA, z), delta)) is oriented


class TestCertifiedVolume:
    def test_regular_tetrahedron_volume(self):
        iv = certified_volume(ShapeAssignment((OMEGA,), 0.0))
        v = _v_tet()
        assert iv.lo <= float(v) <= iv.hi
        assert str(v)[:12] == "1.0149416064"
        assert iv.width() < 1e-6

    def test_figure_eight_volume(self):
        iv = certified_volume(ShapeAssignment((OMEGA, OMEGA), 0.0))
        v = 2 * _v_tet()
        assert iv.lo <= float(v) <= iv.hi
        assert str(v)[:12] == "2.0298832128"

    def test_figure_eight_with_delta_still_contains(self):
        iv = certified_volume(ShapeAssignment((OMEGA, OMEGA), 1e-3))
        assert iv.lo <= 2.0298832128 <= iv.hi

    def test_monotone_inflation(self):
        s1 = ShapeAssignment((OMEGA, OMEGA), 1e-6)
        s2 = ShapeAssignment((OMEGA, OMEGA), 1e-4)
        iv1 = certified_volume(s1)
        iv2 = certified_volume(s2)
        mid = 0.5 * (iv1.lo + iv1.hi)
        assert iv2.lo <= mid <= iv2.hi

    def test_oracle_containment_random_shapes(self):
        rng = random.Random(12)
        for _ in range(100):
            z = complex(rng.uniform(-1, 2), rng.uniform(0.2, 1.6))
            iv = certified_volume(ShapeAssignment((z,), 0.0))
            with mpmath.workdps(30):
                w = mpmath.mpc(z)
                vol = (
                    lobachevsky_quad(mpmath.arg(w))
                    + lobachevsky_quad(mpmath.arg(1 / (1 - w)))
                    + lobachevsky_quad(mpmath.arg((w - 1) / w))
                )
            assert iv.lo <= float(vol) <= iv.hi

    @pytest.mark.parametrize("z, delta", ((cmath.rect(0.8675, 0.52079), 1e-8),
                                          (complex(-1.65657, 0.010337), 1e-4)))
    def test_near_axis_dihedral_parameters(self, z, delta):
        # One dihedral parameter lies close to an axis relative to the box.
        iv = certified_volume(ShapeAssignment((z,), delta))
        with mpmath.workdps(30):
            w = mpmath.mpc(z)
            vol = (
                lobachevsky_quad(mpmath.arg(w))
                + lobachevsky_quad(mpmath.arg(1 / (1 - w)))
                + lobachevsky_quad(mpmath.arg((w - 1) / w))
            )
            assert mpmath.mpf(iv.lo) <= vol <= mpmath.mpf(iv.hi)

    @pytest.mark.parametrize("z", (1e-60 + 1e-60j, 2e-55 + 1e-55j, 1e-70 + 3e-70j))
    @pytest.mark.parametrize("delta", (0.0, 1e-75))
    def test_tiny_shapes_contain_the_bloch_wigner_volume(self, z, delta):
        # A reciprocal of |z|^2 here once had b0^2 * m underflowing, and
        # raised "range too close to zero".
        iv = certified_volume(ShapeAssignment((z,), delta))
        vol = _bloch_wigner(z)
        assert vol > 0
        assert mpmath.mpf(iv.lo) <= vol <= mpmath.mpf(iv.hi)

    @pytest.mark.parametrize("e", range(-150, 151, 15))
    @pytest.mark.parametrize("unit", (1 + 1j, -1 + 3j, 0.5 + 0.001j))
    @pytest.mark.parametrize("rel_delta", (0.0, 1e-9))
    def test_extreme_shapes_contain_the_bloch_wigner_volume(self, e, unit, rel_delta):
        # |z| from 1e-150 to 1e150.  The third angle is about 1/|z| for a
        # huge shape; as the argument of (z - 1)(1/z) it once cancelled
        # below its own rounding error, so 1e105+1e105j and 1e120+1e120j
        # were refused.
        z = unit * 10.0 ** e
        iv = certified_volume(ShapeAssignment((z,), abs(z) * rel_delta))
        vol = _bloch_wigner(z)
        assert mpmath.mpf(iv.lo) <= vol <= mpmath.mpf(iv.hi)

    @pytest.mark.parametrize("delta", (0.0, 1e-3))
    def test_orientation_failure_raises(self, monkeypatch, delta):
        # Refused before any box is evaluated.
        monkeypatch.setattr(geometry, "_angles", _refuse)
        with pytest.raises(OrientationError):
            certified_volume(ShapeAssignment((0.5 - 0.9j,), delta))


def _near_flat_shapes():
    """Shapes within a few degrees of the real axis, at every scale of
    |z| from 1e-150 to 1e150, on both sides of 0 and 1."""
    rng = random.Random(16)
    out = []
    for e in range(-150, 151, 25):
        for _ in range(4):
            angle = 10.0 ** rng.uniform(-12, -1) * rng.choice((1, 1, 1, -1))
            out.append(cmath.rect(10.0 ** e * rng.uniform(0.5, 2.0),
                                  angle if angle > 0 else math.pi + angle))
    return out


def _one_ulp_off_the_axes():
    """z one ulp above the real axis, one ulp left or right of the
    imaginary axis, and one ulp to each side of the line Re z = 1."""
    out = []
    for x in (-3.0, -1.0, 1e-3, 0.25, 0.5, 1 - 2.0 ** -53, 1 + 2.0 ** -52, 1.5, 2.0, 7.0):
        out.append(complex(x, math.ulp(x)))
    for y in (1e-3, 0.5, 1.0, 2.0, 10.0):
        out += [complex(math.ulp(y), y), complex(-math.ulp(y), y),
                complex(math.nextafter(1.0, 2.0), y), complex(math.nextafter(1.0, 0.0), y)]
    return out


class TestExactShapes:
    """delta = 0: the volume is summed on the point layer, with no jet."""

    @pytest.mark.parametrize("z", _near_flat_shapes() + _one_ulp_off_the_axes())
    def test_contains_the_bloch_wigner_volume(self, z):
        iv = certified_volume(ShapeAssignment((z,), 0.0))
        vol = _bloch_wigner(z)
        assert mpmath.mpf(iv.lo) <= vol <= mpmath.mpf(iv.hi)

    @pytest.mark.parametrize("z", (1e8 + 1e-300j, 1e10 + 1e-300j))
    def test_near_flat_shape_with_a_large_real_part(self, z):
        # Two angles are below 1e-300, so err^2 underflows in their
        # Lobachevsky remainder, which is then bounded as err (err / d) / 2.
        # The volumes are below 1e-314 and are enclosed within 3e-319.  The
        # reference is a Clausen sum over the three angles: an angle near
        # pi needs 300 digits.
        iv = certified_volume(ShapeAssignment((z,), 0.0))
        with mpmath.workdps(400):
            w = mpmath.mpc(z)
            angles = (mpmath.arg(w), mpmath.arg(1 / (1 - w)), mpmath.arg((w - 1) / w))
            vol = sum(mpmath.clsin(2, 2 * a) for a in angles) / 2
            assert mpmath.mpf(iv.lo) <= vol <= mpmath.mpf(iv.hi)
        assert 0.0 < iv.lo and iv.width() < 3e-319

    def test_no_wider_than_the_jet_series(self):
        # The jet path at tol = 1e-12, reached through a box of radius 0
        # per shape; exact-shape enclosures are never wider.
        rng = random.Random(17)
        zero = Jet.constant(0.0)
        for _ in range(200):
            theta = rng.choice((rng.uniform(0.02, math.pi - 0.02),
                                10.0 ** rng.uniform(-6, -2)))
            z = cmath.rect(10.0 ** rng.uniform(-3, 3), theta)
            iv = certified_volume(ShapeAssignment((z,), 0.0))
            assert mpmath.mpf(iv.lo) <= _bloch_wigner(z) <= mpmath.mpf(iv.hi)
            angles = _principal(z, 0.0)
            jet_lo, jet_hi = sum((lobachevsky(a, 1e-12) for a in angles), zero).bounds()
            assert iv.width() <= jet_hi - jet_lo, z

    def test_builds_no_jet(self, monkeypatch):
        def refuse(jet):
            raise AssertionError("jet constructed")

        monkeypatch.setattr(Jet, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="jet constructed"):
            Jet.constant(0.0)
        iv = certified_volume(ShapeAssignment(GOLDEN_SHAPES["n16"], 0.0))
        assert iv.lo <= iv.hi
        assert not prove_volume_gt(ShapeAssignment((0.5 - 0.9j,), 0.0), 0.0)
        with pytest.raises(ValueError, match="tetrahedron 0: [|]z[|]"):
            certified_volume(ShapeAssignment((complex(1e154, 1e154),), 0.0))

    def test_tol_does_not_change_the_bounds(self):
        s = ShapeAssignment(GOLDEN_SHAPES["n4"], 0.0)
        assert len({certified_volume(s, tol) for tol in (1e-3, 1e-8, 1e-12, 1e-300)}) == 1


class TestProveVolume:
    def test_figure_eight_gt_2(self):
        assert prove_volume_gt(ShapeAssignment((OMEGA, OMEGA), 0.0), 2.0)

    def test_figure_eight_not_gt_2848(self):
        assert not prove_volume_gt(ShapeAssignment((OMEGA, OMEGA), 0.0), 2.848)

    def test_single_tet_gt_weeks_threshold(self):
        assert prove_volume_gt(ShapeAssignment((OMEGA,), 0.0), 0.943)

    def test_never_both(self):
        rng = random.Random(14)
        for _ in range(30):
            z = complex(rng.uniform(-0.5, 1.5), rng.uniform(0.3, 1.2))
            s = ShapeAssignment((z,), 1e-8)
            t = rng.uniform(0.0, 1.2)
            assert not (prove_volume_gt(s, t) and certified_volume(s).hi <= t)

    def test_inconclusive_is_false(self):
        # negative imaginary part: orientation fails, the prover declines
        s = ShapeAssignment((0.5 - 0.9j,), 0.0)
        assert not prove_volume_gt(s, 0.1)
        with pytest.raises(OrientationError):
            certified_volume(s)


def _golden_shapes(n):
    rng = random.Random(f"golden/{n}")
    out = []
    while len(out) < n:
        z = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.3, math.pi - 0.3))
        if abs(z - 1.0) > 0.2:
            out.append(z)
    return tuple(out)


GOLDEN_SHAPES = {"tet": (OMEGA,), "fig8": (OMEGA, OMEGA),
                 **{f"n{n}": _golden_shapes(n) for n in (1, 2, 3, 4, 8, 16)}}

# Volume bounds as float.hex, captured from an earlier jet core that
# validated every jet as it built it and charged rounding through a
# separate accumulator object (x86-64, glibc libm).  The n8 and
# n16 rows were captured from the volume path that evaluated every
# tetrahedron over all 2n shared variables, before each tetrahedron got
# its own two.  A later volume path may only tighten a row: its bounds
# must lie inside the row's last pin and are pinned anew.
GOLDEN_VOLUMES = (
    ("tet", 0.0, 1e-12, "0x1.03d3368ee093dp+0", "0x1.03d3368ee1773p+0"),
    ("fig8", 0.0, 1e-12, "0x1.03d3368ee093cp+1", "0x1.03d3368ee1774p+1"),
    ("fig8", 1e-08, 1e-12, "0x1.03d3368ee091dp+1", "0x1.03d3368ee1793p+1"),
    ("n1", 0.0, 1e-12, "0x1.b9b5f280350abp-1", "0x1.b9b5f2803c05dp-1"),
    ("n1", 0.0, 1e-08, "0x1.b9b5f238d2a6cp-1", "0x1.b9b5f2b2753b8p-1"),
    ("n1", 1e-08, 1e-12, "0x1.b9b5f230773f2p-1", "0x1.b9b5f2cff9d16p-1"),
    ("n1", 1e-08, 1e-08, "0x1.b9b5f1e914da9p-1", "0x1.b9b5f302330a7p-1"),
    ("n1", 0.0001, 1e-12, "0x1.b9a99184b05ffp-1", "0x1.b9c2537bc0badp-1"),
    ("n1", 0.0001, 1e-08, "0x1.b9a9913d39a62p-1", "0x1.b9c253ae8123ap-1"),
    ("n2", 0.0, 1e-12, "0x1.b10ab216aae1ep+0", "0x1.b10ab216af178p+0"),
    ("n2", 0.0, 1e-08, "0x1.b10ab1e0eec4dp+0", "0x1.b10ab249640cbp+0"),
    ("n2", 1e-08, 1e-12, "0x1.b10ab1e418d4ap+0", "0x1.b10ab2494124cp+0"),
    ("n2", 1e-08, 1e-08, "0x1.b10ab1ae5cb6cp+0", "0x1.b10ab27bf61b4p+0"),
    ("n2", 0.0001, 1e-12, "0x1.b102dea7a5e56p+0", "0x1.b1128585b415ap+0"),
    ("n2", 0.0001, 1e-08, "0x1.b102de71c9808p+0", "0x1.b11285b89c4bcp+0"),
    ("n3", 0.0, 1e-12, "0x1.4c91ce8c54aacp+1", "0x1.4c91ce8c58c82p+1"),
    ("n3", 0.0, 1e-08, "0x1.4c91ce3b7fdb4p+1", "0x1.4c91cecfb38dcp+1"),
    ("n3", 1e-08, 1e-12, "0x1.4c91ce719f245p+1", "0x1.4c91cea70e4e9p+1"),
    ("n3", 1e-08, 1e-08, "0x1.4c91ce20ca54cp+1", "0x1.4c91ceea6915cp+1"),
    ("n3", 0.0001, 1e-12, "0x1.4c8dac6ab7bacp+1", "0x1.4c95f0adf5ba4p+1"),
    ("n3", 0.0001, 1e-08, "0x1.4c8dac19dfb5ep+1", "0x1.4c95f0f18985ep+1"),
    ("n4", 0.0, 1e-12, "0x1.330819d9f0990p+1", "0x1.330819d9f3516p+1"),
    ("n4", 0.0, 1e-08, "0x1.330819a48045bp+1", "0x1.33081a15727dfp+1"),
    ("n4", 1e-08, 1e-12, "0x1.330819a3a5054p+1", "0x1.33081a103ee52p+1"),
    ("n4", 1e-08, 1e-08, "0x1.3308196e34b09p+1", "0x1.33081a4bbe12fp+1"),
    ("n4", 0.0001, 1e-12, "0x1.32ffb81dffa64p+1", "0x1.33107b95e4428p+1"),
    ("n4", 0.0001, 1e-08, "0x1.32ffb7e857f49p+1", "0x1.33107bd191443p+1"),
    ("n8", 0.0, 1e-12, "0x1.796649be125dcp+2", "0x1.796649be16c7ap+2"),
    ("n8", 0.0, 1e-08, "0x1.7966496f4430fp+2", "0x1.79664a11b813bp+2"),
    ("n8", 1e-08, 1e-12, "0x1.796649872e619p+2", "0x1.796649f4fac3dp+2"),
    ("n8", 1e-08, 1e-08, "0x1.7966493860338p+2", "0x1.79664a489c114p+2"),
    ("n8", 0.0001, 1e-12, "0x1.795dca83c0118p+2", "0x1.796ec8f86914cp+2"),
    ("n8", 0.0001, 1e-08, "0x1.795dca34bce95p+2", "0x1.796ec94c3e833p+2"),
    ("n16", 0.0, 1e-12, "0x1.63252e1082b83p+3", "0x1.63252e1086fabp+3"),
    ("n16", 0.0, 1e-08, "0x1.63252dcceb174p+3", "0x1.63252e550aebcp+3"),
    ("n16", 1e-08, 1e-12, "0x1.63252dcd5b7adp+3", "0x1.63252e53ae381p+3"),
    ("n16", 1e-08, 1e-08, "0x1.63252d89c3d90p+3", "0x1.63252e98322a4p+3"),
    ("n16", 0.0001, 1e-12, "0x1.631ad382bdaf7p+3", "0x1.632f889e4c039p+3"),
    ("n16", 0.0001, 1e-08, "0x1.631ad33f0033cp+3", "0x1.632f88e2fe436p+3"),
)


# The bounds of the jet core that charges err_a * err_b once and no
# up(0.0) cross term, where they differ from GOLDEN_VOLUMES.
TIGHTENED_VOLUMES = {
    ("n1", 0.0001, 1e-12): ("0x1.b9a99184b31e1p-1", "0x1.b9c2537bbdfcbp-1"),
    ("n1", 0.0001, 1e-08): ("0x1.b9a9913d3c656p-1", "0x1.b9c253ae7e646p-1"),
    ("n2", 0.0001, 1e-12): ("0x1.b102dea7a6c27p+0", "0x1.b1128585b3389p+0"),
    ("n2", 0.0001, 1e-08): ("0x1.b102de71ca5e1p+0", "0x1.b11285b89b6e3p+0"),
    ("n3", 0.0001, 1e-12): ("0x1.4c8dac6ab821dp+1", "0x1.4c95f0adf5533p+1"),
    ("n3", 0.0001, 1e-08): ("0x1.4c8dac19e01d9p+1", "0x1.4c95f0f1891e3p+1"),
    ("n4", 0.0001, 1e-12): ("0x1.32ffb81e010cap+1", "0x1.33107b95e2dc2p+1"),
    ("n4", 0.0001, 1e-08): ("0x1.32ffb7e8595bfp+1", "0x1.33107bd18fdcdp+1"),
    ("n8", 0.0001, 1e-12): ("0x1.795dca83c31dfp+2", "0x1.796ec8f866085p+2"),
    ("n8", 0.0001, 1e-08): ("0x1.795dca34bff66p+2", "0x1.796ec94c3b762p+2"),
    ("n16", 0.0001, 1e-12): ("0x1.631ad382bee8ep+3", "0x1.632f889e4aca2p+3"),
    ("n16", 0.0001, 1e-08): ("0x1.631ad33f016dep+3", "0x1.632f88e2fd094p+3"),
}


# The bounds of the volume path that takes each dihedral angle as the
# argument of a polynomial in the shape and sums each tetrahedron over its
# own two variables, for every GOLDEN_VOLUMES row.  Each lies inside the
# row's earlier pin: its TIGHTENED_VOLUMES value where there is one, else
# the row itself.  The delta = 0 rows are those of the point-layer path
# for exact shapes, each inside its JET_PATH_EXACT_VOLUMES pin.  The
# delta > 0 rows are those of the point-layer angle kernel, each inside
# its JET_ANGLE_VOLUMES pin.
PINNED_VOLUMES = {
    ("tet", 0.0, 1e-12): ("0x1.03d3368ee10fdp+0", "0x1.03d3368ee1125p+0"),
    ("fig8", 0.0, 1e-12): ("0x1.03d3368ee10fdp+1", "0x1.03d3368ee1125p+1"),
    ("fig8", 1e-08, 1e-12): ("0x1.03d3368ee0940p+1", "0x1.03d3368ee1770p+1"),
    ("n1", 0.0, 1e-12): ("0x1.b9b5f280394c2p-1", "0x1.b9b5f28039504p-1"),
    ("n1", 0.0, 1e-08): ("0x1.b9b5f280394c2p-1", "0x1.b9b5f28039504p-1"),
    ("n1", 1e-08, 1e-12): ("0x1.b9b5f23077471p-1", "0x1.b9b5f2cff9c97p-1"),
    ("n1", 1e-08, 1e-08): ("0x1.b9b5f1e914e28p-1", "0x1.b9b5f3023302ap-1"),
    ("n1", 0.0001, 1e-12): ("0x1.b9a9baaa3510ap-1", "0x1.b9c22a563c0a4p-1"),
    ("n1", 0.0001, 1e-08): ("0x1.b9a9ba62be422p-1", "0x1.b9c22a88fc640p-1"),
    ("n2", 0.0, 1e-12): ("0x1.b10ab216ad153p+0", "0x1.b10ab216ad191p+0"),
    ("n2", 0.0, 1e-08): ("0x1.b10ab216ad153p+0", "0x1.b10ab216ad191p+0"),
    ("n2", 1e-08, 1e-12): ("0x1.b10ab1e418da2p+0", "0x1.b10ab249411f2p+0"),
    ("n2", 1e-08, 1e-08): ("0x1.b10ab1ae5cbc5p+0", "0x1.b10ab27bf615bp+0"),
    ("n2", 0.0001, 1e-12): ("0x1.b102f593c8f86p+0", "0x1.b1126e999102cp+0"),
    ("n2", 0.0001, 1e-08): ("0x1.b102f55dec8dep+0", "0x1.b1126ecc7932ep+0"),
    ("n3", 0.0, 1e-12): ("0x1.4c91ce8c56f29p+1", "0x1.4c91ce8c56f5bp+1"),
    ("n3", 0.0, 1e-08): ("0x1.4c91ce8c56f29p+1", "0x1.4c91ce8c56f5bp+1"),
    ("n3", 1e-08, 1e-12): ("0x1.4c91ce719f278p+1", "0x1.4c91cea70e4b8p+1"),
    ("n3", 1e-08, 1e-08): ("0x1.4c91ce20ca57fp+1", "0x1.4c91ceea69129p+1"),
    ("n3", 0.0001, 1e-12): ("0x1.4c8db8360f5f6p+1", "0x1.4c95e4e29e158p+1"),
    ("n3", 0.0001, 1e-08): ("0x1.4c8db7e53754dp+1", "0x1.4c95e52631dabp+1"),
    ("n4", 0.0, 1e-12): ("0x1.330819d9f1d1fp+1", "0x1.330819d9f1d51p+1"),
    ("n4", 0.0, 1e-08): ("0x1.330819d9f1d1fp+1", "0x1.330819d9f1d51p+1"),
    ("n4", 1e-08, 1e-12): ("0x1.330819a3a50b2p+1", "0x1.33081a103edf4p+1"),
    ("n4", 1e-08, 1e-08): ("0x1.3308196e34b67p+1", "0x1.33081a4bbe0d1p+1"),
    ("n4", 0.0001, 1e-12): ("0x1.32ffcbba0f6a6p+1", "0x1.331067f9d47e6p+1"),
    ("n4", 0.0001, 1e-08): ("0x1.32ffcb8467b4fp+1", "0x1.33106835817bfp+1"),
    ("n8", 0.0, 1e-12): ("0x1.796649be1490cp+2", "0x1.796649be14950p+2"),
    ("n8", 0.0, 1e-08): ("0x1.796649be1490cp+2", "0x1.796649be14950p+2"),
    ("n8", 1e-08, 1e-12): ("0x1.796649872e67dp+2", "0x1.796649f4fabd7p+2"),
    ("n8", 1e-08, 1e-08): ("0x1.796649386039bp+2", "0x1.79664a489c0afp+2"),
    ("n8", 0.0001, 1e-12): ("0x1.795de2f102bcbp+2", "0x1.796eb08b26699p+2"),
    ("n8", 0.0001, 1e-08): ("0x1.795de2a1ff92fp+2", "0x1.796eb0defbd63p+2"),
    ("n16", 0.0, 1e-12): ("0x1.63252e1084c83p+3", "0x1.63252e1084cd3p+3"),
    ("n16", 0.0, 1e-08): ("0x1.63252e1084c83p+3", "0x1.63252e1084cd3p+3"),
    ("n16", 1e-08, 1e-12): ("0x1.63252dcd5b811p+3", "0x1.63252e53ae31bp+3"),
    ("n16", 1e-08, 1e-08): ("0x1.63252d89c3df4p+3", "0x1.63252e9832240p+3"),
    ("n16", 0.0001, 1e-12): ("0x1.631ae8fb58a75p+3", "0x1.632f7325b10b5p+3"),
    ("n16", 0.0001, 1e-08): ("0x1.631ae8b79b297p+3", "0x1.632f736a6347dp+3"),
}


# The delta > 0 bounds of the volume path that built each dihedral
# angle from jet products and quotients (``ComplexJet.abs_squared``,
# ``Jet.reciprocal``) and ``arg_complex``/``atan_jet``.  The angle jets
# now come from one Taylor rule on the point layer, and each delta > 0
# row of PINNED_VOLUMES lies inside its value here.
JET_ANGLE_VOLUMES = {
    ("fig8", 1e-08, 1e-12): ("0x1.03d3368ee093ap+1", "0x1.03d3368ee1776p+1"),
    ("n1", 1e-08, 1e-12): ("0x1.b9b5f2307745cp-1", "0x1.b9b5f2cff9cacp-1"),
    ("n1", 1e-08, 1e-08): ("0x1.b9b5f1e914e13p-1", "0x1.b9b5f3023303fp-1"),
    ("n1", 0.0001, 1e-12): ("0x1.b9a9b368caabep-1", "0x1.b9c23197a66f0p-1"),
    ("n1", 0.0001, 1e-08): ("0x1.b9a9b32153e11p-1", "0x1.b9c231ca66cb5p-1"),
    ("n2", 1e-08, 1e-12): ("0x1.b10ab1e418d8bp+0", "0x1.b10ab24941209p+0"),
    ("n2", 1e-08, 1e-08): ("0x1.b10ab1ae5cbafp+0", "0x1.b10ab27bf6171p+0"),
    ("n2", 0.0001, 1e-12): ("0x1.b102f0a273609p+0", "0x1.b112738ae69a9p+0"),
    ("n2", 0.0001, 1e-08): ("0x1.b102f06c96f6ep+0", "0x1.b11273bdcecb6p+0"),
    ("n3", 1e-08, 1e-12): ("0x1.4c91ce719f26bp+1", "0x1.4c91cea70e4c5p+1"),
    ("n3", 1e-08, 1e-08): ("0x1.4c91ce20ca572p+1", "0x1.4c91ceea69136p+1"),
    ("n3", 0.0001, 1e-12): ("0x1.4c8db58896fc3p+1", "0x1.4c95e7901678bp+1"),
    ("n3", 0.0001, 1e-08): ("0x1.4c8db537bef32p+1", "0x1.4c95e7d3aa3f6p+1"),
    ("n4", 1e-08, 1e-12): ("0x1.330819a3a5095p+1", "0x1.33081a103ee0fp+1"),
    ("n4", 1e-08, 1e-08): ("0x1.3308196e34b4bp+1", "0x1.33081a4bbe0edp+1"),
    ("n4", 0.0001, 1e-12): ("0x1.32ffc7f9c0b85p+1", "0x1.33106bba23307p+1"),
    ("n4", 0.0001, 1e-08): ("0x1.32ffc7c41902ep+1", "0x1.33106bf5d02dap+1"),
    ("n8", 1e-08, 1e-12): ("0x1.796649872e660p+2", "0x1.796649f4fabf4p+2"),
    ("n8", 1e-08, 1e-08): ("0x1.796649386037ep+2", "0x1.79664a489c0ccp+2"),
    ("n8", 0.0001, 1e-12): ("0x1.795ddd49f89b9p+2", "0x1.796eb632308abp+2"),
    ("n8", 0.0001, 1e-08): ("0x1.795ddcfaf571bp+2", "0x1.796eb68605f6dp+2"),
    ("n16", 1e-08, 1e-12): ("0x1.63252dcd5b7f5p+3", "0x1.63252e53ae337p+3"),
    ("n16", 1e-08, 1e-08): ("0x1.63252d89c3dd8p+3", "0x1.63252e983225cp+3"),
    ("n16", 0.0001, 1e-12): ("0x1.631ae42cd65c7p+3", "0x1.632f77f433563p+3"),
    ("n16", 0.0001, 1e-08): ("0x1.631ae3e918df7p+3", "0x1.632f7838e5937p+3"),
}


# The bounds of the volume path whose jet log and atan built each Taylor
# term as jet products and sums, where they differ from JET_ANGLE_VOLUMES:
# with each term folded into err once, every other row kept its bits.
DEGREE4_JET_VOLUMES = {
    ("n8", 0.0001, 1e-08): ("0x1.795ddcfaf571ap+2", "0x1.796eb68605f6ep+2"),
}


# The exact-shape (delta = 0) pins of the volume path that evaluated
# exact shapes as dimension-0 jets, truncating each series at ``tol``.
# Exact shapes are now summed on the point layer to full precision, so
# ``tol`` no longer changes their bounds; each PINNED_VOLUMES row with
# delta = 0 lies inside its value here.
JET_PATH_EXACT_VOLUMES = {
    ("tet", 0.0, 1e-12): ("0x1.03d3368ee0944p+0", "0x1.03d3368ee176cp+0"),
    ("fig8", 0.0, 1e-12): ("0x1.03d3368ee0944p+1", "0x1.03d3368ee176cp+1"),
    ("n1", 0.0, 1e-12): ("0x1.b9b5f280350bap-1", "0x1.b9b5f2803c04ep-1"),
    ("n1", 0.0, 1e-08): ("0x1.b9b5f238d2a7ap-1", "0x1.b9b5f2b2753aap-1"),
    ("n2", 0.0, 1e-12): ("0x1.b10ab216aae2fp+0", "0x1.b10ab216af165p+0"),
    ("n2", 0.0, 1e-08): ("0x1.b10ab1e0eec5fp+0", "0x1.b10ab249640b9p+0"),
    ("n3", 0.0, 1e-12): ("0x1.4c91ce8c54abap+1", "0x1.4c91ce8c58c76p+1"),
    ("n3", 0.0, 1e-08): ("0x1.4c91ce3b7fdc1p+1", "0x1.4c91cecfb38cfp+1"),
    ("n4", 0.0, 1e-12): ("0x1.330819d9f09a7p+1", "0x1.330819d9f34fdp+1"),
    ("n4", 0.0, 1e-08): ("0x1.330819a480474p+1", "0x1.33081a15727c8p+1"),
    ("n8", 0.0, 1e-12): ("0x1.796649be125f0p+2", "0x1.796649be16c64p+2"),
    ("n8", 0.0, 1e-08): ("0x1.7966496f44323p+2", "0x1.79664a11b8125p+2"),
    ("n16", 0.0, 1e-12): ("0x1.63252e1082b9dp+3", "0x1.63252e1086f8fp+3"),
    ("n16", 0.0, 1e-08): ("0x1.63252dcceb192p+3", "0x1.63252e550aea2p+3"),
}


class TestGoldenBounds:
    @pytest.mark.parametrize("name, delta, tol, lo, hi", GOLDEN_VOLUMES)
    def test_certified_volume_bits(self, name, delta, tol, lo, hi):
        key = (name, delta, tol)
        iv = certified_volume(ShapeAssignment(GOLDEN_SHAPES[name], delta), tol=tol)
        assert (iv.lo.hex(), iv.hi.hex()) == PINNED_VOLUMES[key]
        # Inside every earlier pin of the row, the newest first.
        envelopes = [pins[key] for pins in (JET_PATH_EXACT_VOLUMES, JET_ANGLE_VOLUMES,
                                            DEGREE4_JET_VOLUMES, TIGHTENED_VOLUMES)
                     if key in pins]
        for env_lo, env_hi in envelopes + [(lo, hi)]:
            assert float.fromhex(env_lo) <= iv.lo and iv.hi <= float.fromhex(env_hi)

    def test_exact_n16_volume_lies_inside_the_jet_path_bounds(self):
        s = ShapeAssignment(GOLDEN_SHAPES["n16"], 0.0)
        iv = certified_volume(s, tol=1e-14)
        assert (iv.lo.hex(), iv.hi.hex()) == ("0x1.63252e1084c83p+3", "0x1.63252e1084cd3p+3")
        # Inside the bounds of the jet path that evaluated exact shapes as
        # dimension-0 jets, and of the one before it that gave every exact
        # shape two zero-radius variables.
        assert (float.fromhex("0x1.63252e1084c15p+3") <= iv.lo
                and iv.hi <= float.fromhex("0x1.63252e1084d3fp+3"))
        assert (float.fromhex("0x1.63252e1084bfap+3") <= iv.lo
                and iv.hi <= float.fromhex("0x1.63252e1084d5ap+3"))

    def test_figure_eight_certificate_bits(self):
        cert = krawczyk_certify(figure_eight_system())
        assert cert.delta.hex() == "0x1.b7ce143e1a429p-33"
        assert cert.box_radius.hex() == "0x1.36fd255a2213dp-33"
