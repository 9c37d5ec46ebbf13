import cmath
import math
import random

import mpmath
import pytest

from smallvol.geometry import (
    Interval,
    OrientationError,
    ShapeAssignment,
    certified_volume,
    check_positive_orientation,
    dihedral_angles,
    prove_volume_gt,
    prove_volume_le,
)
from smallvol.certify import figure_eight_system, krawczyk_certify
from smallvol.jets import ComplexJet, JetDomainError, pi_jet

from oracles import jet_contains_value, lobachevsky_quad, mp_arg

OMEGA = complex(0.5, math.sqrt(3) / 2)  # e^{i pi/3}, the regular shape
V_TET = None  # filled lazily: 3 L(pi/3)


def _v_tet():
    global V_TET
    if V_TET is None:
        V_TET = 3 * lobachevsky_quad(mpmath.pi / 3)
    return V_TET


class TestShapeAssignment:
    def test_valid(self):
        s = ShapeAssignment((OMEGA,), 0.0)
        assert s.count == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ShapeAssignment((0.0005 + 0j,), 0.001)
        with pytest.raises(ValueError):
            ShapeAssignment((1.0005 + 0j,), 0.001)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            ShapeAssignment((OMEGA,), -1e-9)


class TestDihedralAngles:
    def test_regular_tetrahedron(self):
        angles = dihedral_angles(ComplexJet.constant(OMEGA))
        third_pi = mpmath.pi / 3
        for a in angles:
            assert jet_contains_value(a, third_pi)

    def test_z_equals_i(self):
        angles = dihedral_angles(ComplexJet.constant(1j))
        expected = (mpmath.pi / 2, mpmath.pi / 4, mpmath.pi / 4)
        for a, e in zip(angles, expected):
            assert jet_contains_value(a, e)

    def test_random_containment_vs_oracle(self):
        rng = random.Random(9)
        for _ in range(60):
            z = complex(rng.uniform(-1.5, 2.5), rng.uniform(0.15, 1.5))
            dim = 2
            zj = ComplexJet.variable(z, 0, 1, 1e-4, dim)
            angles = dihedral_angles(zj)
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
            zj = ComplexJet.variable(z, 0, 1, 1e-5, 2)
            a1, a2, a3 = dihedral_angles(zj)
            total = a1 + a2 + a3
            assert jet_contains_value(total, mpmath.pi)

    def test_degenerate_shape_rejected(self):
        zj = ComplexJet.variable(0.001 + 0.001j, 0, 1, 0.01, 2)
        with pytest.raises(JetDomainError):
            dihedral_angles(zj)


class TestEachValueOnce:
    def test_dihedral_angles_square_each_modulus_once(self, monkeypatch):
        calls = []
        original = ComplexJet.abs_squared

        def counted(z):
            calls.append(z)
            return original(z)

        monkeypatch.setattr(ComplexJet, "abs_squared", counted)
        dihedral_angles(ComplexJet.variable(OMEGA, 0, 1, 1e-9, 2))
        assert len(calls) == 2  # |z|^2 and |1 - z|^2

    def test_certified_volume_builds_the_shape_jets_once(self, monkeypatch):
        calls = []
        original = ShapeAssignment.shape_jets

        def counted(assignment):
            calls.append(assignment)
            return original(assignment)

        monkeypatch.setattr(ShapeAssignment, "shape_jets", counted)
        certified_volume(ShapeAssignment((OMEGA, OMEGA), 1e-9))
        assert len(calls) == 1


class TestOrientation:
    def test_regular_true(self):
        assert check_positive_orientation(ShapeAssignment((OMEGA,), 0.0))

    def test_ball_crossing_axis_false(self):
        assert not check_positive_orientation(
            ShapeAssignment((0.5 + 0.001j,), 0.01)
        )

    def test_figure_eight_small_delta(self):
        assert check_positive_orientation(ShapeAssignment((OMEGA, OMEGA), 1e-6))


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
        # 1/z divides by |z|^2, whose reciprocal has b0^2 * m underflowing;
        # it once raised "range too close to zero".
        iv = certified_volume(ShapeAssignment((z,), delta))
        with mpmath.workdps(60):
            w = mpmath.mpc(z)
            # D(z) = Im Li2(z) + arg(1 - z) log|z|
            vol = mpmath.im(mpmath.polylog(2, w)) + mpmath.arg(1 - w) * mpmath.log(abs(w))
            assert vol > 0
            assert mpmath.mpf(iv.lo) <= vol <= mpmath.mpf(iv.hi)

    def test_orientation_failure_raises(self):
        with pytest.raises(OrientationError):
            certified_volume(ShapeAssignment((0.5 - 0.9j,), 0.0))


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
            assert not (prove_volume_gt(s, t) and prove_volume_le(s, t))

    def test_inconclusive_is_false(self):
        # negative imaginary part: orientation fails, both provers decline
        s = ShapeAssignment((0.5 - 0.9j,), 0.0)
        assert not prove_volume_gt(s, 0.1)
        assert not prove_volume_le(s, 10.0)


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

# Volume bounds as float.hex, captured from the jet core that built every
# jet through the validating dataclass constructor and charged rounding
# through a separate accumulator object (x86-64, glibc libm).  The n8 and
# n16 rows were captured from the volume path that evaluated every
# tetrahedron over all 2n shared variables, before each tetrahedron got
# its own two.  A later jet core may only tighten a row: its bounds must
# lie inside the row and equal it unless TIGHTENED_VOLUMES pins them.
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


class TestGoldenBounds:
    @pytest.mark.parametrize("name, delta, tol, lo, hi", GOLDEN_VOLUMES)
    def test_certified_volume_bits(self, name, delta, tol, lo, hi):
        iv = certified_volume(ShapeAssignment(GOLDEN_SHAPES[name], delta), tol=tol)
        assert (iv.lo.hex(), iv.hi.hex()) == TIGHTENED_VOLUMES.get((name, delta, tol), (lo, hi))
        assert float.fromhex(lo) <= iv.lo and iv.hi <= float.fromhex(hi)

    def test_exact_shapes_evaluate_at_dimension_zero(self):
        # Bounds captured from the volume path that gave every exact shape
        # two zero-radius variables.
        s = ShapeAssignment(GOLDEN_SHAPES["n16"], 0.0)
        assert all(z.dim == 0 for z in s.shape_jets())
        assert all(z.dim == 2 for z in ShapeAssignment(s.shapes, 1e-9).shape_jets())
        iv = certified_volume(s, tol=1e-14)
        assert (iv.lo.hex(), iv.hi.hex()) == ("0x1.63252e1084bfap+3", "0x1.63252e1084d5ap+3")

    def test_figure_eight_certificate_bits(self):
        cert = krawczyk_certify(figure_eight_system())
        assert cert.delta.hex() == "0x1.b7ce143e1a429p-33"
        assert cert.box_radius.hex() == "0x1.36fd255a2213dp-33"
