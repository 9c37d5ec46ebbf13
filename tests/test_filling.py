import math
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from smallvol import filling
from smallvol.filling import (
    CuspData,
    SlopeList,
    enumerate_slopes,
    slope_length,
    slope_length_bound,
)
from smallvol.jets import PI_HI

S776 = CuspData(
    meridian=complex(0.5, math.sqrt(7) / 2),
    longitude=complex(2.0, 0.0),
    parent_volume=5.33349,
)

# The 46 candidate coefficient pairs on a filled cusp of s776.
S776_PAIRS = {
    (-8, 1), (-8, 3), (-7, 1), (-7, 2), (-7, 3), (-7, 4),
    (-6, 1), (-6, 5), (-5, 1), (-5, 2), (-5, 3), (-5, 4),
    (-4, 1), (-4, 3), (-4, 5), (-3, 1), (-3, 2), (-3, 4),
    (-3, 5), (-2, 1), (-2, 3), (-2, 5), (-1, 1), (-1, 2),
    (-1, 3), (-1, 4), (-1, 5), (0, 1), (1, 0), (1, 1),
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 3),
    (3, 1), (3, 2), (3, 4), (4, 1), (4, 3), (5, 1),
    (5, 2), (5, 3), (6, 1), (7, 1),
}


def _fkp(vol_parent, l_min):
    """The volume bound (1 - (2 pi / l_min)^2)^(3/2) vol_parent for a
    filling whose slopes are all longer than l_min, at 50 digits;
    ``slope_length_bound`` inverts it."""
    with mpmath.workdps(50):
        ratio = 2 * mpmath.pi / mpmath.mpf(l_min)
        return (1 - ratio * ratio) ** mpmath.mpf(1.5) * mpmath.mpf(vol_parent)


class TestBounds:
    def test_fkp_limit_case(self):
        # A target near the parent volume leaves the slope length unbounded.
        assert slope_length_bound(5.33349, 5.33349 * (1 - 1e-12)) > 1e6

    def test_fkp_four_pi(self):
        b = slope_length_bound(5.33349, (0.75 ** 1.5) * 5.33349)
        assert abs(b - 4 * math.pi) < 1e-9
        assert abs(_fkp(5.33349, 4 * math.pi) - 3.4642) < 5e-4

    def test_fkp_inverse_consistency(self):
        # The bound is an upper float: the volume bound there is at or
        # above the target.
        v = _fkp(5.33349, slope_length_bound(5.33349, 2.848))
        assert 2.848 <= v < 2.848 + 1e-12

    def test_fkp_rejects_short_slopes(self):
        # The volume bound is vacuous at or below 2 pi, and no slope
        # length bound falls there.
        for target in (1e-300, 1e-12, 1e-3):
            assert mpmath.mpf(slope_length_bound(5.0, target)) > 2 * mpmath.pi

    def test_slope_length_bound_value(self):
        b = slope_length_bound(5.33349, 2.848)
        assert 10.74 <= b <= 10.76

    def test_slope_length_bound_small_target_limit(self):
        assert abs(slope_length_bound(5.33349, 1e-12) - 2 * math.pi) < 1e-6

    def test_round_trip_inverse(self):
        rng = random.Random(21)
        for _ in range(100):
            v = rng.uniform(1.0, 10.0)
            t = rng.uniform(0.01, v * 0.99)
            assert 0 <= _fkp(v, slope_length_bound(v, t)) - t < 1e-9

    def test_bound_ratio_validation(self):
        with pytest.raises(ValueError):
            slope_length_bound(5.0, 5.0)
        with pytest.raises(ValueError):
            slope_length_bound(5.0, 6.0)

    def test_fkp_strictly_increasing(self):
        # A larger target allows longer slopes.
        prev = None
        t = 0.01
        while t < 5.3:
            b = slope_length_bound(5.33349, t)
            if prev is not None:
                assert b > prev
            prev = b
            t += 0.037


class TestSlopeLength:
    def test_meridian_is_sqrt_two(self):
        assert abs(slope_length(1, 0, S776) - math.sqrt(2)) < 1e-12

    def test_longitude(self):
        assert abs(slope_length(0, 1, S776) - 2.0) < 1e-12

    def test_borderline_pair(self):
        assert abs(slope_length(-8, 1, S776) - math.sqrt(116)) < 1e-12
        assert abs(slope_length(-8, 1, S776) - 10.7703) < 1e-3

    def test_zero_slope_rejected(self):
        with pytest.raises(ValueError):
            slope_length(0, 0, S776)


class TestEnumeration:
    def test_s776_reproduces_the_46_pairs(self):
        slopes = enumerate_slopes(S776, 2.848, fudge=0.01)
        assert slopes.coefficients() == S776_PAIRS
        assert len(slopes.pairs) == 46

    def test_coarse_lattice_empty(self):
        # shortest nonzero lattice vector (length 12) exceeds the ~10.75 bound
        cusp = CuspData(12.0, 12.0j, 5.33349)
        slopes = enumerate_slopes(cusp, 2.848, fudge=0.0)
        assert slopes.pairs == ()

    def test_degenerate_cusp_rejected(self):
        with pytest.raises(ValueError):
            CuspData(1 + 1j, -2 - 2j, 5.0)

    @pytest.mark.parametrize("cusp, fudge", (
        (CuspData(complex(0.5, 1.32), 2.0, 5.33349), 1e300),
        (CuspData(complex(1e-300, 1.0), 1e300, 5.33349), 0.01),
        (CuspData(complex(0.5, 1.32), 2.0, 5.33349), 1e10),
    ))
    def test_box_over_the_cap_rejected(self, cusp, fudge):
        # An overflowed bound reads as an infinite box.
        with pytest.raises(ValueError, match="over the cap of 1000000"):
            enumerate_slopes(cusp, 2.848, fudge)

    def test_box_at_the_cap_is_searched(self):
        # About 9.2 * 10^5 pairs in the box, just under the cap.
        s = 0.0102
        cusp = CuspData(S776.meridian * s, S776.longitude * s, S776.parent_volume)
        slopes = enumerate_slopes(cusp, 2.848, fudge=0.01)
        assert S776_PAIRS <= slopes.coefficients()

    def test_nonfinite_cusp_rejected(self):
        with pytest.raises(ValueError):
            CuspData(float("inf"), 2j, 5.0)
        with pytest.raises(ValueError):
            CuspData(1j, 2.0, float("nan"))

    def test_value_semantics(self):
        cusp = CuspData(12, 12j, 5)
        assert cusp == CuspData(12.0 + 0j, complex(0, 12), 5.0)
        assert hash(cusp) == hash(CuspData(12.0, 12j, 5.0))
        assert cusp != CuspData(12.0, 12j, 5.5)
        assert repr(cusp) == "CuspData(meridian=(12+0j), longitude=12j, parent_volume=5.0)"
        assert type(cusp.meridian) is complex and type(cusp.parent_volume) is float
        slopes = enumerate_slopes(cusp, 2.848, fudge=0.0)
        assert slopes == enumerate_slopes(CuspData(12, 12j, 5), 2.848, fudge=0.0)
        assert repr(slopes).startswith("SlopeList(cutoff=")
        for obj, field in ((cusp, "meridian"), (slopes, "pairs")):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                obj.extra = None

    def test_parts_must_round_to_the_cusp(self):
        with pytest.raises(ValueError, match="must round"):
            enumerate_slopes(S776, 2.848, 0.01, [(1, 3), (0, 1), (2, 1), (0, 1)])


    def test_sorted_and_normalized(self):
        slopes = enumerate_slopes(S776, 2.848, fudge=0.01)
        assert list(slopes.pairs) == sorted(slopes.pairs, key=lambda t: (t[0], t[1]))
        for p, q, length in slopes.pairs:
            assert q > 0 or (q == 0 and p > 0)
            assert gcd(abs(p), abs(q)) == 1
            assert (p, q) != (0, 0)
            assert length <= slopes.cutoff
            assert (-p, -q) not in slopes.coefficients()

    def test_monotone_in_fudge(self):
        a = enumerate_slopes(S776, 2.848, fudge=0.0).coefficients()
        b = enumerate_slopes(S776, 2.848, fudge=0.05).coefficients()
        assert a <= b

    def test_monotone_in_target(self):
        a = enumerate_slopes(S776, 2.0).coefficients()
        b = enumerate_slopes(S776, 2.848).coefficients()
        assert a <= b

    def test_brute_force_equality_50_random_cusps(self):
        rng = random.Random(31)
        checked = 0
        while checked < 50:
            m = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
            l = complex(rng.uniform(-3, 3), rng.uniform(-2.5, 2.5))
            vol = rng.uniform(3.0, 8.0)
            target = rng.uniform(0.5, vol * 0.9)
            try:
                cusp = CuspData(m, l, vol)
            except ValueError:
                continue
            cutoff = slope_length_bound(vol, target) * 1.01
            area = cusp.lattice_area()
            if cutoff * max(abs(m), abs(l)) / area > 180:
                continue  # the +-200 brute-force box would not provably cover
            fast = enumerate_slopes(cusp, target, fudge=0.01).coefficients()
            brute = set()
            for p in range(-200, 201):
                for q in range(0, 201):
                    if q == 0 and p <= 0:
                        continue
                    if p == 0 and q != 1:
                        continue
                    if q == 0 and p != 1:
                        continue
                    if gcd(abs(p), q) != 1:
                        continue
                    if slope_length(p, q, cusp) <= cutoff:
                        brute.add((p, q))
            assert fast == brute
            checked += 1


def _toward(text, up):
    """The double next to the decimal ``text``: the nearest one at or
    above it when ``up``, else at or below it."""
    x = float(text)
    if Fraction(x) < Fraction(text) if up else Fraction(x) > Fraction(text):
        x = math.nextafter(x, math.inf if up else -math.inf)
    return x


def _typed_cutoff(parent, target):
    """2 pi / sqrt(1 - (target / parent)^(2/3)) for the decimals typed, at
    50 digits."""
    with mpmath.workdps(50):
        ratio = mpmath.mpf(target) / mpmath.mpf(parent)
        return 2 * mpmath.pi / mpmath.sqrt(1 - ratio ** (mpmath.mpf(2) / 3))


class TestTypedParts:
    """Given the exact values that the cusp's floats round, the list is
    decided and each length bounded on those values."""

    # Slope (1, 0) is shorter than the cutoff of the decimals typed,
    # 42.4760937603331202..., and longer than that of their floats,
    # 42.4760937603330556...; the float meridian is 42.4760937603330646...
    MERIDIAN, PARENT, TARGET = "42.476093760333065", "2.9441", "2.848"

    def test_false_exit_reproducer(self):
        m = float(self.MERIDIAN)
        assert enumerate_slopes(CuspData(m, 500j, 2.9441), 2.848, 0.0).pairs == ()
        cusp = CuspData(m, 500j, _toward(self.PARENT, False))
        parts = [Fraction(self.MERIDIAN).as_integer_ratio(), (0, 1), (0, 1), (500, 1)]
        slopes = enumerate_slopes(cusp, _toward(self.TARGET, True), 0.0, parts)
        assert [(p, q) for p, q, _ in slopes.pairs] == [(1, 0)]
        assert Fraction(slopes.pairs[0][2]) >= Fraction(self.MERIDIAN)
        assert mpmath.mpf(slopes.cutoff) >= _typed_cutoff(self.PARENT, self.TARGET)

    def test_borderline_meridians_are_decided_on_the_typed_value(self):
        # Meridians typed to 25 digits within a few ulps of the cutoff are
        # listed exactly when a rational oracle of the typed value lists
        # them; their floats would decide some of them the other way.
        rng = random.Random(3301)
        k = 4 * Fraction(PI_HI) ** 2
        seen = set()
        for _ in range(300):
            parent = rng.uniform(2.0, 6.0)
            target = parent * rng.uniform(0.2, 0.95)
            with mpmath.workdps(50):
                c = _typed_cutoff(repr(parent), repr(target)) * (
                    1 + mpmath.mpf(rng.uniform(-6e-16, 6e-16)))
                text = mpmath.nstr(c, 25, strip_zeros=False)
            q = Fraction(text) ** 2
            ratio = Fraction(target) / Fraction(parent)
            listed = q <= k or (1 - k / q) ** 3 <= ratio * ratio
            seen.add(listed)
            cusp = CuspData(float(text), 1e3j, parent)
            parts = [Fraction(text).as_integer_ratio(), (0, 1), (0, 1), (1000, 1)]
            slopes = enumerate_slopes(cusp, target, 0.0, parts)
            assert ((1, 0) in slopes.coefficients()) is listed, text
            if listed:
                assert Fraction(slopes.pairs[0][2]) ** 2 >= q
        assert seen == {True, False}


class TestFloatFilterError:
    """The float filter's error bound covers the parts' rounding to the
    cusp's floats.  On the thin lattice m = 1, l = 150.3 + 1.7i the slope
    (-905, 6) has length about 10.7 from parts about 900 long, so moving
    each exact part by under half an ulp moves its squared length by
    hundreds of ulps: past the cutoff's float bracket [c2_lo, c2_hi],
    while its float squared length stays on the other side."""

    MERIDIAN, LONGITUDE, PARENT, TARGET = 1.0, complex(150.3, 1.7), 4.0, 1.2
    PAIR = (-905, 6)

    @staticmethod
    def exact(x, sign):
        """x moved 0.45 of the way to its neighbouring float on the side
        of ``sign``: a rational that rounds to x."""
        return Fraction(x) + (Fraction(math.nextafter(x, sign * math.inf)) - Fraction(x)) * Fraction(45, 100)

    @pytest.mark.parametrize("signs, fudge, listed", (
        # The float squared length is below c2_lo, the exact one above c2_hi.
        ((1, -1, 1), 0.26391980486066513, False),
        # The float squared length is above c2_hi, the exact one below c2_lo.
        ((-1, 1, -1), 0.26391980486066313, True),
    ))
    def test_listed_pairs_follow_the_exact_parts(self, signs, fudge, listed):
        m, l = self.MERIDIAN, self.LONGITUDE
        mr, lr, li = (self.exact(x, sign) for x, sign in zip((m, l.real, l.imag), signs))
        exact = (mr, Fraction(0), lr, li)
        assert [float(x) for x in exact] == [m, 0.0, l.real, l.imag]
        k = 4 * Fraction(PI_HI) ** 2 * (1 + Fraction(fudge)) ** 2
        ratio = Fraction(self.TARGET) / Fraction(self.PARENT)

        def squared(p, q):
            return (p * mr + q * lr) ** 2 + (q * li) ** 2

        def member(p, q):
            big_q = squared(p, q)
            return big_q <= k or (1 - k / big_q) ** 3 <= ratio * ratio

        # The premise: the pair's float squared length, rounded as the
        # filter rounds it, and its exact one lie on either side of the
        # bracket, so only the filter's error bound sends it to the exact test.
        c2_lo, c2_hi = filling._cutoff_squared(self.PARENT, self.TARGET, fudge)
        p, q = self.PAIR
        x, y = p * m + q * l.real, q * l.imag
        if listed:
            assert x * x + y * y > math.nextafter(c2_hi, math.inf)
            assert squared(p, q) <= Fraction(c2_lo) and member(p, q)
        else:
            assert x * x + y * y <= math.nextafter(c2_lo, -math.inf)
            assert squared(p, q) > Fraction(c2_hi) and not member(p, q)

        slopes = enumerate_slopes(CuspData(m, l, self.PARENT), self.TARGET, fudge,
                                  [x.as_integer_ratio() for x in exact])
        assert (self.PAIR in slopes.coefficients()) is listed
        # Every normalized coprime pair against the exact test: pairs whose
        # float squared length exceeds 2 c2_hi are far outside it.
        area = l.imag
        radius = math.sqrt(2 * c2_hi)
        p_max, q_max = int(radius * abs(l) / area) + 1, int(radius / area) + 1
        expected = {(p, q) for q in range(q_max + 1) for p in range(-p_max, p_max + 1)
                    if (q > 0 or p == 1) and gcd(abs(p), q) == 1
                    and (p * m + q * l.real) ** 2 + (q * l.imag) ** 2 <= 2 * c2_hi
                    and member(p, q)}
        assert self.PAIR in expected or not listed
        assert slopes.coefficients() == expected


class TestExactMembership:
    """Zero omissions against a 50-digit mpmath oracle, and no pair beyond
    the pi slack: a listed slope is at most cutoff * PI_HI / pi long.  The
    list's cutoff and lengths lie at or above the exact ones."""

    @staticmethod
    def cutoff(parent, target, fudge):
        with mpmath.workdps(50):
            r = (mpmath.mpf(target) / mpmath.mpf(parent)) ** (mpmath.mpf(2) / 3)
            return 2 * mpmath.pi / mpmath.sqrt(1 - r) * (1 + mpmath.mpf(fudge))

    @staticmethod
    def length(p, q, cusp):
        with mpmath.workdps(50):
            m, l = cusp.meridian, cusp.longitude
            x = p * mpmath.mpf(m.real) + q * mpmath.mpf(l.real)
            y = p * mpmath.mpf(m.imag) + q * mpmath.mpf(l.imag)
            return mpmath.sqrt(x * x + y * y)

    def check(self, cusp, target, fudge):
        """The listed pairs against the oracle over a box that provably
        covers the cutoff disk; returns the oracle's pair count."""
        slopes = enumerate_slopes(cusp, target, fudge)
        listed = slopes.coefficients()
        c = self.cutoff(cusp.parent_volume, target, fudge)
        assert mpmath.mpf(slopes.cutoff) >= c, (cusp, target, fudge)
        m, l = cusp.meridian, cusp.longitude
        for p, q, length in slopes.pairs:
            x = p * Fraction(m.real) + q * Fraction(l.real)
            y = p * Fraction(m.imag) + q * Fraction(l.imag)
            assert Fraction(length) ** 2 >= x * x + y * y, (p, q, cusp)
            # and at most three ulps above it
            below = length
            for _ in range(3):
                below = math.nextafter(below, 0.0)
            assert Fraction(below) ** 2 <= x * x + y * y, (p, q, cusp)
        with mpmath.workdps(50):
            slack = c * mpmath.mpf(PI_HI) / mpmath.pi
        reach = float(c) * 1.001 / cusp.lattice_area()
        p_max = int(reach * abs(cusp.longitude)) + 1
        q_max = int(reach * abs(cusp.meridian)) + 1
        inside = 0
        for q in range(0, q_max + 1):
            for p in range(-p_max, p_max + 1):
                if (q == 0 and p != 1) or (p == 0 and q != 1) or gcd(abs(p), q) != 1:
                    continue
                length = self.length(p, q, cusp)
                if length <= c:
                    inside += 1
                    assert (p, q) in listed, ("omitted", p, q, cusp, target, fudge)
                elif (p, q) in listed:
                    assert length <= slack, ("beyond the pi slack", p, q, cusp, target)
        assert len(listed) >= inside
        return inside

    def test_s776(self):
        assert self.check(S776, 2.848, 0.01) == len(S776_PAIRS)

    def test_integer_lattice(self):
        # Integer parts: each squared length is an integer, whose root
        # once came out rounded up to the next whole number (sqrt(101)
        # as 11), above the cutoff.
        cusp = CuspData(1.0, 1j, 5.33349)
        assert self.check(cusp, 2.848, 0.01) == 112
        slopes = enumerate_slopes(cusp, 2.848, 0.01)
        assert all(length <= slopes.cutoff for _, _, length in slopes.pairs)
        assert (-10, 1, 10.049875621120893) in slopes.pairs

    def test_random_cusps(self):
        rng = random.Random(77)
        for _ in range(25):
            m = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            l = complex(rng.uniform(1.5, 4.0), rng.uniform(-1, 1))
            parent = rng.uniform(2.0, 8.0)
            target = parent * rng.uniform(0.05, 0.6)
            self.check(CuspData(m, l, parent), target, rng.choice((0.0, rng.uniform(0, 0.02))))

    def test_constructed_borderline_cusps(self):
        """Slope (1, 0) one ulp inside and one ulp outside the cutoff, the
        meridian in a random direction: the inside one is always listed."""
        rng = random.Random(78)
        for _ in range(60):
            parent = rng.uniform(2.0, 8.0)
            target = parent * rng.uniform(0.05, 0.9)
            fudge = rng.choice((0.0, rng.uniform(0, 0.02)))
            c = self.cutoff(parent, target, fudge)
            angle = rng.uniform(0.3, math.pi - 0.3)
            im = float(c * mpmath.sin(angle))
            re = float(c * mpmath.cos(angle))
            l = complex(0.0, 3.0 * float(c))
            step = math.inf if re >= 0 else -math.inf
            # the last real part (moving outward) that keeps (1, 0) inside
            while self.length(1, 0, CuspData(complex(re, im), l, parent)) > c:
                re = math.nextafter(re, -step)
            while self.length(1, 0, CuspData(complex(math.nextafter(re, step), im), l,
                                             parent)) <= c:
                re = math.nextafter(re, step)
            assert self.check(CuspData(complex(re, im), l, parent), target, fudge) >= 1
            self.check(CuspData(complex(math.nextafter(re, step), im), l, parent),
                       target, fudge)

    def test_float_bound_below_the_true_one(self):
        # The float bound 10.236478896057731 lies below slope (1, 0), whose
        # length lies below the true bound.
        cusp = CuspData(complex(10.236478896057733, 0), 50j, 4.234022804821794)
        assert enumerate_slopes(cusp, 2.0832521155408212, 0.0).coefficients() == {(1, 0)}
        assert self.check(cusp, 2.0832521155408212, 0.0) == 1

    def test_extreme_targets(self):
        # (T/P)^2 underflows here, so the cube root is bounded by 2^-200
        # instead of being verified by cubing.
        assert self.check(S776, 1e-200, 0.01) == 14
        # One ulp below the parent volume the cutoff exceeds any float
        # box; this used to loop over ~1e17 lattice points.
        with pytest.raises(ValueError, match="too close to the parent volume"):
            enumerate_slopes(S776, math.nextafter(S776.parent_volume, 0.0))
