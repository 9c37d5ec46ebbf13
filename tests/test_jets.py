import cmath
import decimal
import itertools
import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest

from smallvol.jets import (
    EPS_PRIM,
    ComplexJet,
    Jet,
    JetDomainError,
    JetError,
    PI_HI,
    PI_LO,
    arg_complex,
    atan_jet,
    complex_log_jet,
    half_pi_jet,
    log_jet,
    pi_jet,
)
from smallvol.jets import _add, _add_const, _mul, _mul_const, _neg
from smallvol.points import _decimal_atan, _recip, _recip0, libm_covered
from smallvol.rounding import TINY, _up

from complex_refs import (box, degree4_atan_jet, degree4_log_jet, minus_one, one_minus,
                          quotient, reciprocal, widened)
from oracles import jet_contains, jet_contains_value, mp_arg, mp_atan, mp_log


def ulp(x):
    return math.nextafter(abs(x), math.inf) - abs(x)


class TestConstruction:
    def test_constant_zero(self):
        j = Jet.constant(0.0, 3)
        assert j.center == 0.0 and j.coeffs == (0.0, 0.0, 0.0) and j.err == 0.0

    def test_constant_one(self):
        j = Jet.constant(1.0, 1)
        assert (j.center, j.coeffs, j.err) == (1.0, (0.0,), 0.0)

    def test_constant_threshold(self):
        j = Jet.constant(2.848, 0)
        assert j.center == 2.848 and j.dim == 0 and j.err == 0.0

    def test_variable(self):
        j = Jet.variable(0.5, 0, 0.001, 2)
        assert j.center == 0.5 and j.coeffs == (0.001, 0.0) and j.err == 0.0
        lo, hi = j.bounds()
        assert lo <= 0.499 and hi >= 0.501

    def test_variable_zero_radius_is_constant(self):
        assert Jet.variable(1.0, 0, 0.0, 1) == Jet.constant(1.0, 1)

    def test_variable_index_out_of_range(self):
        with pytest.raises(JetError):
            Jet.variable(0.0, 2, 0.1, 2)

    def test_nonfinite_rejected(self):
        for center, coeffs, err in ((math.nan, (), 0.0), (-math.inf, (1.0,), 0.0),
                                    (0.0, (math.inf,), 0.0), (0.0, (1.0, math.nan), 0.0),
                                    (0.0, (), math.inf), (0.0, (1.0,), math.nan),
                                    (0.0, (), -1e-30), (0.0, (1.0,), -math.inf)):
            with pytest.raises(JetError):
                Jet(center, coeffs, err)


class TestArithmetic:
    def test_add_linear(self):
        a = Jet(1.0, (1.0,), 0.0)
        b = Jet(1.0, (-1.0,), 0.0)
        s = a + b
        assert s.center == 2.0 and s.coeffs == (0.0,) and s.err >= 0.0
        assert jet_contains_value(s, 2.0)

    def test_mul_quadratic_spread(self):
        # (1+x)(1-x) = 1-x^2 has range [0, 1] on [-1, 1]
        a = Jet(1.0, (1.0,), 0.0)
        b = Jet(1.0, (-1.0,), 0.0)
        p = a * b
        lo, hi = p.bounds()
        assert lo <= 0.0 and hi >= 1.0

    def test_div_third_tight(self):
        q = Jet.constant(1.0) / Jet.constant(3.0)
        third = Fraction(1, 3)
        lo, hi = q.bounds()
        assert Fraction(lo) <= third <= Fraction(hi)
        assert q.err <= 4 * ulp(1.0 / 3.0)

    def test_div_requires_nonzero(self):
        denom = Jet(0.5, (1.0,), 0.0)  # range [-0.5, 1.5]
        with pytest.raises(JetDomainError):
            Jet.constant(1.0, 1) / denom

    def test_dim_mismatch(self):
        with pytest.raises(JetError):
            Jet.constant(1.0, 1) + Jet.constant(1.0, 2)

    def test_scalar_ops(self):
        a = Jet(2.0, (0.5,), 0.0)
        assert (a * 2.0).center == 4.0
        assert (2.0 * a).coeffs == (1.0,)
        assert (a + 1.0).center == 3.0
        assert (1.0 - a).center == -1.0
        assert jet_contains_value(2.0 / Jet.constant(4.0, 1), 0.5)

    def test_neg_exact(self):
        a = Jet(2.0, (0.5,), 1e-10)
        assert (-a).err == a.err and (-a).center == -2.0


def _triple_or_error(fn, *args):
    """The result of ``fn`` as float hex strings (so -0.0 and 0.0 differ),
    or the JetError it raises as (type, message)."""
    try:
        r = fn(*args)
    except JetError as exc:
        return type(exc), str(exc)
    if isinstance(r, Jet):
        r = (r.center, r.coeffs, r.err)
    c, xs, e = r
    return c.hex(), tuple(x.hex() for x in xs), e.hex()


# Reference spellings of ``-`` and ``/`` as explicit ``_add_const``,
# ``_mul_const`` and ``_recip0`` calls on the operands' fields.

def _explicit_sub(a, b):
    if isinstance(b, Jet):
        if b.coeffs:
            return _add(a.center, a.coeffs, a.err, *_neg(b.center, b.coeffs, b.err))
        return _add_const(a.center, a.coeffs, a.err, -b.center, b.err)
    return _add_const(a.center, a.coeffs, a.err, -float(b), 0.0)


def _explicit_div(a, b):
    if isinstance(b, Jet):
        if b.coeffs:
            if a.coeffs and len(a.coeffs) != len(b.coeffs):
                raise JetError(f"dimension mismatch: {len(a.coeffs)} vs {len(b.coeffs)}")
            return _mul(a.center, a.coeffs, a.err,
                        *_recip(b.center, b.err, b.spread(), b.coeffs))
        k, ke = b.center, b.err
    else:
        k, ke = float(b), 0.0
    return _mul_const(a.center, a.coeffs, a.err, *_recip0(k, ke))


def _explicit_rdiv(k, a):
    return _mul_const(*_recip(a.center, a.err, a.spread(), a.coeffs), float(k), 0.0)


def _inv0(b0):
    """1/b0 for an exact b0 > 0 by the direct formula: the center and
    its one-rounding charge, refused only where 1/b0 overflows."""
    c = 1.0 / b0
    if c == math.inf:
        raise JetDomainError("reciprocal: center too close to zero")
    return c, _up(_up(_up(EPS_PRIM * c) + TINY))


class TestOneRulePerOperation:
    """``-`` and ``/`` are wrappers over ``+``, ``*`` and the reciprocal,
    and an exact center's reciprocal is ``_recip0(b0, 0.0)``: each gives
    the bits of the explicit rule."""

    MAGS = (0.0, 5e-324, 1e-310, 1e-170, 2.2e-308, 1e-3, 0.3, 1.7, 3.0, 1e150, 1e300)
    SCALARS = (0, 1, 3, -7, 2 ** 60 + 1, True, False, 0.0, -0.0, 0.5, -2.5,
               1e-310, 1e-170, 1e300)

    def _jet(self, rng, dim):
        def value():
            return rng.choice(self.MAGS) * rng.choice((1.0, -1.0))
        if rng.random() < 0.5:
            return Jet(rng.uniform(-4.0, 4.0),
                       tuple(rng.choice((0.0, -0.0, rng.uniform(-1.0, 1.0)))
                             for _ in range(dim)),
                       rng.choice((0.0, 1e-3, 1e-17)))
        return Jet(value(), tuple(value() for _ in range(dim)),
                   rng.choice((0.0, 5e-324, 1e-30, 1e-3)))

    def test_operators_give_the_explicit_triples(self):
        rng = random.Random(3701)
        calls = 0
        for _ in range(3000):
            a = self._jet(rng, rng.randint(0, 3))
            k = rng.choice(self.SCALARS)
            cases = [(operator.truediv, _explicit_rdiv, k, a)]
            for b in (self._jet(rng, rng.randint(0, 3)), k):
                cases += [(operator.sub, _explicit_sub, a, b),
                          (operator.truediv, _explicit_div, a, b)]
            for op, explicit, x, y in cases:
                assert _triple_or_error(op, x, y) == _triple_or_error(explicit, x, y), (op, x, y)
                calls += 1
        assert calls == 15000

    @pytest.mark.parametrize("op", (operator.sub, operator.truediv))
    def test_other_operands_are_refused(self, op):
        with pytest.raises(TypeError):
            op(Jet(1.0, (0.5,), 0.0), "x")

    def test_exact_reciprocal_is_the_former_inv0(self):
        # From the least b0 whose reciprocal is finite, about 5.6e-309,
        # to 1e308; below it 1/b0 overflows and both refuse.
        least = math.nextafter(1.0 / 1.7976931348623157e308, 0.0)
        while 1.0 / least == math.inf:
            least = math.nextafter(least, math.inf)
        rng = random.Random(3702)
        low = math.log10(least)
        points = [least, 1e-170, 2.2e-162, 1.0, 1e308]
        points += [10.0 ** rng.uniform(low, 308.0) for _ in range(5000)]
        for b0 in points:
            b0 = max(b0, least)
            assert _recip0(b0, 0.0) == _inv0(b0), b0
        for b0 in (math.nextafter(least, 0.0), 1e-310, 5e-324):
            with pytest.raises(JetDomainError, match="center too close to zero"):
                _recip0(b0, 0.0)
            with pytest.raises(JetDomainError, match="center too close to zero"):
                _inv0(b0)

    def test_reciprocal_of_a_tiny_exact_center(self):
        # b0^2 underflows to 0, but with no spread nothing is divided by it.
        r = Jet(1e-170, (0.0,), 0.0).reciprocal()
        with mpmath.workdps(60):
            assert jet_contains_value(r, 1 / mpmath.mpf(1e-170))
        assert r.coeffs == (-0.0,) and r.err < 1e-15 * r.center


class TestGoldenBits:
    """Every field of a few results, as float.hex.  GOLDEN was captured
    from the jet core that charged rounding through a separate accumulator
    object; a later core may only tighten it (the same center and
    coefficients, err no larger), and TIGHTENED pins the err where it is
    smaller.  The operands are narrow, so the rounding charges dominate
    err and a change in their order or count shows in the last bits."""

    A = Jet(0.3, (1e-13, -3e-14, 0.0), 0.0)
    B = Jet(-1.7, (0.0, 2.5e-13, 7e-14), 1e-30)
    EXPRS = {
        "a + b": lambda a, b: a + b,
        "a * b": lambda a, b: a * b,
        "b.reciprocal()": lambda a, b: b.reciprocal(),
        "a / b": lambda a, b: a / b,
        "log_jet(a)": lambda a, b: log_jet(a),
        "atan_jet(b)": lambda a, b: atan_jet(b),
        "arg_complex(ComplexJet(a, b))": lambda a, b: arg_complex(ComplexJet(a, b)),
    }
    GOLDEN = (
        ("a + b", "-0x1.6666666666666p+0",
         ("0x1.c25c268497682p-44", "0x1.ef655d91d9bf5p-43", "0x1.3b40815cd0628p-44"),
         "0x1.6666666666a72p-53"),
        ("a * b", "-0x1.051eb851eb852p-1",
         ("-0x1.7ece53f0b3e55p-43", "0x1.1bba0e06bb8bdp-43", "0x1.7a4d6808fa0fdp-46"),
         "0x1.051eb8552479bp-54"),
        ("b.reciprocal()", "-0x1.2d2d2d2d2d2d3p-1",
         ("-0x0.0p+0", "-0x1.8595b1b5226bdp-44", "-0x1.b455bccadedf3p-46"),
         "0x1.2d2d2d2eca810p-54"),
        ("a / b", "-0x1.6969696969697p-3",
         ("-0x1.08eae97b2be2fp-44", "-0x1.2b337a24b6156p-47", "-0x1.05cd0ae01f52bp-47"),
         "0x1.6969696c9c7d2p-55"),
        ("log_jet(a)", "-0x1.34378fcbda721p+0",
         ("0x1.774ccac3d3817p-42", "-0x1.c25c268497682p-44", "0x0.0p+0"),
         "0x1.34378fccc3248p-51"),
        ("atan_jet(b)", "-0x1.0a00a3bce369fp+0",
         ("0x0.0p+0", "0x1.216f365e6d26ap-44", "0x1.442aa34b099bfp-46"),
         "0x1.0a00a3bcfffbap-51"),
        ("arg_complex(ComplexJet(a, b))", "-0x1.6568640e000e2p+0",
         ("0x1.00eab09aac477p-44", "0x1.222a30dee0b11p-47", "0x1.fbc9d5860935ep-48"),
         "0x1.1bf95c7b40a3dp-51"),
    )

    # Charging err_a * err_b once and no up(0.0) cross term took one ulp
    # off these errs.  They are the errs of the degree-4 jet-product log
    # and atan, and the envelope of the one-rule forms below.
    TIGHTENED = {"log_jet(a)": "0x1.34378fccc3247p-51",
                 "atan_jet(b)": "0x1.0a00a3bcfffb9p-51"}

    # log_jet and atan_jet as one Taylor rule, each higher term folded
    # into err once: one more ulp off.  arg_complex keeps its bits.
    TAYLOR_RULE = {"log_jet(a)": "0x1.34378fccc3246p-51",
                   "atan_jet(b)": "0x1.0a00a3bcfffb8p-51"}

    @pytest.mark.parametrize("expr, center, coeffs, err", GOLDEN)
    def test_fields_bitwise(self, expr, center, coeffs, err):
        j = self.EXPRS[expr](self.A, self.B)
        envelope = self.TIGHTENED.get(expr, err)
        assert (j.center.hex(), tuple(c.hex() for c in j.coeffs), j.err.hex()) == (
            center, coeffs, self.TAYLOR_RULE.get(expr, envelope))
        assert j.err <= float.fromhex(envelope) <= float.fromhex(err)


class TestOverflow:
    """Results out of double range raise JetError: an overflowing sum or
    product is charged EPS_PRIM * inf into err, which the O(1) check on
    every result rejects."""

    BIG = 1.5e308

    def test_coefficient_overflow_in_add(self):
        a = Jet(1.0, (self.BIG, 0.0), 0.0)
        with pytest.raises(JetError):
            a + a
        with pytest.raises(JetError):
            a - (-a)

    def test_coefficient_overflow_in_mul(self):
        with pytest.raises(JetError):
            Jet(4.0, (self.BIG,), 0.0) * Jet(4.0, (0.0,), 0.0)
        with pytest.raises(JetError):
            Jet(1.0, (1.0,), 0.0) * 1e308 * 10.0

    def test_overflow_in_reciprocal(self):
        inv = Jet(1e-100, (1e-101,), 0.0).reciprocal()  # 1e100 - 1e99 x
        with pytest.raises(JetError):
            inv * Jet(1.0, (1e300,), 0.0)
        with pytest.raises(JetError):
            Jet.constant(1e-310).reciprocal()
        with pytest.raises(JetError):
            Jet(1e-160, (1e-161,), 1e-161).reciprocal()

    def test_reciprocal_remainder_when_its_denominator_overflows(self):
        # b0^2 * m overflows here; the remainder was once charged as
        # s^2 / DBL_MAX, an err of 8.1e72 on this quotient of -1.
        x = 4.916359383700699e137
        w = one_minus(ComplexJet.constant(complex(x, -x)))
        r = w.im / w.re
        assert r.center == -1.0 and r.err.hex() == "0x1.8000000000009p-52"
        with mpmath.workdps(60):
            exact = mpmath.mpf(x) / (1 - mpmath.mpf(x))
            assert jet_contains_value(r, exact)
            log = complex_log_jet(w)
            truth = mpmath.log(mpmath.mpc(1 - mpmath.mpf(x), mpmath.mpf(x)))
            assert jet_contains_value(log.re, truth.real)
            assert jet_contains_value(log.im, truth.imag)
            assert log.re.err < 1e-12 and log.im.err < 1e-14

    def test_huge_reciprocals_contain_and_stay_tight(self):
        # Centers from 1e95 to 1e308 reach both b0^2 * m and b0^2 overflowing.
        rng = random.Random(1701)
        checked = 0
        for _ in range(600):
            b0 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(95.0, 308.0)
            coeffs = tuple(rng.choice((0.0, b0 * rng.choice((-1, 1)) * 10.0 ** rng.uniform(-18, -1)))
                           for _ in range(rng.randrange(3)))
            be = rng.choice((0.0, abs(b0) * 10.0 ** rng.uniform(-18, -1)))
            f = Jet(b0, coeffs, be)
            r = f.reciprocal()
            s = f.spread()
            m = abs(b0) - s
            assert r.err <= 4.0 * abs(r.center) * (s / m + EPS_PRIM) + 1e-322
            with mpmath.workdps(60):
                for xs in itertools.product((-1, 1), repeat=len(coeffs)):
                    for e in (-be, be):
                        v = mpmath.mpf(b0) + e + sum(mpmath.mpf(c) * x for c, x in zip(coeffs, xs))
                        assert jet_contains(r, xs, 1 / v), (b0, coeffs, be)
            checked += 1
        assert checked == 600

    def test_reciprocal_remainder_when_its_denominator_underflows(self):
        # 1/(1 - z) for z = 1e120 (1 + i) has real part b0 = -5e-121, and
        # b0^2 * m = 1.25e-361 underflows; the reciprocal of that provably
        # nonzero part was once refused as "range too close to zero".
        x = 1e120
        w = reciprocal(one_minus(ComplexJet.constant(complex(x, x))))
        r = w.im / w.re
        assert r.center == -1.0 and r.err < 1e-14
        arg = arg_complex(w)
        with mpmath.workdps(60):
            assert jet_contains_value(r, mpmath.mpf(x) / (1 - mpmath.mpf(x)))
            assert jet_contains_value(arg, mp_arg(1 - mpmath.mpf(x), mpmath.mpf(x), dps=60))

    def test_tiny_reciprocals_contain_and_stay_tight(self):
        # Centers from 1e-160 to 1e-100: b0^2 * m underflows for |b0| below
        # about 1.7e-108, and b0^2 is subnormal below about 1.5e-154, where
        # a jet with a spread is refused.
        rng = random.Random(1702)
        checked = refused = 0
        for _ in range(600):
            b0 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-160.0, -100.0)
            coeffs = tuple(rng.choice((0.0, b0 * rng.choice((-1, 1)) * 10.0 ** rng.uniform(-18, -1)))
                           for _ in range(rng.randrange(3)))
            be = rng.choice((0.0, abs(b0) * 10.0 ** rng.uniform(-18, -1)))
            f = Jet(b0, coeffs, be)
            s = f.spread()
            if s and b0 * b0 < 2.0 ** -1022:
                with pytest.raises(JetDomainError, match="center too close to zero"):
                    f.reciprocal()
                refused += 1
                continue
            r = f.reciprocal()
            m = abs(b0) - s
            assert r.err <= 4.0 * abs(r.center) * (s / m + EPS_PRIM) + 1e-322
            with mpmath.workdps(60):
                for xs in itertools.product((-1, 1), repeat=len(coeffs)):
                    for e in (-be, be):
                        v = mpmath.mpf(b0) + e + sum(mpmath.mpf(c) * x for c, x in zip(coeffs, xs))
                        assert jet_contains(r, xs, 1 / v), (b0, coeffs, be)
            checked += 1
        assert checked + refused == 600 and checked > 400 and refused > 0

    def test_results_are_finite_or_rejected(self):
        mags = (0.0, 5e-324, 1e-310, 1e-160, 0.7, 3.0, 1e160, 1e300, 1.7e308)
        jets = [Jet(c, (r, -r), e) for c in mags for r in mags[:6] for e in (0.0, 1e-300, 1e-3)]
        ops = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: a / b, lambda a, b: widened(a, b.center))
        for a in jets[::3]:
            for b in jets[::5]:
                for op in ops:
                    try:
                        r = op(a, b)
                    except JetError:
                        continue
                    assert all(math.isfinite(x) for x in (r.center, r.err, *r.coeffs))
                    assert r.err >= 0.0


class TestErrorProduct:
    """A product charges err_a * err_b once: members at the err extremes
    reach 1e-6 for the first pair and 0.005001 for the second."""

    @pytest.mark.parametrize("dim", (0, 1))
    def test_zero_centers(self, dim):
        a = Jet(0.0, (0.0,) * dim, 1e-3)
        assert 1e-6 <= (a * a).err < 1.5e-6

    @pytest.mark.parametrize("dim", (0, 1))
    def test_nonzero_centers(self, dim):
        p = Jet(2.0, (0.0,) * dim, 1e-3) * Jet(3.0, (0.0,) * dim, 1e-3)
        assert 0.005001 <= p.err < 0.0050015


def _member(operand, xs, sign):
    """The member of ``operand`` (a jet or a scalar) at the point ``xs``
    whose error term is ``sign`` times err, as an mpf at the working
    precision."""
    if not isinstance(operand, Jet):
        return mpmath.mpf(operand)
    v = mpmath.mpf(operand.center) + sign * mpmath.mpf(operand.err)
    for c, x in zip(operand.coeffs, xs):
        v += mpmath.mpf(c) * mpmath.mpf(x)
    return v


class TestDimensionZeroOperands:
    """A dimension-0 operand (a constant jet or a scalar) combines with a
    jet of any dimension in either operand order.  Every result contains
    the operation's value on its operands' members, checked by a 50-digit
    oracle at members whose error terms sit at -err and +err."""

    MAGS = (0.0, 5e-324, 1e-310, 2.2e-308, 1e-200, 0.3, 1.7, 3.0, 1e150, 1e300, 1.5e308)
    ERRS = (0.0, 5e-324, 1e-30, 1e-3, 1e300)
    SCALARS = (0, 3, -7, 0.0, -0.0, 0.5, -2.5, 1e-3, 1e3)
    OPS = (operator.add, operator.sub, operator.mul, operator.truediv)

    def _narrow(self, rng, dim, errs=(0.0, 1e-3, 1e-9, 1e-17)):
        """A jet of moderate magnitude, where every charge shows in err."""
        center = rng.choice((0.0, rng.uniform(-4.0, 4.0) * rng.choice((1.0, 1e-3, 1e3))))
        coeffs = tuple(rng.choice((0.0, rng.uniform(-1.0, 1.0) * rng.choice((0.1, 1e-9, 1e-17))))
                       for _ in range(dim))
        return Jet(center, coeffs, rng.choice(errs))

    def _violations(self, fn, operands, oracle, rng) -> int:
        """Sampled members at which ``fn(*operands)`` misses the value of
        ``oracle`` on the operands' members; 0 when fn raises JetError.
        Each point is tried with every combination of err signs."""
        try:
            r = fn(*operands)
        except JetError:
            return 0
        points = (tuple(rng.choice((-1.0, 1.0)) for _ in range(r.dim)),
                  tuple(rng.uniform(-1.0, 1.0) for _ in range(r.dim)))
        bad = 0
        with mpmath.workdps(50):
            for xs in points:
                for signs in itertools.product((-1, 1), repeat=len(operands)):
                    true = oracle(*(_member(o, xs, s) for o, s in zip(operands, signs)))
                    bad += not jet_contains(r, xs, true)
        return bad

    def _both_orders(self, x, y, rng) -> int:
        return sum(self._violations(op, pair, op, rng)
                   for op in self.OPS for pair in ((x, y), (y, x)))

    def test_jet_with_dimension_zero_jet(self):
        rng = random.Random(2027)
        bad = 0
        for _ in range(300):
            j = self._narrow(rng, rng.randint(1, 3))
            k = self._narrow(rng, 0, errs=(1e-3, 1e-9, 1e-17))
            bad += self._both_orders(j, k, rng)
        assert bad == 0

    def test_jet_with_scalar(self):
        rng = random.Random(2028)
        bad = 0
        for _ in range(40):
            j = self._narrow(rng, rng.randint(1, 3))
            for s in self.SCALARS:
                bad += self._both_orders(j, s, rng)
        assert bad == 0

    def test_two_dimension_zero_operands(self):
        rng = random.Random(2029)
        bad = 0
        for _ in range(300):
            a, b = self._narrow(rng, 0), self._narrow(rng, 0)
            bad += self._both_orders(a, b, rng)
            bad += self._both_orders(a, rng.choice(self.SCALARS), rng)
            bad += self._violations(Jet.reciprocal, (a,), lambda v: 1 / v, rng)
        assert bad == 0

    def test_elementary_functions_at_dimension_zero(self):
        rng = random.Random(2030)
        bad = 0
        for _ in range(500):
            # wide operands, where the Taylor remainders show in err
            a = self._narrow(rng, 0, errs=(0.0, 0.5, 0.1, 1e-3, 1e-9))
            bad += self._violations(atan_jet, (a,), mpmath.atan, rng)
            bad += self._violations(log_jet, (a,), mpmath.log, rng)
        assert bad == 0

    def test_elementary_functions_over_the_taylor_rule_regimes(self):
        # The regimes of the width sweep (``taylor_operand``): dimensions
        # 0-8, err 0 and > 0, sup|a/a0 - 1| up to 0.999 for log, |a0| from
        # 1e-300 to 1e300 for atan.
        rng = random.Random(2032)
        bad = 0
        for _ in range(300):
            bad += self._violations(log_jet, (taylor_operand(rng, "log"),), mpmath.log, rng)
            bad += self._violations(atan_jet, (taylor_operand(rng, "atan"),), mpmath.atan, rng)
        assert bad == 0

    def test_log_of_centres_whose_square_underflows(self):
        # log_jet takes 1/a0 directly; through a0^2 it refused every
        # centre below about 2.2e-162.  Centres 1e-307..1e-150, with
        # sup|a/a0 - 1| up to 0.999: none refused, none missing its
        # 50-digit value.
        rng = random.Random(2034)
        bad = 0
        for _ in range(300):
            a = taylor_operand(rng, "log")
            a0 = 10.0 ** rng.uniform(-307, -150)
            scale = a0 / a.center
            a = Jet(a0, tuple(c * scale for c in a.coeffs), a.err * scale)
            if a.prove_positive():
                log_jet(a)
                bad += self._violations(log_jet, (a,), mpmath.log, rng)
        assert bad == 0
        assert log_jet(Jet(1e-170, (1e-173,), 0.0)).bounds()[0] < -390

    def _extreme(self, rng, dim):
        def value():
            return rng.choice(self.MAGS) * rng.choice((1.0, -1.0))
        return Jet(value(), tuple(value() for _ in range(dim)), rng.choice(self.ERRS))

    def test_extreme_magnitudes_are_finite_or_rejected(self):
        rng = random.Random(2031)
        for _ in range(2000):
            j = self._extreme(rng, rng.randint(0, 3))
            k = self._extreme(rng, 0) if rng.random() < 0.5 else rng.choice(
                self.SCALARS + (5e-324, -1e-310, 1e300, -1.5e308))
            calls = [(op, x, y) for op in self.OPS for x, y in ((j, k), (k, j))]
            calls += [(f, j) for f in (Jet.reciprocal, atan_jet, log_jet)]
            for fn, *args in calls:
                try:
                    r = fn(*args)
                except JetError:
                    continue
                assert all(math.isfinite(x) for x in (r.center, r.err, *r.coeffs)), (fn, args)
                assert r.err >= 0.0

    def test_constants_have_dimension_zero(self):
        assert Jet.constant(2.0).dim == pi_jet().dim == half_pi_jet().dim == 0
        assert ComplexJet.constant(1j).dim == 0
        assert (Jet.variable(1.0, 0, 0.5, 2) + pi_jet()).dim == 2


def taylor_operand(rng, fn):
    """A jet for the ``log_jet``/``atan_jet`` sweeps: dimension 0-8, and
    sup|a - a0| = D shared among the coefficients and err, with err 0 in
    a third of the draws and 1e-20 D in a tenth.  For "log", a0 is in
    1e-150..1e150 and D / a0 up to 0.999; for "atan", |a0| is in
    1e-300..1e300 (or 1e-6..1e2) and D is absolute or relative to a0."""
    dim = rng.randint(0, 8)
    if fn == "log":
        a0 = 10.0 ** rng.uniform(-150, 150)
        d = a0 * rng.choice((0.0, 1e-16, 1e-8, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.999))
    else:
        a0 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.choice(
            (rng.uniform(-300, 300), rng.uniform(-6, 2)))
        d = 10.0 ** rng.uniform(-17, 1) * rng.choice((1.0, abs(a0)))
    shares = [rng.random() for _ in range(dim + 1)]
    r = rng.random()
    if r < 1 / 3:
        shares[-1] = 0.0
    elif r < 1 / 3 + 0.1:
        shares[-1] = 1e-20 * sum(shares[:-1])
    total = sum(shares) or 1.0
    return Jet(a0, [rng.choice((-d, d)) * x / total for x in shares[:-1]],
               d * shares[-1] / total)


class TestTaylorRuleWidth:
    """``log_jet`` and ``atan_jet`` fold every Taylor term into err once,
    where the degree-4 forms of ``complex_refs`` built each term as jet
    products and sums.  On a seeded sweep the center and coefficients are
    the reference's, err is never larger, and where the reference raises
    the same error is raised, except where ``atan_jet`` reflects a
    provably signed jet (|a0| >= 2): there its result holds the 50-digit
    atan at sampled members and, where the reference's Taylor
    coefficients do not overflow (|a0| < 2^128), it is narrower in most
    draws and never wider by more than 5 % and two ulps of pi/2, unless
    the reference is wider than the whole range of atan.  A Taylor result
    wider than that range is the range itself, [-pi/2, pi/2] at dimension
    0, and only where the reference is wider too."""

    @staticmethod
    def _outcome(fn, a):
        try:
            return fn(a)
        except JetError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("name, fn, ref", [
        ("log", log_jet, degree4_log_jet), ("atan", atan_jet, degree4_atan_jet)])
    def test_never_wider_than_the_degree4_reference(self, name, fn, ref):
        rng = random.Random(f"taylor-rule/{name}")
        members = random.Random(f"taylor-rule/{name}/members")
        compared = reflected = narrower = wider = capped = 0
        whole_range = Jet(0.0, (), PI_HI * 0.5)
        for _ in range(10_000):
            a = taylor_operand(rng, name)
            new, old = self._outcome(fn, a), self._outcome(ref, a)
            if fn is atan_jet and abs(a.center) >= 2.0 and a.prove_nonzero():
                # atan_jet takes +-pi/2 - atan(1/a); the reference's w^4
                # overflows from |a0| = 2^128 on.
                assert isinstance(new, Jet), a
                assert TestDimensionZeroOperands()._violations(
                    atan_jet, (a,), mpmath.atan, members) == 0, a
                if isinstance(old, Jet):
                    allowed = 1.05 * old.spread() + 2 * ulp(math.pi / 2)
                    assert new.spread() <= allowed or old.spread() > math.pi, a
                    narrower += new.spread() < old.spread()
                    wider += new.spread() > old.spread()
                else:
                    assert abs(a.center) >= 2.0 ** 128, a
                reflected += 1
                continue
            if isinstance(old, tuple):
                assert new == old, a
                continue
            if new == whole_range:
                assert fn is atan_jet and old.spread() > math.pi / 2, a
                capped += 1
                continue
            assert (new.center, new.coeffs) == (old.center, old.coeffs), a
            assert new.err <= old.err, a
            compared += 1
        assert compared > 5_000
        assert reflected > 3_000 if name == "atan" else reflected == 0
        assert narrower > 3 * wider if name == "atan" else narrower == wider == 0
        assert capped > 100 if name == "atan" else capped == 0


    def test_atan_of_large_centres_is_tight(self):
        # 50-digit sweep: |a0| in 1..1e300, sup|a - a0| / |a0| in
        # 1e-12..1e-3, dimension 0-3.  Each result holds atan at sampled
        # members and over the whole range, and is at most twice as wide
        # as the true range plus 8 ulps of atan a0.
        # The Taylor form alone charged D^5 / 5 whatever a0 was: 0.2 at
        # a0 = 1e3, D = 1, and 2e54 at a0 = 1e20, D = 1e11.
        rng = random.Random("atan-large-centres")
        members = random.Random("atan-large-centres/members")
        for _ in range(2_000):
            dim = rng.randint(0, 3)
            a0 = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(0, 300)
            d = abs(a0) * 10.0 ** rng.uniform(-12, -3)
            shares = [rng.random() for _ in range(dim + 1)]
            total = sum(shares)
            a = Jet(a0, [rng.choice((-d, d)) * x / total for x in shares[:-1]],
                    d * shares[-1] / total)
            assert TestDimensionZeroOperands()._violations(
                atan_jet, (a,), mpmath.atan, members) == 0, a
            lo, hi = atan_jet(a).bounds()
            with mpmath.workdps(50):
                a_lo, a_hi = a.bounds()
                t_lo, t_hi = mpmath.atan(a_lo), mpmath.atan(a_hi)
                assert lo <= t_lo and t_hi <= hi, a
                true_width = float(t_hi - t_lo)
            assert hi - lo <= 2 * (true_width + 8 * ulp(math.atan(a0))), a
        assert atan_jet(Jet(1e3, (1.0, 0.0), 0.0)).err < 1.1e-9
        assert atan_jet(Jet(1e20, (1e11, 0.0), 0.0)).err < 4e-16


class TestPostInitHook:
    def test_hook_sees_operation_results(self, monkeypatch):
        # Tracing counts jets by patching Jet.__post_init__.
        seen = []
        original = Jet.__post_init__

        def counting(jet):
            original(jet)
            seen.append(jet)

        monkeypatch.setattr(Jet, "__post_init__", counting)
        a = Jet.variable(2.0, 0, 0.5, 2)
        results = [a + 1.0, a - a, a * a, a.reciprocal(), -a, widened(a, 1e-9),
                   a / 3.0, log_jet(a), atan_jet(a), pi_jet(), half_pi_jet()]
        assert a in seen
        for r in results:
            assert any(r is j for j in seen)


class TestPredicates:
    def test_sup_abs(self):
        assert Jet(1.0, (0.5,), 0.1).sup_abs() >= 1.6
        assert Jet.constant(0.0, 1).sup_abs() == 0.0

    def test_sup_abs_square(self):
        x = Jet(0.0, (1.0,), 0.0)
        assert (x * x).sup_abs() >= 1.0

    def test_prove_positive(self):
        assert Jet(1.0, (0.5,), 0.1).prove_positive()
        assert not Jet(1.0, (1.0,), 0.1).prove_positive()

    def test_positive_negative_exclusive(self):
        rng = random.Random(7)
        for _ in range(300):
            j = Jet(rng.uniform(-2, 2), (rng.uniform(-1, 1),), abs(rng.uniform(0, 0.5)))
            assert not (j.prove_positive() and j.prove_negative())

    def test_prove_lt(self):
        assert Jet(0.5, (0.1,), 0.0).bounds()[1] < 0.7
        assert not Jet(0.5, (0.3,), 0.0).bounds()[1] < 0.7

    def test_association_orders_bound_same_sup(self):
        rng = random.Random(11)
        for _ in range(200):
            a = Jet(rng.uniform(-1, 1), (rng.uniform(-1, 1), 0.0), rng.uniform(0, 0.1))
            b = Jet(rng.uniform(-1, 1), (0.0, rng.uniform(-1, 1)), rng.uniform(0, 0.1))
            c = Jet.constant(rng.uniform(-1, 1), 2)
            s1 = (a + b) + c
            s2 = a + (b + c)
            true_sup = abs(a.center + b.center + c.center) + sum(
                abs(x + y) for x, y in zip(a.coeffs, b.coeffs)
            )
            assert s1.sup_abs() >= true_sup - 1e-12
            assert s2.sup_abs() >= true_sup - 1e-12

    def test_err_monotone_on_inexact_ops(self):
        rng = random.Random(13)
        for _ in range(200):
            a = Jet(rng.uniform(0.1, 2), (rng.uniform(0.1, 1),), rng.uniform(1e-12, 1e-6))
            b = Jet(rng.uniform(0.1, 2), (rng.uniform(0.1, 1),), rng.uniform(1e-12, 1e-6))
            assert (a + b).err >= max(a.err, b.err)
            assert (a * b).err >= a.err  # |b| >= 0.1 keeps the scaled error visible


class TestElementary:
    def test_log_one_exact(self):
        j = log_jet(Jet.constant(1.0))
        lo, hi = j.bounds()
        assert lo <= 0.0 <= hi and hi - lo <= 1e-15

    def test_log_two(self):
        j = log_jet(Jet.constant(2.0))
        assert jet_contains_value(j, mp_log(2))
        assert j.bounds()[1] - j.bounds()[0] <= 10 * ulp(math.log(2.0))

    def test_log_requires_positive(self):
        with pytest.raises(JetDomainError):
            log_jet(Jet(0.5, (1.0,), 0.0))

    def test_log_sampling(self):
        rng = random.Random(3)
        base = Jet(1.0, (0.1,), 0.0)
        j = log_jet(base)
        for _ in range(100):
            x = rng.uniform(-1, 1)
            true = mp_log(mpmath.mpf(1) + mpmath.mpf("0.1") * mpmath.mpf(x))
            assert jet_contains(j, (x,), true)

    def test_atan_zero_exact(self):
        j = atan_jet(Jet.constant(0.0))
        lo, hi = j.bounds()
        assert lo <= 0.0 <= hi and hi - lo <= 1e-15

    def test_atan_one_contains_quarter_pi(self):
        j = atan_jet(Jet.constant(1.0))
        assert jet_contains_value(j, mpmath.pi / 4)
        assert j.bounds()[1] - j.bounds()[0] <= 10 * ulp(math.atan(1.0))

    def test_atan_sampling(self):
        rng = random.Random(5)
        base = Jet(0.3, (0.05,), 0.0)
        j = atan_jet(base)
        for _ in range(100):
            x = rng.uniform(-1, 1)
            true = mp_atan(mpmath.mpf("0.3") + mpmath.mpf("0.05") * mpmath.mpf(x))
            assert jet_contains(j, (x,), true)

    @pytest.mark.parametrize("a", (Jet(2.0, (1.98,), 0.0), Jet(-3.0, (0.0, 2.9), 0.1)))
    def test_atan_is_never_wider_than_its_range(self, a):
        # These were 1.2e8 and 99 wide: the reflection through a
        # reciprocal near 0, and a Taylor remainder at D = 3.
        j = atan_jet(a)
        assert (j.center, j.coeffs, j.err) == (0.0, (), PI_HI * 0.5)
        lo, hi = j.bounds()
        with mpmath.workdps(50):
            assert lo < -mpmath.pi / 2 and mpmath.pi / 2 < hi
        assert hi - lo < 3.15

    def test_pi_enclosure(self):
        with mpmath.workdps(50):
            assert mpmath.mpf(PI_LO) < mpmath.pi < mpmath.mpf(PI_HI)
        assert jet_contains_value(pi_jet(), mpmath.pi)
        assert jet_contains_value(half_pi_jet(), mpmath.pi / 2)


class TestLibmCheck:
    def test_running_libm_is_covered(self):
        assert libm_covered("log") and libm_covered("atan")

    @pytest.mark.parametrize("name", ("log", "atan"))
    def test_libm_off_by_ulps_is_caught(self, monkeypatch, name):
        fn = getattr(math, name)
        monkeypatch.setattr(math, name, lambda x: fn(x) * (1 + 16 * EPS_PRIM))
        assert not libm_covered(name)

    def test_decimal_atan_reference(self):
        ctx = decimal.Context(prec=50)
        with mpmath.workdps(60):
            for x in (1e-300, 0.3, -0.7, 1.0, 7.5, 1e300):
                ref = _decimal_atan(decimal.Decimal(x), ctx)
                assert abs(mpmath.mpf(str(ref)) - mpmath.atan(x)) <= 1e-45 * abs(mpmath.atan(x))


class TestArgument:
    def test_positive_imaginary_axis(self):
        z = ComplexJet.constant(1j)
        assert jet_contains_value(arg_complex(z), mpmath.pi / 2)

    def test_diagonal(self):
        z = ComplexJet.constant(1 + 1j)
        assert jet_contains_value(arg_complex(z), mpmath.pi / 4)

    def test_sixty_degrees(self):
        z = ComplexJet.constant(complex(0.5, math.sqrt(3) / 2))
        a = arg_complex(z)
        assert jet_contains_value(a, mp_arg(0.5, math.sqrt(3) / 2))
        lo, hi = a.bounds()
        assert lo <= 1.0471975511965976 <= hi

    def test_lower_half_plane(self):
        z = ComplexJet.constant(-1 - 1j)
        assert jet_contains_value(arg_complex(z), mp_arg(-1, -1))

    def test_branch_cut_rejected(self):
        z = ComplexJet(Jet(-1.0, (0.0,), 0.0), Jet(0.0, (0.5,), 0.0))
        with pytest.raises(JetDomainError):
            arg_complex(z)

    def test_origin_rejected(self):
        z = ComplexJet(Jet(0.0, (0.5,), 0.0), Jet(0.0, (0.5,), 0.0))
        with pytest.raises(JetDomainError):
            arg_complex(z)

    # Boxes close to an axis relative to their size: picking the branch
    # by provable sign rather than by the dominant part used to give atan
    # arguments in the thousands and useless enclosures.
    ARG_REPROS = ((cmath.rect(0.8675, 0.52079), 1e-8),
                  (complex(-1.65657, 0.010337), 1e-4))

    @pytest.mark.parametrize("z, delta", ARG_REPROS)
    def test_near_axis_boxes_contain_oracle(self, z, delta):
        zj = box(z, delta)
        params = ((zj, lambda w: w), (reciprocal(one_minus(zj)), lambda w: 1 / (1 - w)),
                  (quotient(minus_one(zj), zj), lambda w: (w - 1) / w))
        for wj, f in params:
            a = arg_complex(wj)
            with mpmath.workdps(50):
                true = mpmath.arg(f(mpmath.mpc(z)))
            assert jet_contains_value(a, true)
            lo, hi = a.bounds()
            assert hi - lo < 1e-2

    def test_left_half_plane_branches(self):
        for re_, im_ in ((-2.0, 1e-3), (-2.0, -1e-3), (-1.0, 0.9), (-1.0, -0.9)):
            z = box(complex(re_, im_), 1e-5)
            a = arg_complex(z)
            assert jet_contains_value(a, mp_arg(re_, im_))
            lo, hi = a.bounds()
            assert hi - lo < 1e-4

    def test_complex_log(self):
        z = ComplexJet.constant(complex(0.5, 0.8660254037844386))
        w = complex_log_jet(z)
        assert jet_contains_value(w.re, mpmath.log(abs(mpmath.mpc(0.5, 0.8660254037844386))))
        assert jet_contains_value(w.im, mp_arg(0.5, 0.8660254037844386))


# ---------------------------------------------------------------------------
# Containment fuzz: random expression trees checked against a 50-digit oracle
# ---------------------------------------------------------------------------

def _random_leaf(rng, dim):
    kind = rng.randrange(3)
    if kind == 0:
        c = rng.uniform(-4, 4)
        return Jet.constant(c, dim), lambda xs, c=c: mpmath.mpf(c)
    idx = rng.randrange(dim)
    c = rng.uniform(-4, 4)
    r = rng.choice([0.0, rng.uniform(0, 0.5), rng.uniform(0, 1e-6)])
    jet = Jet.variable(c, idx, r, dim)

    def val(xs, c=c, r=r, idx=idx):
        return mpmath.mpf(c) + mpmath.mpf(r) * xs[idx]

    return jet, val


def _random_tree(rng, dim, depth):
    if depth == 0:
        return _random_leaf(rng, dim)
    op = rng.randrange(8)
    a, fa = _random_tree(rng, dim, depth - 1)
    if op == 0:
        b, fb = _random_tree(rng, dim, depth - 1)
        return a + b, lambda xs: fa(xs) + fb(xs)
    if op == 1:
        b, fb = _random_tree(rng, dim, depth - 1)
        return a - b, lambda xs: fa(xs) - fb(xs)
    if op == 2:
        b, fb = _random_tree(rng, dim, depth - 1)
        return a * b, lambda xs: fa(xs) * fb(xs)
    if op == 3:
        k = rng.uniform(-3, 3)
        return a * k, lambda xs: fa(xs) * mpmath.mpf(k)
    if op == 4:
        return -a, lambda xs: -fa(xs)
    if op == 5:
        if a.prove_nonzero():
            return a.reciprocal(), lambda xs: 1 / fa(xs)
        return a, fa
    if op == 6:
        if a.prove_positive():
            try:
                return log_jet(a), lambda xs: mpmath.log(fa(xs))
            except JetDomainError:
                return a, fa
        return a, fa
    return atan_jet(a), lambda xs: mpmath.atan(fa(xs))


def containment_sweep() -> int:
    """Violations over 10^5 random (tree, sample) trials checked against
    a 50-digit oracle."""
    rng = random.Random(20260808)
    mpmath.mp.dps = 50
    trials = 0
    violations = 0
    while trials < 100_000:
        dim = rng.randint(1, 8)
        depth = rng.randint(1, 3)
        try:
            jet, f = _random_tree(rng, dim, depth)
        except (JetError, OverflowError, ZeroDivisionError):
            continue
        for _ in range(4):
            xs = [mpmath.mpf(rng.uniform(-1, 1)) for _ in range(dim)]
            true = f(xs)
            if not jet_contains(jet, [float(x) for x in xs], true):
                violations += 1
            trials += 1
    return violations


@pytest.mark.fuzz
def test_containment_fuzz_100k(containment_fuzz_violations):
    """10^5 random (tree, sample) trials vs a 50-digit oracle; zero violations."""
    assert containment_fuzz_violations == 0
