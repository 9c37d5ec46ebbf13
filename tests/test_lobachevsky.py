import hashlib
import importlib
import math
import random
from fractions import Fraction

import mpmath
import pytest

from smallvol.geometry import ShapeAssignment, certified_volume
from smallvol.jets import Jet, JetDomainError, pi_jet
from smallvol.lobachevsky import (
    MAX_TERMS,
    ReductionError,
    default_coeffs,
    lobachevsky,
    series_coeffs,
)

import lobachevsky_refs
from oracles import (
    jet_contains_value,
    lobachevsky_clausen,
    lobachevsky_quad,
    series_coeffs_reference,
)

# The package attribute ``smallvol.lobachevsky`` is the function.
lobachevsky_module = importlib.import_module("smallvol.lobachevsky")


def _perturb_tangent_number(monkeypatch, n, delta):
    """Make ``_tangent_numbers`` return T_n + delta in place of T_n."""
    real = lobachevsky_module._tangent_numbers

    def perturbed(count):
        t = real(count)
        t[n - 1] += delta
        return t

    monkeypatch.setattr(lobachevsky_module, "_tangent_numbers", perturbed)


class TestSeriesCoeffs:
    def test_l1_exact(self):
        sc = series_coeffs(4)
        assert sc.exact[0] == Fraction(1, 18)
        assert sc.lower[0] <= 1 / 18 <= sc.upper[0]

    def test_l2_exact(self):
        sc = series_coeffs(4)
        assert sc.exact[1] == Fraction(1, 900)

    def test_ratio_first_pair(self):
        sc = series_coeffs(4)
        assert sc.exact[0] / sc.exact[1] == 50

    def test_ratio_law_50_terms(self):
        sc = series_coeffs(51)
        pi_sq = Fraction(math.nextafter(math.pi, math.inf)) ** 2
        for n in range(50):
            assert sc.exact[n] / sc.exact[n + 1] > pi_sq

    def test_enclosures_bracket(self):
        sc = series_coeffs(32)
        for lo, hi, ex in zip(sc.lower, sc.upper, sc.exact):
            assert Fraction(lo) <= ex <= Fraction(hi)

    def test_zeta_closed_form(self):
        # l_1 = zeta(2) / (pi^2 * 1 * 3)
        with mpmath.workdps(30):
            closed = mpmath.zeta(2) / (mpmath.pi ** 2 * 3)
            assert abs(closed - mpmath.mpf(1) / 18) < mpmath.mpf("1e-12")

    def test_tail_bound_instances(self):
        # theta = 1: partial tails from k are below 2 l_k, in exact arithmetic.
        sc = series_coeffs(40)
        for k in range(1, 11):
            tail = sum(sc.exact[n - 1] for n in range(k, 41))
            assert tail < 2 * sc.exact[k - 1]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            series_coeffs(0)
        with pytest.raises(ValueError):
            series_coeffs(65)

    def test_matches_the_bernoulli_reference(self):
        lower, upper, exact = series_coeffs_reference(MAX_TERMS)
        for k in range(1, MAX_TERMS + 1):
            sc = series_coeffs(k)
            assert [x.hex() for x in sc.lower] == [x.hex() for x in lower[:k]]
            assert [x.hex() for x in sc.upper] == [x.hex() for x in upper[:k]]
            assert sc.exact == exact[:k]

    @pytest.mark.parametrize("n", (1, 2, 3, 17, 32, 64))
    @pytest.mark.parametrize("delta", (1, -1))
    def test_tangent_number_off_by_one_raises(self, monkeypatch, n, delta):
        _perturb_tangent_number(monkeypatch, n, delta)
        with pytest.raises(RuntimeError, match="von Staudt-Clausen"):
            series_coeffs(MAX_TERMS)

    def test_ratio_law_violation_raises(self, monkeypatch):
        # T_2 + 60 makes B_4 = -31/30, which von Staudt-Clausen accepts
        # (-31/30 + 1/2 + 1/3 + 1/5 = 0), but l_1 / l_2 drops to 1.6.
        _perturb_tangent_number(monkeypatch, 2, 60)
        with pytest.raises(RuntimeError, match="pi\\^2 law"):
            series_coeffs(4)


class TestRangeReduce:
    """``_reduce``: the one range reduction, on (center, err) pairs."""

    def test_already_reduced(self):
        assert lobachevsky_module._reduce(0.3, 0.0) == (0.3, 0.0)

    def test_pi_reduces_to_zero(self):
        c, e = lobachevsky_module._reduce(pi_jet().center, pi_jet().err)
        assert c - e <= 0.0 <= c + e

    def test_two_reduces_down(self):
        c, e = lobachevsky_module._reduce(2.0, 0.0)
        assert jet_contains_value(Jet(c, (), e), 2 - mpmath.pi)

    def test_wide_jet_fails(self):
        # Past pi/sqrt(2) on both sides of zero, below it, or above it.
        for center in (0.0, -1.5, 1.5):
            with pytest.raises(ReductionError):
                lobachevsky(Jet(center, (2.5 - abs(center),), 0.0))

    def test_matches_the_reduction_on_jets(self):
        # The center and err bits of the jet expression theta - pi k,
        # with the coefficients untouched, at centres from 0 to 1e6
        # and errs from 0 to 1e-3.
        rng = random.Random(3535)
        for _ in range(20000):
            c = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3, 6)
            err = rng.choice((0.0, 10.0 ** rng.uniform(-20, -3)))
            theta = Jet(c, (1e-12, -2e-13), err)
            ref = lobachevsky_refs.range_reduce(theta)
            assert lobachevsky_module._reduce(c, err) == (ref.center, ref.err), theta
            assert ref.coeffs == theta.coeffs


class TestLobachevsky:
    def test_zero_is_exact(self):
        j = lobachevsky(Jet.constant(0.0))
        assert j.is_exact_zero()

    def test_half_pi_contains_zero(self):
        j = lobachevsky(half := pi_jet() * 0.5)
        lo, hi = j.bounds()
        assert lo <= 0.0 <= hi

    def test_pi_sixth(self):
        j = lobachevsky(pi_jet() * (1.0 / 6.0))
        oracle = lobachevsky_quad(mpmath.pi / 6)
        assert jet_contains_value(j, oracle)
        assert str(oracle)[:9] == "0.5074708"

    def test_prove_lt_at_maximum(self):
        # the function peaks just above 0.507, provably below 0.51
        hi = lobachevsky(pi_jet() * (1.0 / 6.0)).bounds()[1]
        assert hi < 0.51
        assert not hi < 0.507

    def test_pi_third(self):
        j = lobachevsky(pi_jet() * (1.0 / 3.0))
        oracle = lobachevsky_quad(mpmath.pi / 3)
        assert jet_contains_value(j, oracle)
        assert str(oracle)[:9] == "0.3383138"

    def test_reduction_test_reads_the_sup_abs_off_the_bounds(self):
        # ``_triple`` tests max(-lo, hi) of its one ``_bounds`` against the
        # reduction limit: the value of ``_sup_abs``, up to the sign of a zero.
        jets = importlib.import_module("smallvol.jets")
        rng = random.Random(3703)
        for _ in range(5000):
            x0 = rng.choice((0.0, -0.0, rng.uniform(-3.0, 3.0), rng.uniform(-1e-300, 1e-300)))
            xs = tuple(rng.choice((0.0, rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 0)))
                       for _ in range(rng.randint(1, 3)))
            err = rng.choice((0.0, 5e-324, 1e-17, 0.1))
            lo, hi = jets._bounds(x0, xs, err)
            assert max(-lo, hi) == jets._sup_abs(x0, xs, err), (x0, xs, err)

    def test_quadrature_vs_clausen_oracles_agree(self):
        for x in (0.2, 0.7, 1.3):
            q = lobachevsky_quad(x)
            c = lobachevsky_clausen(x)
            assert abs(q - c) < mpmath.mpf("1e-25")

    def test_oracle_agreement_and_width_200(self):
        rng = random.Random(42)
        for _ in range(200):
            x = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            j = lobachevsky(Jet.constant(x), tol=1e-12)
            lo, hi = j.bounds()
            assert hi - lo <= 1e-9
            assert jet_contains_value(j, lobachevsky_quad(x))

    def test_oddness_overlap(self):
        rng = random.Random(43)
        for _ in range(200):
            x = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
            if abs(x) < 1e-6:
                continue
            a = lobachevsky(Jet.constant(x))
            b = -lobachevsky(Jet.constant(-x))
            alo, ahi = a.bounds()
            blo, bhi = b.bounds()
            assert alo <= bhi and blo <= ahi

    def test_periodicity_overlap(self):
        rng = random.Random(44)
        for _ in range(200):
            x = rng.uniform(-1.4, 1.4)
            if abs(x) < 1e-6:
                continue
            a = lobachevsky(Jet.constant(x))
            b = lobachevsky(Jet.constant(x) + pi_jet())
            alo, ahi = a.bounds()
            blo, bhi = b.bounds()
            assert alo <= bhi and blo <= ahi

    def test_jet_input_containment(self):
        rng = random.Random(45)
        base = Jet.variable(0.9, 0, 1e-3, 1)
        j = lobachevsky(base)
        for _ in range(50):
            x = rng.uniform(-1, 1)
            theta = 0.9 + 1e-3 * x
            val = lobachevsky_quad(theta)
            lin_lo = j.center + min(j.coeffs[0] * x, j.coeffs[0] * x) - j.err
            lin_hi = j.center + j.coeffs[0] * x + j.err
            assert lin_lo <= float(val) <= lin_hi

    def test_straddling_zero_rejected(self):
        with pytest.raises(JetDomainError):
            lobachevsky(Jet.variable(0.0, 0, 0.1, 1))

    def test_small_tol_still_contains(self):
        j = lobachevsky(Jet.constant(1.0), tol=1e-30)  # exhausts all terms
        assert jet_contains_value(j, lobachevsky_quad(1.0))


def _encloses(pair, value):
    c, e = pair
    return mpmath.mpf(c) - mpmath.mpf(e) <= value <= mpmath.mpf(c) + mpmath.mpf(e)


class TestPointKernel:
    """``_point``: L on plain floats, summed to full precision."""

    THETAS = (1e-300, 5e-324, 1e-100, 1e-20, 1e-8, 0.1, 0.5, 1.0, math.pi / 3,
              math.pi / 2, math.nextafter(math.pi / 2, 0.0), 1.6, 2.5, 3.0,
              3.1415926, 3.2, 7.0, 100.0)

    @pytest.mark.parametrize("theta", THETAS + tuple(-t for t in THETAS))
    def test_contains_the_clausen_value(self, theta):
        c, e = pair = lobachevsky_module._point(theta, 0.0)
        value = lobachevsky_clausen(theta, dps=50)
        assert _encloses(pair, value)
        if abs(theta) < 1.0:  # no reduction: a few ulps of the value
            assert e <= 2e-15 * abs(value) + 1e-320
        else:  # pi's enclosure, times |L'|, after reduction
            assert e <= 2e-14

    def test_random_points_with_an_error_radius(self):
        rng = random.Random(46)
        for _ in range(200):
            theta = rng.uniform(-4.0, 4.0)
            err = theta * 10.0 ** rng.uniform(-16, -3)
            err = abs(err)
            try:
                pair = lobachevsky_module._point(theta, err)
            except JetDomainError:  # straddles a multiple of pi
                continue
            for x in (theta - err, theta, theta + err, theta + err * rng.uniform(-1, 1)):
                assert _encloses(pair, lobachevsky_clausen(x, dps=40)), (theta, err)

    def test_straddling_zero_rejected(self):
        assert lobachevsky_module._point(0.0, 0.0) == (0.0, 0.0)
        # The float nearest pi lies within pi's own enclosure of pi.
        for theta, err in ((0.0, 1e-300), (1e-20, 1e-20), (math.pi, 0.0)):
            with pytest.raises(JetDomainError):
                lobachevsky_module._point(theta, err)

    def test_dimension_zero_jets_use_the_kernel_whatever_tol(self, monkeypatch):
        # No jet series runs, so no jet log is taken and tol changes nothing.
        from smallvol import jets

        def refuse(*args):
            raise AssertionError("jet series evaluated")

        monkeypatch.setattr(jets, "log_jet", refuse)
        monkeypatch.setattr(jets, "_log", refuse)
        for x in (0.3, 1.0, -2.0, 1e-30):
            pair = lobachevsky_module._point(x, abs(x) * 1e-15)
            for tol in (1e-3, 1e-12, 1e-30):
                j = lobachevsky(Jet(x, (), abs(x) * 1e-15), tol=tol)
                assert (j.center, j.coeffs, j.err) == (pair[0], (), pair[1])

    def test_at_least_as_tight_as_the_jet_series(self):
        rng = random.Random(47)
        for _ in range(100):
            x = rng.uniform(1e-3, math.pi / 2)
            c, e = lobachevsky_module._point(x, 0.0)
            lo, hi = lobachevsky(Jet(x, (0.0,), 0.0), tol=1e-16).bounds()
            assert 2 * e <= hi - lo


def _outcome(fn, *args):
    """Every field of a jet or an interval by ``float.hex``, or the type
    and message of the error ``fn`` raises."""
    try:
        r = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc).__name__, str(exc)
    if isinstance(r, Jet):
        return (r.center.hex(), *(c.hex() for c in r.coeffs), r.err.hex())
    return r.lo.hex(), r.hi.hex()


def _digest(outcomes):
    return hashlib.sha256(repr(outcomes).encode()).hexdigest()


def _series_cases():
    """6,000 seeded (jet, tol) pairs: dimension 0 to 4, spreads 1e-16 to
    1e-3 split over the coefficients (some exactly zero), err 0 in half
    of them, tol 1e-16 to 1e-8 (1e-40 to 1e-20 in one case of 20, which
    can run out of coefficients), and centres near 0, near +-pi/2, past
    +-pi/sqrt(2) (range reduction) and anywhere in between."""
    rng = random.Random(34)
    cases = []
    for i in range(6000):
        kind = i % 4
        if kind == 0:
            c = 10.0 ** rng.uniform(-14, -1)
        elif kind == 1:
            c = math.pi / 2 + rng.choice((-1, 1)) * 10.0 ** rng.uniform(-16, -2)
        elif kind == 2:
            c = rng.uniform(math.pi / math.sqrt(2), 12.0)
        else:
            c = rng.uniform(0.0, math.pi / math.sqrt(2))
        c = rng.choice((-1.0, 1.0)) * c
        dim = rng.randint(0, 4)
        spread = 10.0 ** rng.uniform(-16, -3)
        weights = [rng.choice((0.0, rng.uniform(-1.0, 1.0))) for _ in range(dim)]
        norm = sum(map(abs, weights)) or 1.0
        coeffs = [spread * w / norm for w in weights]
        err = rng.choice((0.0, spread * 10.0 ** rng.uniform(-3, 0)))
        tol = 10.0 ** (rng.uniform(-40, -20) if rng.random() < 0.05 else rng.uniform(-16, -8))
        cases.append((Jet(c, coeffs, err), tol))
    return cases


def _volume_cases():
    """720 seeded ``certified_volume`` calls: 120 each for n = 1, 2, 3, 4,
    8 and 16 tetrahedra, delta 0 or 1e-16 to 1e-3, tol 1e-14 to 1e-8."""
    rng = random.Random(3434)
    cases = []
    for n in (1, 2, 3, 4, 8, 16):
        for i in range(120):
            shapes = [complex(rng.uniform(-1.5, 2.5), rng.uniform(0.05, 2.0))
                      for _ in range(n)]
            delta = 0.0 if i % 6 == 0 else 10.0 ** rng.uniform(-16, -3)
            cases.append((ShapeAssignment(shapes, delta), 10.0 ** rng.uniform(-14, -8)))
    return cases


# SHA-256 of the outcomes of ``_series_cases`` and ``_volume_cases``,
# taken before the series ran on triples.
SERIES_DIGEST = "0319cc548a3283eed8657bf99eaad32dcaf15c4c9a5ebe4d924252bddf851ad9"
VOLUME_DIGEST = "a90d2381a4516581bb3e5fecb75a1ca344c171a0c13da2d18aadf5de2bde31f3"


class TestSeriesBits:
    """The triple series is the per-operation jet series, bit for bit."""

    def test_matches_the_per_operation_series(self):
        got, refused = [], 0
        for theta, tol in _series_cases():
            mine = _outcome(lobachevsky, theta, tol)
            assert mine == _outcome(lobachevsky_refs.lobachevsky, theta, tol), theta
            got.append(mine)
            refused += isinstance(mine[0], str) and mine[0].endswith("Error")
        assert 100 <= refused <= 3000
        # The same outcomes as before the series ran on triples.
        assert _digest(got) == SERIES_DIGEST

    def test_certified_volumes_are_pinned(self):
        got = [_outcome(certified_volume, s, tol) for s, tol in _volume_cases()]
        assert _digest(got) == VOLUME_DIGEST
