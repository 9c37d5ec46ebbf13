import importlib
import math
import random
from fractions import Fraction

import mpmath
import pytest

from smallvol.jets import Jet, JetDomainError, pi_jet
from smallvol.lobachevsky import (
    MAX_TERMS,
    ReductionError,
    default_coeffs,
    lobachevsky,
    range_reduce,
    series_coeffs,
)

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
    def test_already_reduced(self):
        t0 = range_reduce(Jet.constant(0.3))
        assert t0.center == 0.3

    def test_pi_reduces_to_zero(self):
        t0 = range_reduce(pi_jet())
        lo, hi = t0.bounds()
        assert lo <= 0.0 <= hi

    def test_two_reduces_down(self):
        t0 = range_reduce(Jet.constant(2.0))
        assert jet_contains_value(t0, 2 - mpmath.pi)

    def test_wide_jet_fails(self):
        with pytest.raises(ReductionError):
            range_reduce(Jet(0.0, (2.5,), 0.0))


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
