"""Rigorous evaluation of the Lobachevsky function.

The function is evaluated through its classical series

    L(theta) = theta * (1 - log|2 theta| + sum_{n>=1} l_n theta^(2n)),
    l_n = |B_{2n}| 4^n / (2n (2n+1)!),

with exact-rational coefficients bracketed into double enclosures.  The
coefficient ratios satisfy l_n / l_{n+1} > pi^2, so once the argument is
reduced into (-pi/2, pi/2] (the function is pi-periodic) any term that
falls below a tolerance bounds the whole remaining tail by twice itself.
All evaluation is carried out in jet arithmetic, so the returned jet
contains the true value of L pointwise over the input jet's range.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import comb

from .jets import (
    Jet,
    JetDomainError,
    PI_HI,
    PI_LO,
    SQRT2_HI,
    _down,
    _jet,
    _mul_up,
    _up,
    log_jet,
    pi_jet,
)

DEFAULT_TERMS = 32
MAX_TERMS = 64


class ReductionError(JetDomainError):
    """Range reduction could not certify |theta0| < pi/sqrt(2)."""


def _bernoulli_even(count: int) -> list:
    """B_2, B_4, ..., B_{2*count} as exact Fractions.

    Binomial recurrence sum_{r=0}^{m} C(m+1, r) B_r = 0 with B_1 = -1/2;
    odd Bernoulli numbers beyond B_1 vanish and are skipped.
    """
    evens = [Fraction(1)]  # B_0
    for m in range(1, count + 1):
        n = 2 * m
        s = Fraction(0)
        for j in range(m):
            s += comb(n + 1, 2 * j) * evens[j]
        s += comb(n + 1, 1) * Fraction(-1, 2)
        evens.append(-s / (n + 1))
    return evens[1:]


def _enclose(x: Fraction) -> tuple:
    """Tightest double pair lo <= x <= hi; int/int division rounds correctly."""
    f = x.numerator / x.denominator
    fr = Fraction(f)
    lo = f if fr <= x else math.nextafter(f, -math.inf)
    hi = f if fr >= x else math.nextafter(f, math.inf)
    return lo, hi


class SeriesCoeffs(namedtuple("SeriesCoeffs", "count lower upper exact")):
    """Bracketed series coefficients l_1 .. l_K with their exact rationals.

    A named tuple rather than a dataclass: ``dataclasses`` imports
    ``inspect``, which would add to the start-up of every command.
    """

    __slots__ = ()

    def term_jet(self, n: int) -> Jet:
        """Dimension-0 jet containing l_n (1-based index)."""
        lo = self.lower[n - 1]
        hi = self.upper[n - 1]
        return _jet(lo, (), _up(hi - lo))


def series_coeffs(count: int = DEFAULT_TERMS) -> SeriesCoeffs:
    """Exact-rational l_n enclosures, with the pi^2 ratio law verified."""
    if not 1 <= count <= MAX_TERMS:
        raise ValueError(f"term count must be in 1..{MAX_TERMS}, got {count}")
    bern = _bernoulli_even(count)
    exact = []
    for n in range(1, count + 1):
        l_n = abs(bern[n - 1]) * Fraction(4 ** n, 2 * n * math.factorial(2 * n + 1))
        exact.append(l_n)
    # pi^2 < Fraction(PI_HI)^2, so beating the latter proves the ratio law.
    pi_sq_upper = Fraction(PI_HI) ** 2
    for n in range(count - 1):
        if not exact[n] / exact[n + 1] > pi_sq_upper:
            raise RuntimeError(
                f"coefficient ratio l_{n+1}/l_{n+2} failed the pi^2 law; "
                "the series implementation is broken"
            )
    los, his = zip(*(_enclose(l) for l in exact))
    return SeriesCoeffs(count, los, his, tuple(exact))


_DEFAULT_COEFFS = None


def default_coeffs() -> SeriesCoeffs:
    global _DEFAULT_COEFFS
    if _DEFAULT_COEFFS is None:
        _DEFAULT_COEFFS = series_coeffs(DEFAULT_TERMS)
    return _DEFAULT_COEFFS


# Certified lower bound for pi/sqrt(2), the reduction target ceiling.
_REDUCE_LIMIT = _down(PI_LO / SQRT2_HI)


def range_reduce(theta: Jet) -> Jet:
    """Shift theta by a multiple of pi into (-pi/2, pi/2].

    L is pi-periodic, so L(theta0) = L(theta) pointwise.  Raises
    ReductionError when |theta0| < pi/sqrt(2) cannot be certified, which
    happens only for jets wide enough to straddle more than a half period.
    """
    k = round(theta.center / math.pi)
    if k == 0:
        theta0 = theta
    else:
        theta0 = theta - pi_jet() * float(k)
    if not theta0.sup_abs() < _REDUCE_LIMIT:
        raise ReductionError(
            "cannot certify |theta0| < pi/sqrt(2) after range reduction"
        )
    return theta0


def lobachevsky(theta: Jet, tol: float = 1e-12) -> Jet:
    """Jet containing L(theta) pointwise for every represented theta.

    The series is truncated at the first term whose magnitude bound falls
    below ``tol``; the dropped tail is bounded by twice that term and
    absorbed into the error radius.  Jets that are identically zero return
    the exact (dimension-0) zero; nondegenerate jets straddling zero are
    rejected since log|2 theta| is singular there.
    """
    coeffs = default_coeffs()
    theta0 = range_reduce(theta)
    if theta0.is_exact_zero():
        return Jet.constant(0.0)
    if theta0.prove_positive():
        return _eval_positive(theta0, tol, coeffs)
    if theta0.prove_negative():
        return -_eval_positive(-theta0, tol, coeffs)
    raise JetDomainError(
        "Lobachevsky argument straddles zero with positive width"
    )


def _eval_positive(t: Jet, tol: float, coeffs: SeriesCoeffs) -> Jet:
    """Series evaluation for t provably inside (0, pi/sqrt(2))."""
    s = 1.0 - log_jet(t * 2.0)
    t_sq = t * t
    power = t_sq
    tail = None
    for n in range(1, coeffs.count + 1):
        term = coeffs.term_jet(n) * power
        bound = term.sup_abs()
        if bound <= tol:
            # Remaining terms from n on sum to less than 2 * bound.
            tail = _jet(bound, (), bound)
            break
        s = s + term
        if n < coeffs.count:
            power = power * t_sq
    if tail is None:
        # Ran out of terms: l_{K+1} <= l_K / pi^2 bounds the next term, and
        # the tail from K+1 is at most twice that.
        pi_sq_lo = _down(PI_LO * PI_LO)
        next_bound = _up(_mul_up(bound, t_sq.sup_abs()) / pi_sq_lo)
        h = _mul_up(2.0, next_bound) * 0.5
        tail = _jet(h, (), h)
    return t * (s + tail)
