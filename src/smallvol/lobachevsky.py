"""Rigorous evaluation of the Lobachevsky function.

The function is evaluated through its classical series

    L(theta) = theta * (1 - log|2 theta| + sum_{n>=1} l_n theta^(2n)),
    l_n = |B_{2n}| 4^n / (2n (2n+1)!) = T_n / ((4^n - 1) (2n+1)!),

where T_n is the n-th tangent number (tan x = sum_n T_n x^(2n-1) / (2n-1)!,
so |B_{2n}| = 2n T_n / (4^n (4^n - 1))).  The tangent numbers come from
the O(K^2) integer recurrence of Brent and Harvey ("Fast computation of
Bernoulli, tangent and secant numbers", 2011), so each l_n is an exact
integer ratio, bracketed into its tightest double enclosure; no rational
arithmetic library is loaded.  The coefficient ratios satisfy
l_n / l_{n+1} > pi^2, so once the argument is reduced into (-pi/2, pi/2]
(the function is pi-periodic) any term that falls below a tolerance
bounds the whole remaining tail by twice itself.  All evaluation is
carried out in jet arithmetic, so the returned jet contains the true
value of L pointwise over the input jet's range.

Loading the module, and filling the coefficients (``default_coeffs``),
takes only the rounding layer (``rounding``).  The functions that take a
jet reach ``jets`` through ``_jets()``, which imports it on first use,
so a command that builds no jet never loads the jet classes.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .rounding import PI_HI, PI_LO, SQRT2_HI, JetDomainError, _down, _mul_up, _up

DEFAULT_TERMS = 32
MAX_TERMS = 64


class ReductionError(JetDomainError):
    """Range reduction could not certify |theta0| < pi/sqrt(2)."""


def _tangent_numbers(count: int) -> list:
    """T_1, ..., T_count: the Brent-Harvey recurrence, in place on one
    list of Python integers."""
    t = [0, 1] + [0] * (count - 1)  # t[n] is T_n; t[0] is unused
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _staudt_clausen_holds(n: int, t_n: int, primes: list) -> bool:
    """von Staudt-Clausen for B_2n = (-1)^(n+1) 2n T_n / E, E = 4^n (4^n - 1):
    B_2n plus the sum of 1/p over the primes p with (p - 1) | 2n (all in
    ``primes``) is an integer.  With D the product of those primes, that
    is E D | (-1)^(n+1) 2n T_n D + E sum D/p, which any change to T_n by
    less than E / 2n breaks."""
    ps = [p for p in primes if 2 * n % (p - 1) == 0]
    d = math.prod(ps)
    e = 4 ** n * (4 ** n - 1)
    b_num = (-1) ** (n + 1) * 2 * n * t_n * d
    return (b_num + e * sum(d // p for p in ps)) % (e * d) == 0


def _enclose(p: int, q: int) -> tuple:
    """Tightest double pair lo <= p/q <= hi for q > 0: int/int division
    rounds correctly, and f = a/b compares with p/q exactly as a q
    against p b."""
    f = p / q
    a, b = f.as_integer_ratio()
    lo = f if a * q <= p * b else _down(f)
    hi = f if a * q >= p * b else _up(f)
    return lo, hi


class SeriesCoeffs(namedtuple("SeriesCoeffs", "count lower upper ratios")):
    """Bracketed series coefficients l_1 .. l_K.

    ``ratios`` holds each l_n = T_n / ((4^n - 1) (2n+1)!) exactly, as the
    integer pair (T_n, (4^n - 1) (2n+1)!) with T_n the tangent number of
    Brent and Harvey's recurrence; ``lower``/``upper`` are its tightest
    double enclosures.  ``exact`` builds the same values as Fractions on
    each read, so only callers that read it load ``fractions``.

    A named tuple rather than a dataclass: ``dataclasses`` imports
    ``inspect``, which would add to the start-up of every command.
    """

    __slots__ = ()

    @property
    def exact(self) -> tuple:
        from fractions import Fraction

        return tuple(Fraction(p, q) for p, q in self.ratios)


def series_coeffs(count: int = DEFAULT_TERMS) -> SeriesCoeffs:
    """Exact-ratio l_n enclosures, with the tangent numbers checked by von
    Staudt-Clausen and the pi^2 ratio law verified."""
    if not 1 <= count <= MAX_TERMS:
        raise ValueError(f"term count must be in 1..{MAX_TERMS}, got {count}")
    primes = [p for p in range(2, 2 * count + 2)
              if all(p % r for r in range(2, math.isqrt(p) + 1))]
    ratios = []
    factorial = 1  # (2n+1)!
    for n, t_n in enumerate(_tangent_numbers(count), 1):
        if not _staudt_clausen_holds(n, t_n, primes):
            raise RuntimeError(
                f"tangent number T_{n} fails the von Staudt-Clausen theorem; "
                "the series implementation is broken"
            )
        factorial *= 2 * n * (2 * n + 1)
        ratios.append((t_n, (4 ** n - 1) * factorial))
    # pi^2 < (a/b)^2 for PI_HI = a/b, so p q' b^2 > a^2 q p' proves
    # l_n / l_{n+1} = (p/q) / (p'/q') > pi^2.
    a, b = PI_HI.as_integer_ratio()
    a2, b2 = a * a, b * b
    for n in range(count - 1):
        (p, q), (p1, q1) = ratios[n], ratios[n + 1]
        if not p * q1 * b2 > a2 * q * p1:
            raise RuntimeError(
                f"coefficient ratio l_{n+1}/l_{n+2} failed the pi^2 law; "
                "the series implementation is broken"
            )
    lower, upper = zip(*(_enclose(p, q) for p, q in ratios))
    return SeriesCoeffs(count, lower, upper, tuple(ratios))


_DEFAULT_COEFFS = None


def default_coeffs() -> SeriesCoeffs:
    global _DEFAULT_COEFFS
    if _DEFAULT_COEFFS is None:
        _DEFAULT_COEFFS = series_coeffs(DEFAULT_TERMS)
    return _DEFAULT_COEFFS


_JETS = None


def _jets():
    """The ``jets`` module, imported by the first call that takes a jet.

    Kept as the module, not its functions, so each call looks up
    ``jets.log_jet`` afresh and sees a wrapper patched onto it.  An import
    statement in place of this call costs about 3 % of a ``lobachevsky``
    call."""
    global _JETS
    if _JETS is None:
        from . import jets
        _JETS = jets
    return _JETS


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
        theta0 = theta - _jets().pi_jet() * float(k)
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
        return _jets().Jet.constant(0.0)
    if theta0.prove_positive():
        return _eval_positive(theta0, tol, coeffs)
    if theta0.prove_negative():
        return -_eval_positive(-theta0, tol, coeffs)
    raise JetDomainError(
        "Lobachevsky argument straddles zero with positive width"
    )


def _eval_positive(t: Jet, tol: float, coeffs: SeriesCoeffs) -> Jet:
    """Series evaluation for t provably inside (0, pi/sqrt(2))."""
    jets = _jets()
    _jet, log_jet = jets._jet, jets.log_jet
    s = 1.0 - log_jet(t * 2.0)
    t_sq = t * t
    power = t_sq
    tail = None
    for n, (lo, hi) in enumerate(zip(coeffs.lower, coeffs.upper), 1):
        # Dimension-0 jet containing l_n.
        term = _jet(lo, (), _up(hi - lo)) * power
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
