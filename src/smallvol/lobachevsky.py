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
bounds the whole remaining tail by twice itself.

There are two evaluators, and one range reduction (``_reduce``, a
pair operation of ``points``) in front of both.  ``_triple`` takes a
(center, coeffs, err) triple with linear terms through the jet rules of
``jets`` on triples, with the operations and charges of the jet
operators, truncating at a tolerance, so the returned triple contains
the true value of L pointwise over the input's range; it builds no jet.
Jet volumes (``geometry``) call it, and ``lobachevsky`` is a thin
wrapper that takes a jet's fields and wraps the result.
``_point`` takes a point (center, err) in plain floats with an a priori
rounding bound, and sums the series until its terms fall below 2^-64,
so no tolerance enters; exact-shape volumes and dimension-0 triples
use it.

Loading the module, and filling the coefficients (``default_coeffs``),
takes only the rounding layer (``rounding``).  The jet classes and the
point layer are reached as ``smallvol.jets`` and ``smallvol.points``,
which load on first use (the package's ``__getattr__``), so a command
that runs no jet rule never loads the jet module.
"""

from __future__ import annotations

import math
from collections import namedtuple

# Importing the package from its own import is safe: it is already in
# ``sys.modules``, and its ``__getattr__`` is defined by the first call.
import smallvol

from .rounding import (EPS_PRIM, PI_HI, PI_LO, SQRT2_HI, TINY, JetDomainError,
                       _down, _mul_up, _up)

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


# Certified lower bound for pi/sqrt(2), the reduction target ceiling.
_REDUCE_LIMIT = _down(PI_LO / SQRT2_HI)


def _reduce(theta: float, err: float) -> tuple:
    """The pair (theta, err) shifted by round(theta / pi) times [PI_LO,
    PI_HI], by the pair operations of ``points``: L is pi-periodic, so
    it has the same values over the shifted pair."""
    k = round(theta / math.pi)
    if not k:
        return theta, err
    points = smallvol.points
    return points._add0(theta, err, *points._mul0(PI_LO, PI_HI - PI_LO, -k, 0.0))


def lobachevsky(theta: Jet, tol: float = 1e-12) -> Jet:
    """Jet containing L(theta) pointwise for every represented theta
    (``_triple`` on the jet's fields)."""
    return smallvol.jets._jet(*_triple(theta.center, theta.coeffs, theta.err, tol))


def _triple(t0: float, ts: tuple, te: float, tol: float) -> tuple:
    """L over the (center, coeffs, err) triple t, pointwise, as a triple.

    The series stops at the first term whose magnitude bound falls below
    ``tol`` and charges twice that term for the tail.  The center is
    reduced by ``_reduce``, and ReductionError is raised where |t| <
    pi/sqrt(2) is then not certified (a triple wider than half a
    period; max(-lo, hi) of ``_bounds`` is the ``_sup_abs`` bound).  An
    identically zero triple gives the exact zero at dimension 0, and one
    straddling zero is refused, since log|2t| is singular there.  A
    dimension-0 triple goes to ``_point``, which ignores ``tol``.
    """
    if not ts:
        c, e = _point(t0, te)
        return c, (), e
    jets = smallvol.jets
    t0, te = _reduce(t0, te)
    lo, hi = jets._bounds(t0, ts, te)
    if not max(-lo, hi) < _REDUCE_LIMIT:
        raise ReductionError("cannot certify |theta0| < pi/sqrt(2) after range reduction")
    if t0 == 0.0 and te == 0.0 and not any(ts):
        return 0.0, (), 0.0
    if lo > 0.0:
        return _eval_positive(t0, ts, te, tol)
    if hi < 0.0:  # L is odd, and negation is exact
        return jets._neg(*_eval_positive(*jets._neg(t0, ts, te), tol))
    raise JetDomainError("Lobachevsky argument straddles zero with positive width")


def _eval_positive(t0: float, ts: tuple, te: float, tol: float) -> tuple:
    """Series evaluation for the triple t = (t0, ts, te), provably inside
    (0, pi/sqrt(2)), as a triple from the ``default_coeffs``: each step is
    the jet operation of ``jets`` on triples, and no jet is built."""
    coeffs = default_coeffs()
    jets = smallvol.jets  # looked up per call, so a patched rule is seen
    add, mul, mul_const, sup_abs = jets._add, jets._mul, jets._mul_const, jets._sup_abs
    # 1 - log 2t by the operations of the jet expression 1.0 - log_jet(t * 2.0).
    lg = jets._log(*mul_const(t0, ts, te, 2.0, 0.0))
    s0, ss, se = jets._add_const(*jets._neg(*lg), 1.0, 0.0)
    q0, qs, qe = mul(t0, ts, te, t0, ts, te)  # t^2
    p0, ps, pe = q0, qs, qe  # t^2n
    tail = None
    for n, (lo, hi) in enumerate(zip(coeffs.lower, coeffs.upper), 1):
        # The dimension-0 constant [lo, hi] containing l_n, times t^2n.
        m0, ms, me = mul_const(p0, ps, pe, lo, _up(hi - lo))
        bound = sup_abs(m0, ms, me)
        if bound <= tol:
            # Remaining terms from n on sum to less than 2 * bound.
            tail = bound
            break
        s0, ss, se = add(s0, ss, se, m0, ms, me)
        if n < coeffs.count:
            p0, ps, pe = mul(p0, ps, pe, q0, qs, qe)
    if tail is None:
        # Ran out of terms: l_{K+1} <= l_K / pi^2 bounds the next term, and
        # the tail from K+1 is at most twice that.
        pi_sq_lo = _down(PI_LO * PI_LO)
        next_bound = _up(_mul_up(bound, sup_abs(q0, qs, qe)) / pi_sq_lo)
        tail = _mul_up(2.0, next_bound) * 0.5
    # The tail is the dimension-0 constant [0, 2 tail], centred at tail.
    return mul(t0, ts, te, *jets._add_const(s0, ss, se, tail, tail))


# Series terms below this are dropped: far below one rounding of the
# bracket 1 - log 2t + sum, which is O(1) for t up to pi/2.
_STOP = 2.0 ** -64
# gamma_k <= k u _ONE_GAMMA for every k the kernel meets (k <= 2 MAX_TERMS + 4),
# with room for the roundings of its weight sums.
_ONE_GAMMA = 1.0 + 2.0 ** -40
# Above log(pi/2) = 0.451582705...: |L'(t)| = |log 2 sin t| is at most
# |log 2t| + log(pi/2) on (0, pi/sqrt(2)), as 2t >= 2 sin t >= 4t/pi on
# [0, pi/2] (Jordan) and 1.5 < 2 sin t <= 2 < 2t beyond.
_LOG_HALF_PI_HI = 0.4516
_PI_SQ_LO = _down(PI_LO * PI_LO)


def _point(theta: float, err: float) -> tuple:
    """Pair (value, err) enclosing L over [theta - err, theta + err], in
    plain floats: no jet is built.

    theta is reduced by ``_reduce``, and L(t) = t (1 - log 2t + S),
    S = sum l_n t^2n, is evaluated at t = |theta| with the upper
    coefficients, taking terms until one falls below ``_STOP``, so the
    result does not depend on a tolerance.  Term n is nonnegative and
    within gamma_{2n+2} of l_n t^2n (the coefficient's ulp, t^2, and n
    multiplications; Higham 2002, Sec. 3.1), and ``math.fsum`` rounds
    their sum once, so S is within u (sum (2n + 2) term_n + S)
    (1 + 2^-40) of the float sum.  The dropped tail is at most twice its
    first term (ratios below t^2 / pi^2 <= 1/2), libm's log is charged
    ``_libm_err``, and err adds
    |L'(t)| err + err^2 / (2 d), d = min(t, pi - t) - err, since
    |L''| = |cot| <= 1 / min(t, pi - t); where err^2 underflows, the
    quadratic term is bounded as err (err / d) / 2 instead.
    """
    points, up, inf = smallvol.points, math.nextafter, math.inf
    theta, err = _reduce(theta, err)
    t = abs(theta)
    if not t:
        if err:
            raise JetDomainError("Lobachevsky argument straddles zero with positive width")
        return 0.0, 0.0
    lo = _down(t - err) if err else t
    if not lo > 0.0:
        raise JetDomainError("Lobachevsky argument straddles zero with positive width")
    if not up(t + err, inf) < _REDUCE_LIMIT:
        raise ReductionError("cannot certify |theta0| < pi/sqrt(2) after range reduction")
    t2 = t * t
    terms = []
    power, p, w = 1.0, 0.0, 0.0
    for n, c in enumerate(default_coeffs().upper, 1):
        power *= t2
        p = c * power
        if p < _STOP:
            tail = up(up(p * 2.0 * _ONE_GAMMA, inf) + 2.0 * TINY, inf)
            break
        terms.append(p)
        w += n * p
    else:
        # Out of coefficients: l_{K+1} < l_K / pi^2 bounds the next term.
        nxt = up(up(up(p * _ONE_GAMMA, inf) * up(t2, inf), inf) / _PI_SQ_LO, inf)
        tail = up(2.0 * nxt, inf)
    s = math.fsum(terms)
    lg = math.log(2.0 * t)
    a = 1.0 - lg
    b = a + s
    e_lg = points._libm_err(lg)
    e_s = up(up(EPS_PRIM * (2.0 * w + 3.0 * s), inf) * _ONE_GAMMA, inf)
    b_err = up(up(e_lg + up(EPS_PRIM * abs(a), inf), inf) + up(EPS_PRIM * abs(b), inf), inf)
    b_err = up(b_err + up(e_s + tail, inf), inf)
    v = t * b
    v_err = up(up(t * b_err, inf) + up(up(EPS_PRIM * abs(v), inf) + TINY, inf), inf)
    if err:
        d = up(up(abs(lg) + e_lg, inf) + _LOG_HALF_PI_HI, inf)
        den = min(lo, _down(_down(PI_LO - t) - err))
        sq = err * err
        if sq >= points._MIN_NORMAL:
            quad = up(up(0.5 * up(sq, inf), inf) / den, inf)
        else:  # err^2 underflows: no relative bound, so divide first
            quad = up(0.5 * up(err * up(err / den, inf), inf), inf)
        v_err = up(v_err + up(up(d * err, inf) + quad, inf), inf)
    return (v if theta > 0.0 else -v), v_err
