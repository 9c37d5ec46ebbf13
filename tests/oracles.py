"""High-precision reference computations shared by the test suite.

Everything here goes through mpmath at 30-50 significant digits, or
through exact rationals, and is deliberately independent of the
library's own evaluation paths.
"""

import math
from fractions import Fraction

import mpmath


def lobachevsky_quad(theta, dps=30):
    """Adaptive quadrature of the defining integral of the Lobachevsky
    function: integral from 0 to theta of -log|2 sin t| dt."""
    with mpmath.workdps(dps):
        theta = mpmath.mpf(theta)
        if theta == 0:
            return mpmath.mpf(0)
        val = mpmath.quad(lambda t: -mpmath.log(abs(2 * mpmath.sin(t))), [0, theta])
        return +val


def lobachevsky_clausen(theta, dps=30):
    """Independent cross-check: Cl_2(2 theta) / 2."""
    with mpmath.workdps(dps):
        return +(mpmath.clsin(2, 2 * mpmath.mpf(theta)) / 2)


def bernoulli_even(count):
    """B_2, B_4, ..., B_{2*count} as exact Fractions.

    Binomial recurrence sum_{r=0}^{m} C(m+1, r) B_r = 0 with B_1 = -1/2;
    odd Bernoulli numbers beyond B_1 vanish and are skipped.
    """
    evens = [Fraction(1)]  # B_0
    for m in range(1, count + 1):
        n = 2 * m
        s = Fraction(0)
        for j in range(m):
            s += math.comb(n + 1, 2 * j) * evens[j]
        s += math.comb(n + 1, 1) * Fraction(-1, 2)
        evens.append(-s / (n + 1))
    return evens[1:]


def series_coeffs_reference(count):
    """(lower, upper, exact) for the Lobachevsky series coefficients
    l_n = |B_2n| 4^n / (2n (2n+1)!), n = 1..count, from the Bernoulli
    numbers in Fractions: each l_n with its tightest double enclosure
    (int/int division rounds correctly)."""
    exact = tuple(abs(b) * Fraction(4 ** n, 2 * n * math.factorial(2 * n + 1))
                  for n, b in enumerate(bernoulli_even(count), 1))
    lower, upper = [], []
    for x in exact:
        f = x.numerator / x.denominator
        lower.append(f if Fraction(f) <= x else math.nextafter(f, -math.inf))
        upper.append(f if Fraction(f) >= x else math.nextafter(f, math.inf))
    return tuple(lower), tuple(upper), exact


def mp_arg(re, im, dps=50):
    with mpmath.workdps(dps):
        return +mpmath.arg(mpmath.mpc(re, im))


def mp_log(x, dps=50):
    with mpmath.workdps(dps):
        return +mpmath.log(mpmath.mpf(x))


def mp_atan(x, dps=50):
    with mpmath.workdps(dps):
        return +mpmath.atan(mpmath.mpf(x))


def jet_contains(jet, sample, true_value, dps=50):
    """Check that the 50-digit true value lies inside the jet evaluated at
    ``sample`` (a point of [-1,1]^dim) within the error radius."""
    with mpmath.workdps(dps):
        lin = mpmath.mpf(jet.center)
        for c, x in zip(jet.coeffs, sample):
            lin += mpmath.mpf(c) * mpmath.mpf(x)
        err = mpmath.mpf(jet.err)
        v = mpmath.mpf(true_value) if not isinstance(true_value, mpmath.mpf) else true_value
        return lin - err <= v <= lin + err


def jet_contains_value(jet, true_value):
    """Check that a scalar lies in the jet's outward range interval."""
    lo, hi = jet.bounds()
    with mpmath.workdps(50):
        return mpmath.mpf(lo) <= mpmath.mpf(true_value) <= mpmath.mpf(hi)
