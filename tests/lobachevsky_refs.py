"""The jet Lobachevsky series as it was before ``lobachevsky._eval_positive``
ran on (center, coeffs, err) triples: one ``Jet`` per series operation,
after a range reduction on jets.  Tests hold the library's
``lobachevsky`` to this one bit for bit, errors included.  Unlike
``oracles``, it runs on the library's own jet operations, coefficients
and point kernel.
"""

import math

from smallvol.jets import Jet, JetDomainError, _jet, log_jet, pi_jet
from smallvol.lobachevsky import _REDUCE_LIMIT, ReductionError, _point, default_coeffs
from smallvol.rounding import PI_LO, _down, _mul_up, _up


def range_reduce(theta):
    """Shift theta by a multiple of pi into (-pi/2, pi/2], as a jet
    expression; raises ReductionError when |theta0| < pi/sqrt(2) cannot
    be certified."""
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


def lobachevsky(theta, tol=1e-12):
    """``lobachevsky.lobachevsky`` with the per-operation series below."""
    if not theta.coeffs:
        c, e = _point(theta.center, theta.err)
        return _jet(c, (), e)
    coeffs = default_coeffs()
    theta0 = range_reduce(theta)
    if theta0.is_exact_zero():
        return Jet.constant(0.0)
    if theta0.prove_positive():
        return eval_positive(theta0, tol, coeffs)
    if theta0.prove_negative():
        return -eval_positive(-theta0, tol, coeffs)
    raise JetDomainError(
        "Lobachevsky argument straddles zero with positive width"
    )


def eval_positive(t, tol, coeffs):
    """Series evaluation for t provably inside (0, pi/sqrt(2))."""
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
