"""Point arithmetic under every enclosure: the rounding model, float
pairs and midpoint-radius boxes.

Plain round-to-nearest IEEE-754 binary64 with gradual underflow is
assumed.  A primitive operation returning v is off by at most
``EPS_PRIM * |v|``, plus one subnormal quantum ``TINY`` for a multiply or
divide that may have underflowed; sums of doubles that land in the
subnormal range are exact, so additions never pay it.  Outward steps
are taken with ``math.nextafter`` (``rounding._up``/``_down``), so an
accumulated bound never rounds toward the value it bounds.  A libm
``log`` or ``atan`` result v is charged ``_libm_err(v)``, and
``libm_covered`` checks that charge against the running libm
(``smallvol selftest`` runs it).

Two kinds of value are built on this model:

* ``(center, err)`` float pairs, a real number within ``err`` of
  ``center``: ``_add0``, ``_mul0`` and ``_recip0``, the dimension-0
  operations of the jet classes in ``jets`` (``_recip`` also takes a
  jet's linear coefficients, and ``_recip0`` inverts the exact center of
  ``log_jet``), and the dihedral angle ``_arg_mod_pi`` at the center of
  every volume term;
* midpoint-radius complex boxes ``(mid_re, mid_im, rad_re, rad_im)``,
  the residual sums of the Krawczyk test in ``certify`` and their
  inputs: ``_dot`` and the point logarithm ``_log_box``, whose argument takes the quotient
  and charge of ``_arg_mod_pi`` (``_atan_ratio``);
* the power-of-two-scaled reciprocal ``_recip_scaled`` of every point of
  a disc, with ``_radius`` for the disc that holds a box: its parts give
  the angle gradients of the volume (``geometry``) and the reciprocals of
  the Krawczyk Jacobian (``certify``).

A non-finite result raises ``JetError``, and a point outside an
operation's provable domain ``JetDomainError``, with the messages of the
matching jet operations.  Only ``rounding`` and the standard library are
imported, so ``certify`` runs on this layer without the jet classes.
"""

from __future__ import annotations

import math

from .rounding import (EPS_PRIM, PI_HI, PI_LO, TINY, JetDomainError, JetError,
                       _INF, _down, _nextafter, _up)

_MIN_NORMAL = 2.0 ** -1022


def _require_finite(x: float, what: str) -> None:
    if not math.isfinite(x):
        raise JetError(f"{what} is not finite: {x!r}")


def _reject(center: float, err: float) -> None:
    """Raise the JetError for a result that failed the O(1) check."""
    _require_finite(center, "jet center")
    _require_finite(err, "jet error term")
    raise JetError(f"jet error term is negative: {err!r}")


# -- (center, err) pairs ------------------------------------------------
#
# Operations on dimension-0 operands as (center, err) float pairs in and
# out, with the charges of the matching ``jets.Jet`` methods; each raises
# as ``jets._jet`` would on a non-finite result.

def _add0(x0: float, xe: float, y0: float, ye: float) -> tuple:
    up, inf = _nextafter, _INF
    c0 = x0 + y0
    err = 0.0
    if x0 and y0 and c0:
        err = up(up(EPS_PRIM * abs(c0), inf), inf)
    if xe:
        err = up(err + xe, inf)
    if ye:
        err = up(err + ye, inf)
    if -inf < c0 < inf and err < inf:
        return c0, err
    _reject(c0, err)


def _mul0(a0: float, ae: float, b0: float, be: float) -> tuple:
    """(a0 + e_a)(b0 + e_b) = a0 b0 + (a0 + e_a) e_b + b0 e_a: the error
    product e_a e_b is charged once, in the first term."""
    up, inf = _nextafter, _INF
    c0 = a0 * b0
    err = 0.0
    if a0 and b0:
        err = up(up(up(EPS_PRIM * abs(c0), inf) + TINY, inf), inf)
    if be:
        err = up(err + up(up(abs(a0) + ae, inf) * be, inf), inf)
    if ae:
        err = up(err + up(abs(b0) * ae, inf), inf)
    if -inf < c0 < inf and err < inf:
        return c0, err
    _reject(c0, err)


def _recip(b0: float, be: float, s: float, xs: tuple) -> tuple:
    """Center, coefficients and err of 1/f, where f has center ``b0``,
    coefficients ``xs``, error radius ``be`` and spread ``s``; requires
    f to be provably nonzero."""
    up, inf, eps = _nextafter, _INF, EPS_PRIM
    lo, hi = (_nextafter(b0 - s, -inf), up(b0 + s, inf)) if s else (b0, b0)
    if not (lo > 0.0 or hi < 0.0):
        raise JetDomainError("reciprocal of a jet not provably nonzero")
    m = min(abs(lo), abs(hi))
    c = 1.0 / b0
    q = b0 * b0
    # A subnormal q has no relative rounding bound, so nothing with a
    # spread is divided by it; without one, no coefficient is.
    if abs(c) == inf or (s and q < _MIN_NORMAL):
        raise JetDomainError("reciprocal: center too close to zero")
    err = up(up(up(eps * abs(c), inf) + TINY, inf), inf)
    q_lo = _nextafter(q, -inf)  # certified lower bound for b0^2
    coeffs = []
    for bi in xs:
        di = -(bi / q) if bi else -bi
        if bi:
            # two roundings: q itself and the division
            charge = up(up(eps * abs(di), inf) + TINY, inf)
            err = up(up(err + charge, inf) + charge, inf)
        coeffs.append(di)
    if q == inf:
        # b0^2 overflows, so every bi / q above is 0 and q_lo is only
        # DBL_MAX: charge the dropped |bi| / b0^2 (at most s / b0^2) and
        # bound be / b0^2 and the remainder by dividing by |b0| twice.
        ab = abs(b0)
        s_q = up(up(s / ab, inf) / ab, inf)
        if be:
            err = up(err + up(up(be / ab, inf) / ab, inf), inf)
        if any(xs):
            err = up(err + s_q, inf)
        if s:
            err = up(err + up(s_q * up(s / m, inf), inf), inf)
    else:
        if be:
            err = up(err + up(be * up(1.0 / q_lo, inf), inf), inf)
        # Remainder of the linearization: (f-b0)^2 / (b0^2 f).
        if s:
            den = q_lo * m
            if den == inf or den <= TINY:
                # Over- or underflowed: s^2 / den would read den as DBL_MAX
                # or as at most 0 after the step down; divide s by each
                # factor instead.
                rem = up(up(s / q_lo, inf) * up(s / m, inf), inf)
            else:
                rem = up(up(s * s, inf) / _nextafter(den, -inf), inf)
            err = up(err + rem, inf)
    if -inf < c < inf and err < inf:
        return c, tuple(coeffs), err
    _reject(c, err)


def _recip0(b0: float, be: float) -> tuple:
    """1/b for the dimension-0 operand b = (b0, be); an exact b (be = 0)
    is refused only where 1/b0 overflows."""
    c, _, err = _recip(b0, be, _up(be) if be else 0.0, ())
    return c, err


# -- the libm charge ----------------------------------------------------

def _libm_err(value: float) -> float:
    """Error charged to a libm-computed transcendental value.

    glibc's log/atan are documented below 2 ulp everywhere; we charge a
    4-ulp-wide enclosure (relative 4*EPS_PRIM) plus a subnormal quantum.
    The oracle suites exercise this margin at zero tolerance, and
    ``smallvol selftest`` checks it against the running libm.
    """
    return _up(_up(4.0 * EPS_PRIM * abs(value)) + TINY)


# Points at which ``libm_covered`` checks math.log and math.atan: both
# sides of 1 and of the atan knee, and magnitudes from 1e-300 to 1e300.
LIBM_SAMPLES = {
    "log": (1e-300, 1e-10, 0.1, 0.5, 0.75, 0.9, 0.999, 1.001,
            1.1, 1.5, 2.0, math.e, 10.0, 1e5, 1e100, 1e300),
    "atan": (1e-300, 1e-8, 0.01, 0.1, 0.25, 0.5, 0.75, 1.0,
             1.5, 2.0, 3.0, 10.0, 100.0, 1e8, 1e300, -0.7),
}


def libm_covered(name: str) -> bool:
    """True when the charge of ``_libm_err`` covers the error of
    ``math.<name>`` (``log`` or ``atan``) at every point of
    ``LIBM_SAMPLES``, measured against a 50-digit ``decimal`` reference."""
    from decimal import Context, Decimal  # only selftest needs it

    ctx = Context(prec=50)
    for x in LIBM_SAMPLES[name]:
        if name == "log":
            value, exact = math.log(x), Decimal(x).ln(ctx)
        else:
            value, exact = math.atan(x), _decimal_atan(Decimal(x), ctx)
        charge = _libm_err(value)
        if not ctx.abs(ctx.subtract(Decimal(value), exact)) <= Decimal(charge):
            return False
    return True


def _decimal_atan(x, ctx):
    """atan(x) to about ``ctx.prec`` digits: halve the argument with
    atan(x) = 2 atan(x / (1 + sqrt(1 + x^2))) until |x| < 1/64, then sum
    the alternating Taylor series."""
    doublings = 0
    while abs(x) >= ctx.create_decimal("0.015625"):
        x = ctx.divide(x, ctx.add(1, ctx.sqrt(ctx.add(1, ctx.multiply(x, x)))))
        doublings += 1
    x2 = ctx.multiply(x, x)
    total, power, k = x, x, 1
    eps = ctx.multiply(abs(x), ctx.create_decimal(f"1e-{ctx.prec + 5}"))
    while abs(power) > eps:
        power = ctx.minus(ctx.multiply(power, x2))
        k += 2
        total = ctx.add(total, ctx.divide(power, k))
    return ctx.multiply(total, 2 ** doublings)


# -- midpoint-radius boxes ----------------------------------------------

def _dot(points, terms) -> tuple:
    """Enclosure of sum_l points[l] * X_l over ``terms`` (l, m_re, m_im,
    p_re, p_im), X_l = (m_re +- p_re) + i (m_im +- p_im), as (mid_re,
    mid_im, rad_re, rad_im).  A point y = a + ib is a complex or an integer
    of magnitude at most 2^53; y X_l has radii |a| p_re + |b| p_im (real)
    and |a| p_im + |b| p_re (imaginary).

    Rounding (binary64 round-to-nearest, gradual underflow, u = EPS_PRIM,
    L terms; Higham 2002, Sec. 3.1; Rump, Acta Numerica 2010, Secs. 2-3):
    a part's midpoint, ``math.fsum`` of its 2L rounded products p_i, is
    off by at most u |mid| + u sum |p_i| + L TINY, a product erring by
    u |p_i| or, underflowing, by TINY / 2.  The float sums S = sum |p_i|
    and R of the radius products are at least (1 - gamma_2L) times the
    exact ones minus L TINY, gamma_k = k u / (1 - k u).  So for L < 2^50
    the radius is at most t + 8 L u t + 4 L TINY, t = R + u (S + |mid|),
    each step rounded up.  An overflow gives a NaN midpoint or an infinite
    radius, which no interior test accepts.
    """
    re, im = [], []
    s_re = s_im = r_re = r_im = 0.0
    for l, xr, xi, pr, pi in terms:
        y = points[l]
        a, b = y.real, y.imag
        t1, t2, t3, t4 = a * xr, b * xi, a * xi, b * xr
        re += (t1, -t2)
        im += (t3, t4)
        s_re += abs(t1) + abs(t2)
        s_im += abs(t3) + abs(t4)
        a, b = abs(a), abs(b)
        r_re += a * pr + b * pi
        r_im += a * pi + b * pr
    try:
        m_re = math.fsum(re)
        m_im = math.fsum(im)
    except (OverflowError, ValueError):
        return math.nan, math.nan, math.inf, math.inf
    gamma, tiny = 8 * len(terms) * EPS_PRIM, 4 * len(terms) * TINY
    t_re = _up(r_re + _up(EPS_PRIM * _up(s_re + abs(m_re))))
    t_im = _up(r_im + _up(EPS_PRIM * _up(s_im + abs(m_im))))
    return (m_re, m_im, _up(t_re + _up(_up(gamma * t_re) + tiny)),
            _up(t_im + _up(_up(gamma * t_im) + tiny)))


# Below this |w|^2, or at infinity, ``_log_box`` checks its domain first.
_LOG_SAFE = 2.0 ** -500
_ONE_4U = 1.0 + 4.0 * EPS_PRIM


def _log_box(x: float, y: float, eps: float) -> tuple:
    """Enclosure (mid_re, mid_im, rad_re, rad_im) of the principal log of
    w = X + iy, given the float x with |x - X| <= eps |x| (eps is 0 or
    EPS_PRIM).  Binary64 round-to-nearest with gradual underflow, u =
    EPS_PRIM: a product or quotient is off by at most u times its rounded
    value plus TINY / 2, a sum by u times its rounded value, and libm's log
    and atan by ``_libm_err`` of their results.

    Real part log(X^2 + y^2) / 2: with p = fl(x^2), s = fl(p + fl(y^2))
    is within E = (2u s + 2 eps p)(1 + 4u) + 2 TINY of X^2 + y^2, since
    |X^2 - x^2| <= eps (2 + eps) x^2; by the mean value theorem log s is
    then within E / (s - E) of log(X^2 + y^2).

    Imaginary part arg w, by the dominance rule of ``_arg_mod_pi``, whose
    quotient and charge (``_atan_ratio``) it shares, X being within
    eps |x| of x: atan(y/x) for |x| >= |y| and x > 0, +-pi + atan(y/x)
    for x < 0 by the sign of y, and +-pi/2 - atan(x/y) by the sign of y
    for |x| < |y|.  pi is PI_LO + [0, PI_HI - PI_LO], and the midpoint's
    own sum adds u |mid|.

    Raises JetDomainError for w on the negative real axis, and as
    ``jets.log_jet`` does where |w|^2 overflows, is not provably positive
    or is too small to invert (``_log_domain``).
    """
    p = x * x
    s = p + y * y
    if not _LOG_SAFE <= s < math.inf:
        _log_domain(x, y)
    if y == 0.0 and x <= 0.0:
        raise JetDomainError("argument: quadrant not provable (origin or branch cut)")
    err_s = _up(_up(_up(2.0 * EPS_PRIM * s + 2.0 * eps * p) * _ONE_4U) + 2.0 * TINY)
    lg = math.log(s)
    rad_re = _up(_up(_libm_err(lg) + _up(err_s / _down(s - err_s))) * 0.5)
    by_real, _, a, rad_im = _atan_ratio(x, _up(eps * abs(x)) if eps else 0.0, y)
    if by_real and x > 0.0:
        return lg * 0.5, a, rad_re, rad_im
    if by_real:
        mid, width = (PI_LO + a if y > 0.0 else a - PI_LO), PI_HI - PI_LO
    else:
        mid = PI_LO * 0.5 - a if y > 0.0 else -(PI_LO * 0.5 + a)
        width = (PI_HI - PI_LO) * 0.5
    return lg * 0.5, mid, rad_re, _up(_up(_up(EPS_PRIM * abs(mid)) + rad_im) + width)


def _atan_ratio(r: float, er: float, y: float) -> tuple:
    """(by_real, q, atan q, err), y != 0: by_real where |r| >= |y| and
    |r| > er is certified, and then q = fl(y/r), else q = fl(r/y); for
    every R within ``er`` of r, atan q is within err of atan(y/R) (or
    atan(R/y)).

    q is within u |q| + TINY / 2 of y/r (or r/y); y/R is then within
    A er / (|r| - er) of y/r, A >= |y/r|, and R/y within er / |y| of r/y.
    Together e bounds |q - y/R| (or |q - R/y|), and atan(q) is charged
    e / (1 + m^2), m = max(0, |q| - e), on top of libm.
    """
    up, inf = _nextafter, _INF
    by_real = abs(r) >= abs(y) and (not er or _down(abs(r) - er) > 0.0)
    q = y / r if by_real else r / y
    e = up(up(EPS_PRIM * abs(q), inf) + TINY, inf)
    if er and by_real:
        e = up(e + up(up(abs(q) + e, inf) * up(er / _down(abs(r) - er), inf), inf), inf)
    elif er:
        e = up(e + up(er / abs(y), inf), inf)
    a = math.atan(q)
    m = max(0.0, _down(abs(q) - e))
    return by_real, q, a, up(_libm_err(a) + up(e / _down(1.0 + _down(m * m)), inf), inf)


def _arg_mod_pi(r: float, er: float, y: float) -> tuple:
    """Pair (center, err) enclosing, for every R within ``er`` of r, an
    angle in [-pi/2, pi/2] congruent modulo pi to arg(R + iy), y > 0.

    The dominance rule: atan(y/R) where |r| >= y and |r| > er is
    certified, else pi/2 - atan(R/y), shifted by -pi when r < 0, each
    atan with the charge of ``_atan_ratio``.  arg(R + iy) is atan(y/R) or
    pi + atan(y/R) and always pi/2 - atan(R/y), so each branch is
    congruent to it, and a near-flat angle (about 0 or pi) never meets
    pi's enclosure.
    """
    by_real, q, a, err = _atan_ratio(r, er, y)
    if by_real:
        return a, err
    mid = PI_LO * 0.5 - a if q >= 0.0 else -(PI_LO * 0.5 + a)
    return mid, _up(_up(_up(EPS_PRIM * abs(mid)) + err) + (PI_HI - PI_LO) * 0.5)


_RECIP_ERR = 9.0 * EPS_PRIM
_ONE_M3U = 1.0 - 3.0 * EPS_PRIM


def _recip_scaled(a: float, ea: float, b: float) -> tuple:
    """1/w for every w within ``ea`` of a + ib (a disc, not only a real
    segment), as (re, im, err, s, mod): s is the power of two that brings
    max(|a|, |b|) into [1/2, 1), every 1/w is s (re + i im) with each part
    off by at most s err, and mod <= s |w|.  Nothing over- or underflows
    for |a + ib| from 2^-1020 to the top of the double range.

    With a' = s a and b' = s b (exact, or within TINY / 2 when subnormal),
    the pair squares a'^2 + b'^2 = N, at least 1/4, once: n = fl(a'^2 +
    b'^2) is within 2.01 u N of it, u = EPS_PRIM, and fl(1/n) within
    3.02 u / N of 1/N.  So fl(a' fl(1/n)) is within 4.03 u |a'| / N +
    TINY of a'/N, and |a'| / N <= 1 / |a' + ib'| <= 2: 9u covers each part.
    Moving a' + ib' by at most ea' = s ea, in any direction, moves
    1/(a' + ib') by at most ea' / (|a' + ib'| |w'|), w' = s w, and
    |a' + ib'| >= sqrt(n (1 - 3u)).
    """
    m = max(abs(a), abs(b))
    if not m >= 2.0 ** -1020:
        raise JetDomainError("reciprocal: center too close to zero")
    s = math.ldexp(1.0, -math.frexp(m)[1])
    a1, b1 = a * s, b * s
    n = a1 * a1 + b1 * b1
    inv = 1.0 / n
    mod = _down(math.sqrt(_down(n * _ONE_M3U)))
    err = _RECIP_ERR
    if ea:
        eas = _up(ea * s)
        low = _down(mod - eas)
        if not low > 0.0:
            raise JetDomainError("reciprocal of a jet not provably nonzero")
        err = _up(err + _up(eas / _down(mod * low)))
        mod = low
    return a1 * inv, -(b1 * inv), err, s, mod


def _radius(dx: float, dy: float) -> float:
    """Upper bound for sqrt(dx^2 + dy^2), squaring nothing but a ratio."""
    up, inf = _nextafter, _INF
    lo, hi = (dx, dy) if dx <= dy else (dy, dx)
    if not lo:
        return hi
    t = up(lo / hi, inf)
    return up(hi * up(math.sqrt(up(1.0 + up(t * t, inf), inf)), inf), inf)

def _log_domain(x: float, y: float) -> None:
    """Raise what ``jets.log_jet`` raises on |x + iy|^2 as a dimension-0
    jet: JetError where it overflows, JetDomainError where it is not
    provably positive or its reciprocal overflows.  Returns where none of
    these holds, and then |x + iy|^2 is above 2^-1024."""
    s, e = _add0(*_mul0(x, 0.0, x, 0.0), *_mul0(y, 0.0, y, 0.0))
    if not _down(s - _up(e)) > 0.0:
        raise JetDomainError("log of a jet not provably positive")
    _recip0(s, 0.0)

