"""Self-validating affine 1-jet arithmetic.

A ``Jet`` stands for the set of real-valued functions f on the cube
[-1,1]^n satisfying

    sup_x | f(x) - (center + sum_i coeffs[i] * x_i) |  <=  err.

Every operation returns a jet whose represented set contains the
pointwise image of its operands' sets, and every floating-point
rounding committed along the way is absorbed into ``err`` by outward
accumulation, under the rounding model stated in ``points``.  The
constants and outward steps, and ``JetError``/``JetDomainError``, come
from ``rounding``; the names are re-exported here, so each is one
object.

Nonlinear behaviour (products of linear parts and of error radii,
Taylor terms of ``log_jet``/``atan_jet``) is folded entirely into
``err``; tightness is best effort, containment is the contract.

Jets are built two ways.  The public constructor ``Jet(center, coeffs,
err)`` coerces every field to float and rejects a non-finite field or a
negative ``err``.  Operation results go through the trusted ``_jet``,
which checks only that ``center`` and ``err`` are finite and ``err >= 0``
(``Jet.__post_init__``, run by both).  That O(1) check is enough: the
operands are finite, so the first non-finite value an operation can
produce is an overflow, and every overflowing product or sum has nonzero
operands and is therefore charged ``EPS_PRIM * inf`` into ``err``.  A
coefficient can thus only become non-finite in a result whose ``err`` is
non-finite too, and that result is rejected.

Every rule runs on plain ``(center, coeffs, err)`` triples: -jet
(``_neg``), jet + jet (``_add``), jet * jet (``_mul``), jet + and * a
dimension-0 operand (``_add_const``, ``_mul_const``), 1/jet
(``points._recip``), the natural log (``_log``), and the bounds
``_spread``, ``_bounds`` and ``_sup_abs``.  Each is a module function
that raises as ``_jet`` does on a non-finite result, and the ``Jet``
operators (a - b is a + (-b), a / b and k / a multiply by a reciprocal),
queries and ``log_jet`` are thin wrappers over them, so each rule has
one implementation.  A chain of operations whose intermediate results no
caller sees runs on the triples, with the same float operations and
charges as the operators: volumes (``geometry``) and the Lobachevsky
series build no jet at all.

Constants are dimension-0 jets (no coefficients), and a scalar operand
counts as one with ``err`` 0.  A dimension-0 operand K combines with a
jet j of any dimension (``_add_const``, ``_mul_const``): j + K keeps j's
coefficients, and j * K scales them by K's center and charges K's err
times their spread.  Only two different nonzero dimensions are an
error.  When both operands have dimension 0 the operation runs on
plain ``(center, err)`` float pairs (``points._add0``, ``_mul0``,
``_recip0``, with the same charges); ``atan_jet`` calls them directly
for its Taylor coefficients.  ``log_jet`` and ``atan_jet`` share one
rule: the libm value at the center, the linear part as one
``_mul_const``, and each higher term bounded once in upward floats.
"""

from __future__ import annotations

import math

from .points import (_add0, _libm_err, _mul0, _recip, _recip0, _reject,
                     _require_finite)
from .rounding import (EPS_PRIM, PI_HI, PI_LO, TINY, JetDomainError, JetError,
                       _INF, _down, _mul_up, _nextafter, _up)

_new = object.__new__


def _scalar(x):
    """A finite int/float operand as a float; None for other types."""
    if isinstance(x, (int, float)):
        c = float(x)
        _require_finite(c, "scalar operand")
        return c
    return None


class Jet:
    """Affine 1-jet: linear function on [-1,1]^dim plus an error radius.

    Jets are values: no code assigns to a field after construction.
    """

    __slots__ = ("center", "coeffs", "err")

    def __init__(self, center: float, coeffs, err: float):
        self.center = float(center)
        self.coeffs = tuple(float(c) for c in coeffs)
        self.err = float(err)
        for c in self.coeffs:
            _require_finite(c, "jet coefficient")
        self.__post_init__()

    def __post_init__(self):
        """The O(1) check every jet passes (see the module docstring)."""
        if not (-_INF < self.center < _INF and 0.0 <= self.err < _INF):
            _reject(self.center, self.err)

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, c: float, dim: int = 0) -> "Jet":
        """The exact constant c; dimension 0 unless an explicit lift to
        ``dim`` zero coefficients is asked for."""
        return _jet(float(c), (0.0,) * dim, 0.0)

    @classmethod
    def variable(cls, c: float, index: int, radius: float, dim: int) -> "Jet":
        """c + radius * x_index: contains every constant in [c-radius, c+radius]."""
        if not 0 <= index < dim:
            raise JetError(f"variable index {index} out of range for dim {dim}")
        if not radius >= 0.0:
            raise JetError(f"variable radius must be >= 0, got {radius!r}")
        coeffs = [0.0] * dim
        coeffs[index] = radius
        return cls(c, tuple(coeffs), 0.0)

    # -- queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def spread(self) -> float:
        """Upper bound for sup |f(x) - center| over the represented set."""
        return _spread(self.coeffs, self.err)

    def bounds(self) -> tuple:
        """Outward interval enclosing every value of every member function."""
        return _bounds(self.center, self.coeffs, self.err)

    def sup_abs(self) -> float:
        return _sup_abs(self.center, self.coeffs, self.err)

    def prove_positive(self) -> bool:
        return self.bounds()[0] > 0.0

    def prove_negative(self) -> bool:
        return self.bounds()[1] < 0.0

    def prove_nonzero(self) -> bool:
        lo, hi = self.bounds()
        return lo > 0.0 or hi < 0.0

    def is_exact_zero(self) -> bool:
        return self.center == 0.0 and self.err == 0.0 and not any(self.coeffs)

    def __repr__(self):
        return f"Jet({self.center!r}; {list(self.coeffs)!r}; {self.err!r})"

    def __eq__(self, other):
        if other.__class__ is not Jet:
            return NotImplemented
        return (self.center, self.coeffs, self.err) == (other.center, other.coeffs, other.err)

    def __hash__(self):
        return hash((self.center, self.coeffs, self.err))

    # -- arithmetic: wrappers over the rules on triples below -----------

    def __neg__(self) -> "Jet":
        return _jet(*_neg(self.center, self.coeffs, self.err))

    def __add__(self, other):
        if other.__class__ is not Jet:
            k = _scalar(other)
            if k is None:
                return NotImplemented
            return _jet(*_add_const(self.center, self.coeffs, self.err, k, 0.0))
        return _jet(*_add(self.center, self.coeffs, self.err,
                          other.center, other.coeffs, other.err))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Jet:
            other = _scalar(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is not Jet:
            k = _scalar(other)
            if k is None:
                return NotImplemented
            return _jet(*_mul_const(self.center, self.coeffs, self.err, k, 0.0))
        return _jet(*_mul(self.center, self.coeffs, self.err,
                          other.center, other.coeffs, other.err))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        """1/f for every represented f; requires a provably nonzero range."""
        return _jet(*_recip(self.center, self.err, self.spread(), self.coeffs))

    def __truediv__(self, other):
        if other.__class__ is not Jet:
            k = _scalar(other)
            if k is None:
                return NotImplemented
            other = _jet(k, (), 0.0)
        elif self.coeffs and other.coeffs and len(other.coeffs) != len(self.coeffs):
            raise _mismatch(self.coeffs, other.coeffs)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        k = _scalar(other)
        if k is None:
            return NotImplemented
        return self.reciprocal() * k


def _jet(center: float, coeffs: tuple, err: float) -> Jet:
    """Trusted constructor for operation results: ``center`` and ``err``
    are floats, ``coeffs`` a tuple of finite floats unless ``err`` is
    non-finite, and only the O(1) check of ``Jet.__post_init__`` runs."""
    j = _new(Jet)
    j.center = center
    j.coeffs = coeffs
    j.err = err
    j.__post_init__()
    return j


# -- rules on (center, coeffs, err) triples ------------------------------
#
# Each returns the triple of its result and raises as ``_jet`` would on a
# non-finite one.  Rounding charges are accumulated in a local float,
# each one as err = up(err + charge), in a fixed order.  A sum v =
# fl(x + y) is charged up(EPS_PRIM |v|) unless x, y or v is zero (adding
# zero and cancelling to zero are exact); a product v = fl(x * y) (or a
# quotient with divisor y) is charged up(up(EPS_PRIM |v|) + TINY) unless
# x or y is zero.
#
# A dimension-0 operand goes to ``_add_const``/``_mul_const``, which
# charge only what they compute.

def _mismatch(xs: tuple, ys: tuple) -> JetError:
    return JetError(f"dimension mismatch: {len(xs)} vs {len(ys)}")


def _spread(xs: tuple, err: float) -> float:
    """Upper bound for sup |f(x) - center| over the triple's set."""
    s = 0.0
    for c in xs:
        if c:
            s = _nextafter(s + abs(c), _INF)
    if err == 0.0:
        return s
    return _up(s + err)


def _bounds(x0: float, xs: tuple, err: float) -> tuple:
    """Outward interval enclosing every value of the triple's set."""
    s = _spread(xs, err)
    if s == 0.0:
        return x0, x0
    return _down(x0 - s), _up(x0 + s)


def _sup_abs(x0: float, xs: tuple, err: float) -> float:
    """Upper bound for sup |f(x)| over the triple's set."""
    s = _spread(xs, err)
    if s == 0.0:
        return abs(x0)
    return _up(abs(x0) + s)


def _neg(x0: float, xs: tuple, xe: float) -> tuple:
    """-x: negation of doubles is exact."""
    return -x0, tuple([-c for c in xs]), xe


def _add(x0: float, xs: tuple, xe: float, y0: float, ys: tuple, ye: float) -> tuple:
    """x + y."""
    if not ys:
        return _add_const(x0, xs, xe, y0, ye)
    if not xs:
        return _add_const(y0, ys, ye, x0, xe)
    if len(ys) != len(xs):
        raise _mismatch(xs, ys)
    up, inf, eps = _nextafter, _INF, EPS_PRIM
    c0 = x0 + y0
    err = 0.0
    if x0 and y0 and c0:
        err = up(err + up(eps * abs(c0), inf), inf)
    coeffs = []
    for x, y in zip(xs, ys):
        ci = x + y
        if x and y and ci:
            err = up(err + up(eps * abs(ci), inf), inf)
        coeffs.append(ci)
    if xe:
        err = up(err + xe, inf)
    if ye:
        err = up(err + ye, inf)
    if -inf < c0 < inf and 0.0 <= err < inf:
        return c0, tuple(coeffs), err
    _reject(c0, err)


def _mul(a0: float, xs: tuple, ae: float, b0: float, ys: tuple, be: float) -> tuple:
    """a * b."""
    if not ys:
        return _mul_const(a0, xs, ae, b0, be)
    if not xs:
        return _mul_const(b0, ys, be, a0, ae)
    if len(ys) != len(xs):
        raise _mismatch(xs, ys)
    up, inf, eps = _nextafter, _INF, EPS_PRIM
    c0 = a0 * b0
    err = 0.0
    if a0 and b0:
        err = up(err + up(up(eps * abs(c0), inf) + TINY, inf), inf)
    coeffs = []
    sa = sb = 0.0  # upward sums of |coeffs| of a and of b
    for x, y in zip(xs, ys):
        t1 = a0 * y
        t2 = b0 * x
        ci = t1 + t2
        if a0 and y:
            err = up(err + up(up(eps * abs(t1), inf) + TINY, inf), inf)
        if b0 and x:
            err = up(err + up(up(eps * abs(t2), inf) + TINY, inf), inf)
        if t1 and t2 and ci:
            err = up(err + up(eps * abs(ci), inf), inf)
        coeffs.append(ci)
        if x:
            sa = up(sa + abs(x), inf)
        if y:
            sb = up(sb + abs(y), inf)
    # Quadratic cross terms are folded entirely into err.
    if sa and sb:
        err = up(err + up(sa * sb, inf), inf)
    # The err terms as in ``_mul0``: ae * be is charged once.
    if be:
        ma = up(up(abs(a0) + sa, inf) + ae, inf)
        err = up(err + up(ma * be, inf), inf)
    if ae:
        mb = up(abs(b0) + sb, inf)
        err = up(err + up(mb * ae, inf), inf)
    if -inf < c0 < inf and 0.0 <= err < inf:
        return c0, tuple(coeffs), err
    _reject(c0, err)


def _add_const(x0: float, xs: tuple, xe: float, k: float, ke: float) -> tuple:
    """x + K for the dimension-0 operand K = (k, ke): the sum of centers
    and errs as in ``_add0``, with x's coefficients unchanged."""
    c, err = _add0(x0, xe, k, ke)
    return c, xs, err


def _mul_const(x0: float, xs: tuple, xe: float, k: float, ke: float) -> tuple:
    """x * K for the dimension-0 operand K = (k, ke): the product of
    centers and errs as in ``_mul0``, the roundings of the coefficients
    k * x_i, and spread(coefficients) * ke for their product with K's err."""
    c, err = _mul0(x0, xe, k, ke)
    if not xs:
        return c, (), err
    up, inf, eps = _nextafter, _INF, EPS_PRIM
    coeffs = []
    s = 0.0  # upward sum of |coeffs| of x
    for x in xs:
        t = k * x
        if x:
            s = up(s + abs(x), inf)
            if k:
                err = up(err + up(up(eps * abs(t), inf) + TINY, inf), inf)
        coeffs.append(t)
    if ke and s:
        err = up(err + up(s * ke, inf), inf)
    if 0.0 <= err < inf:
        return c, tuple(coeffs), err
    _reject(c, err)


def pi_jet() -> Jet:
    """Certified enclosure of pi as a dimension-0 jet."""
    return _jet(PI_LO, (), PI_HI - PI_LO)


def half_pi_jet() -> Jet:
    """Certified enclosure of pi/2; halving the pi enclosure is exact."""
    return _jet(PI_LO * 0.5, (), (PI_HI - PI_LO) * 0.5)


def _horner_up(h: float, coeffs: tuple, x: float) -> float:
    """Horner steps h = c + h x, rounded up: nonnegative floats only."""
    for c in coeffs:
        h = _up(c + _mul_up(h, x))
    return h


def _sum_up(terms) -> float:
    """Upward sum of nonnegative floats: one rounding, and inf past range."""
    try:
        s = math.fsum(terms)
    except OverflowError:
        return _INF
    return _up(s) if s else 0.0


def log_jet(a: Jet) -> Jet:
    """Pointwise natural log of a jet (``_log``)."""
    return _jet(*_log(a.center, a.coeffs, a.err))


def _log(a0: float, xs: tuple, ae: float) -> tuple:
    """Pointwise natural log of the triple a: log a0 + t, t = (a - a0)/a0,
    with the terms of degree 2 to 4 and the Lagrange remainder of
    log(1 + t) charged as T^2/2 + T^3/3 + T^4/4 + T^5 / (5 (1-T)^5),
    T = sup|t| < 1, so that every charge is finite."""
    if not _bounds(a0, xs, ae)[0] > 0.0:
        raise JetDomainError("log of a jet not provably positive")
    # a - a0 is exact: the same coefficients and err about center 0.
    _, ts, te = _mul_const(0.0, xs, ae, *_recip0(a0, 0.0))
    t_sup = _spread(ts, te)
    if not t_sup < 1.0:
        raise JetDomainError("log: jet range too wide for the remainder bound")
    terms = [te]
    if t_sup:
        # T < 1 keeps 1 - T >= 2^-53, so the denominator is positive.
        om = _down(1.0 - t_sup)
        om2 = _down(om * om)
        rem = _up(t_sup / _down(5.0 * _down(_down(om2 * om2) * om)))
        h = _horner_up(_up(0.25 + rem), (_up(1.0 / 3.0), 0.5), t_sup)
        terms.append(_mul_up(h, _mul_up(t_sup, t_sup)))
    value = 0.0 if a0 == 1.0 else math.log(a0)
    if value:
        terms.append(_libm_err(value))
    return value, ts, _sum_up(terms)


# From this |a0| on, ``atan_jet`` reflects a provably signed jet.  The
# Taylor remainder D^5 / 5 bounds |atan^(5)| by its value 4! at 0, which
# its true size 24 |5x^4 - 10x^2 + 1| / (1 + x^2)^5 falls far below as
# |x| grows (the Taylor form is 21 times the true range at a0 = 10 and
# D = a0 / 10), while below 2 the Taylor form is as tight or tighter
# (1.08 against 1.13 times the true range at a0 = 2, D = a0 / 10).  At
# 1/|a0| <= 1/2 the reflected atan takes the Taylor form at once.
_ATAN_REFLECT = 2.0


def _atan_range(r: Jet) -> Jet:
    """r, or where r's spread exceeds pi/2, atan's whole range [-pi/2,
    pi/2] at dimension 0, rounded outward (halving PI_HI is exact)."""
    half_pi = PI_HI * 0.5
    return r if _spread(r.coeffs, r.err) <= half_pi else _jet(0.0, (), half_pi)


def atan_jet(a: Jet) -> Jet:
    """Pointwise arctangent: atan a0 + c1 (a - a0), with a = a0 + sum x_i
    a_i + e and D = s + |e|, s = sum |a_i|, charged |c1| |e| + err(c1) D,
    (|c_k| + err(c_k)) D^k for the Taylor coefficients c_2..c_4 at a0, and
    the Lagrange remainder D^5 / 5 (|atan^(5)| <= 4!).  The c2 term takes
    D^2 as s^2 + |e| (s + D), so a tiny err does not round it up.

    From |a0| = 2 on, where that remainder outgrows the true range (and
    from 2^128 on the coefficients overflow), a provably signed jet takes
    atan a = +-pi/2 - atan(1/a).  A result wider than atan's range is
    replaced by that range (``_atan_range``)."""
    a0 = a.center
    if abs(a0) >= _ATAN_REFLECT:
        if a.prove_positive():
            return _atan_range(half_pi_jet() - atan_jet(a.reciprocal()))
        if a.prove_negative():
            return _atan_range(-(half_pi_jet() + atan_jet(a.reciprocal())))
    # Taylor coefficients at a0 as (center, err) pairs, w = 1 + a0^2: c1 = 1/w,
    # c2 = -a0/w^2, c3 = (3a0^2-1)/(3w^3), c4 = a0(1-a0^2)/w^4.
    z = (a0, 0.0)
    zz = _mul0(*z, *z)
    w = _add0(*zz, 1.0, 0.0)
    w2 = _mul0(*w, *w)
    c1 = _recip0(*w)
    c2 = _mul0(*z, *_recip0(*w2))
    c3 = _mul0(*_add0(*_mul0(*zz, 3.0, 0.0), -1.0, 0.0),
               *_recip0(*_mul0(*_mul0(*w2, *w), 3.0, 0.0)))
    zzz = _mul0(*zz, *z)
    c4 = _mul0(*_add0(*z, -zzz[0], zzz[1]), *_recip0(*_mul0(*w2, *w2)))
    _, lin, lin_err = _mul_const(0.0, a.coeffs, 0.0, c1[0], 0.0)
    e, s = a.err, _sum_up(map(abs, a.coeffs))
    d_sup = _up(s + e) if e else s
    terms = [lin_err, _mul_up(abs(c1[0]), e)] if e else [lin_err]
    if d_sup:
        h = _up(_up(abs(c4[0]) + c4[1]) + _up(d_sup / 5.0))
        h = _horner_up(h, (_up(abs(c3[0]) + c3[1]), c2[1]), d_sup)
        terms += [_mul_up(c1[1], d_sup), _mul_up(h, _mul_up(d_sup, d_sup))]
        sq = ([_mul_up(s, s)] if s else []) + ([_mul_up(e, _up(s + d_sup))] if e else [])
        terms += [_mul_up(abs(c2[0]), q) for q in sq if c2[0]]
    value = 0.0 if a0 == 0.0 else math.atan(a0)
    if value:
        terms.append(_libm_err(value))
    return _atan_range(_jet(value, lin, _sum_up(terms)))


class ComplexJet:
    """Complex value as a pair (re, im) of real jets over one variable
    space.  It has no complex arithmetic: callers build each part with
    real-jet operations and read the pair through ``abs_squared``,
    ``arg_complex`` and ``complex_log_jet``."""

    __slots__ = ("re", "im")

    def __init__(self, re: Jet, im: Jet):
        if re.dim != im.dim:
            raise JetError("real and imaginary parts must share the variable space")
        self.re = re
        self.im = im

    @classmethod
    def constant(cls, z: complex) -> "ComplexJet":
        """The exact constant z, at dimension 0."""
        z = complex(z)
        return cls(Jet.constant(z.real), Jet.constant(z.imag))

    @property
    def dim(self) -> int:
        return self.re.dim

    def __repr__(self):
        return f"ComplexJet(re={self.re!r}, im={self.im!r})"

    def __eq__(self, other):
        if other.__class__ is not ComplexJet:
            return NotImplemented
        return (self.re, self.im) == (other.re, other.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def abs_squared(self) -> Jet:
        return self.re * self.re + self.im * self.im


def arg_complex(z: ComplexJet) -> Jet:
    """Principal argument of every complex point represented by ``z``.

    The branch follows whichever of |Re| and |Im| dominates at the
    centre, so the atan argument stays of magnitude about 1 or less:
    atan(im/re) in the right half-plane, +-pi + atan(im/re) in the left
    half-plane once the sign of Im is proved, and +-pi/2 - atan(re/im) in
    the upper and lower half-planes.  When the dominant part's branch is
    not provable the other one is tried.  Jets whose range may cross the
    negative real axis are rejected, since no single branch of the
    argument covers them.
    """
    if abs(z.re.center) >= abs(z.im.center):
        arg = _arg_by_real(z) or _arg_by_imag(z)
    else:
        arg = _arg_by_imag(z) or _arg_by_real(z)
    if arg is None:
        raise JetDomainError("argument: quadrant not provable (origin or branch cut)")
    return arg


def _arg_by_real(z: ComplexJet):
    """Argument through atan(im/re), or None when Re (and, left of the
    imaginary axis, Im) has no provable sign."""
    if z.re.prove_positive():
        return atan_jet(z.im / z.re)
    if z.re.prove_negative():
        if z.im.prove_positive():
            return pi_jet() + atan_jet(z.im / z.re)
        if z.im.prove_negative():
            return atan_jet(z.im / z.re) - pi_jet()
    return None


def _arg_by_imag(z: ComplexJet):
    """Argument through +-pi/2 - atan(re/im), or None when Im has no
    provable sign."""
    if z.im.prove_positive():
        return half_pi_jet() - atan_jet(z.re / z.im)
    if z.im.prove_negative():
        return -(half_pi_jet() + atan_jet(z.re / z.im))
    return None


def complex_log_jet(z: ComplexJet) -> ComplexJet:
    """Principal complex logarithm: log|z| + i arg z.

    No library code calls it: it stays as the benchmark tracer's span
    and as the tests' jet logarithm."""
    return ComplexJet(log_jet(z.abs_squared()) * 0.5, arg_complex(z))
