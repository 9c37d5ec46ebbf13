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
Taylor remainders of ``log_jet``/``atan_jet``) is folded entirely into
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

Constants are dimension-0 jets (no coefficients), and a scalar operand
counts as one with ``err`` 0.  A dimension-0 operand K combines with a
jet j of any dimension (``_add_const``, ``_mul_const``): j + K keeps j's
coefficients, and j * K scales them by K's center and charges K's err
times their spread.  Only two different nonzero dimensions are an
error.  When both operands have dimension 0 the operation runs on
plain ``(center, err)`` float pairs (``points._add0``, ``_mul0``,
``_recip0``, with the same charges); ``atan_jet`` calls them directly
for its Taylor coefficients.
"""

from __future__ import annotations

import math

from .points import (_add0, _libm_err, _mul0, _recip, _recip0, _reject,
                     _require_finite)
from .rounding import (EPS_PRIM, PI_HI, PI_LO, TINY, JetDomainError, JetError,
                       _INF, _down, _mul_up, _nextafter, _up)

_new = object.__new__


def _add_up(x: float, y: float) -> float:
    return _up(x + y)


def _div_up(x: float, y: float) -> float:
    return _up(x / y)


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
        s = 0.0
        for c in self.coeffs:
            if c:
                s = _nextafter(s + abs(c), _INF)
        if self.err == 0.0:
            return s
        return _up(s + self.err)

    def bounds(self) -> tuple:
        """Outward interval enclosing every value of every member function."""
        s = self.spread()
        if s == 0.0:
            return self.center, self.center
        return _down(self.center - s), _up(self.center + s)

    def sup_abs(self) -> float:
        s = self.spread()
        if s == 0.0:
            return abs(self.center)
        return _up(abs(self.center) + s)

    def prove_positive(self) -> bool:
        return self.bounds()[0] > 0.0

    def prove_negative(self) -> bool:
        return self.bounds()[1] < 0.0

    def prove_nonzero(self) -> bool:
        lo, hi = self.bounds()
        return lo > 0.0 or hi < 0.0

    def is_exact_zero(self) -> bool:
        return self.center == 0.0 and self.err == 0.0 and not any(self.coeffs)

    def widened(self, extra: float) -> "Jet":
        """Same affine part with the error radius grown by ``extra``."""
        if extra < 0.0:
            raise JetError("widening amount must be >= 0")
        if extra == 0.0:
            return self
        return _jet(self.center, self.coeffs, _add_up(self.err, extra))

    def __repr__(self):
        return f"Jet({self.center!r}; {list(self.coeffs)!r}; {self.err!r})"

    def __eq__(self, other):
        if other.__class__ is not Jet:
            return NotImplemented
        return (self.center, self.coeffs, self.err) == (other.center, other.coeffs, other.err)

    def __hash__(self):
        return hash((self.center, self.coeffs, self.err))

    # -- arithmetic ---------------------------------------------------
    #
    # Rounding charges are accumulated in a local float, each one as
    # err = up(err + charge), in a fixed order.  A sum v = fl(x + y) is
    # charged up(EPS_PRIM |v|) unless x, y or v is zero (adding zero and
    # cancelling to zero are exact); a product v = fl(x * y) (or a quotient
    # with divisor y) is charged up(up(EPS_PRIM |v|) + TINY) unless x or y
    # is zero.
    #
    # A dimension-0 or scalar operand goes to ``_add_const``/``_mul_const``,
    # which charge only what they compute.

    def _mismatch(self, other) -> JetError:
        return JetError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __neg__(self) -> "Jet":
        # Negation of doubles is exact.
        return _jet(-self.center, tuple([-c for c in self.coeffs]), self.err)

    def __add__(self, other):
        if other.__class__ is not Jet:
            k = _scalar(other)
            if k is None:
                return NotImplemented
            return _add_const(self, k, 0.0)
        b = other
        if not b.coeffs:
            return _add_const(self, b.center, b.err)
        if not self.coeffs:
            return _add_const(b, self.center, self.err)
        if len(b.coeffs) != len(self.coeffs):
            raise self._mismatch(b)
        up, inf, eps = _nextafter, _INF, EPS_PRIM
        x0, y0 = self.center, b.center
        c0 = x0 + y0
        err = 0.0
        if x0 and y0 and c0:
            err = up(err + up(eps * abs(c0), inf), inf)
        coeffs = []
        for x, y in zip(self.coeffs, b.coeffs):
            ci = x + y
            if x and y and ci:
                err = up(err + up(eps * abs(ci), inf), inf)
            coeffs.append(ci)
        if self.err:
            err = up(err + self.err, inf)
        if b.err:
            err = up(err + b.err, inf)
        return _jet(c0, tuple(coeffs), err)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is Jet:
            if other.coeffs:
                return self.__add__(-other)
            return _add_const(self, -other.center, other.err)
        k = _scalar(other)
        if k is None:
            return NotImplemented
        return _add_const(self, -k, 0.0)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if other.__class__ is not Jet:
            k = _scalar(other)
            if k is None:
                return NotImplemented
            return _mul_const(self, k, 0.0)
        b = other
        if not b.coeffs:
            return _mul_const(self, b.center, b.err)
        if not self.coeffs:
            return _mul_const(b, self.center, self.err)
        if len(b.coeffs) != len(self.coeffs):
            raise self._mismatch(b)
        up, inf, eps = _nextafter, _INF, EPS_PRIM
        a0, b0 = self.center, b.center
        c0 = a0 * b0
        err = 0.0
        if a0 and b0:
            err = up(err + up(up(eps * abs(c0), inf) + TINY, inf), inf)
        coeffs = []
        sa = sb = 0.0  # upward sums of |coeffs| of self and of b
        for x, y in zip(self.coeffs, b.coeffs):
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
        # The err terms as in ``_mul0``: self.err * b.err is charged once.
        if b.err:
            ma = up(up(abs(a0) + sa, inf) + self.err, inf)
            err = up(err + up(ma * b.err, inf), inf)
        if self.err:
            mb = up(abs(b0) + sb, inf)
            err = up(err + up(mb * self.err, inf), inf)
        return _jet(c0, tuple(coeffs), err)

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        """1/f for every represented f; requires a provably nonzero range."""
        return _jet(*_recip(self.center, self.err, self.spread(), self.coeffs))

    def __truediv__(self, other):
        if other.__class__ is Jet:
            if other.coeffs:
                if self.coeffs and len(other.coeffs) != len(self.coeffs):
                    raise self._mismatch(other)
                return self.__mul__(other.reciprocal())
            k, ke = other.center, other.err
        else:
            k, ke = _scalar(other), 0.0
            if k is None:
                return NotImplemented
        return _mul_const(self, *_recip0(k, ke))

    def __rtruediv__(self, other):
        k = _scalar(other)
        if k is None:
            return NotImplemented
        return _mul_const(self.reciprocal(), k, 0.0)


def _add_const(j: Jet, k: float, ke: float) -> Jet:
    """j + K for the dimension-0 operand K = (k, ke): the sum of centers
    and errs as in ``_add0``, with j's coefficients unchanged."""
    c, err = _add0(j.center, j.err, k, ke)
    return _jet(c, j.coeffs, err)


def _mul_const(j: Jet, k: float, ke: float) -> Jet:
    """j * K for the dimension-0 operand K = (k, ke): the product of
    centers and errs as in ``_mul0``, the roundings of the coefficients
    k * x_i, and spread(coefficients) * ke for their product with K's err."""
    c, err = _mul0(j.center, j.err, k, ke)
    if not j.coeffs:
        return _jet(c, (), err)
    up, inf, eps = _nextafter, _INF, EPS_PRIM
    coeffs = []
    s = 0.0  # upward sum of |coeffs| of j
    for x in j.coeffs:
        t = k * x
        if x:
            s = up(s + abs(x), inf)
            if k:
                err = up(err + up(up(eps * abs(t), inf) + TINY, inf), inf)
        coeffs.append(t)
    if ke and s:
        err = up(err + up(s * ke, inf), inf)
    return _jet(c, tuple(coeffs), err)


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


def pi_jet() -> Jet:
    """Certified enclosure of pi as a dimension-0 jet."""
    return _jet(PI_LO, (), PI_HI - PI_LO)


def half_pi_jet() -> Jet:
    """Certified enclosure of pi/2; halving the pi enclosure is exact."""
    return _jet(PI_LO * 0.5, (), (PI_HI - PI_LO) * 0.5)


def _libm_point(value: float) -> Jet:
    """Enclosure of a libm-computed transcendental value (``_libm_err``)."""
    return _jet(value, (), _libm_err(value))


# Enclosure of 1/3 for ``log_jet``'s cubic term, built once.
_THIRD = Jet.constant(3.0).reciprocal()


def log_jet(a: Jet) -> Jet:
    """Pointwise natural log: degree-4 Taylor about the center plus a
    Lagrange remainder over the jet's (provably positive) range."""
    if not a.prove_positive():
        raise JetDomainError("log of a jet not provably positive")
    a0 = a.center
    if a0 <= 0.0:  # unreachable once positivity is proved
        raise JetDomainError("log: center not positive")
    # t = (a - a0)/a0; positivity of the range forces |t| < 1.
    d = a + (-a0)
    t = d / a0
    t_sup = t.sup_abs()
    if not t_sup < 1.0:
        raise JetDomainError("log: jet range too wide for the remainder bound")
    t2 = t * t
    poly = t - t2 * 0.5 + (t2 * t) * _THIRD - (t2 * t2) * 0.25
    # |R| <= T^5 / (5 (1-T)^5) for log(1+t), T = sup|t|.
    if t_sup == 0.0:
        rem = 0.0
    else:
        t5 = _mul_up(_mul_up(_mul_up(t_sup, t_sup), _mul_up(t_sup, t_sup)), t_sup)
        om = _down(1.0 - t_sup)
        om2 = _down(om * om)
        om5 = _down(_down(om2 * om2) * om)
        den = _down(5.0 * om5)
        if den <= 0.0:
            raise JetDomainError("log: jet range too wide for the remainder bound")
        rem = _div_up(t5, den)
    base = Jet.constant(0.0) if a0 == 1.0 else _libm_point(math.log(a0))
    return (base + poly).widened(rem)


def atan_jet(a: Jet) -> Jet:
    """Pointwise arctangent: degree-4 Taylor about the center.

    The fifth derivative of atan is bounded by 120 in absolute value, so
    the Lagrange remainder is at most sup|a - center|^5.
    """
    a0 = a.center
    d = a + (-a0)
    # Taylor coefficients at a0, as certified dimension-0 (center, err)
    # pairs, each step charged as the matching jet operation:
    #  c1 = 1/w, c2 = -a0/w^2, c3 = (3a0^2-1)/(3w^3), c4 = a0(1-a0^2)/w^4
    # with w = 1 + a0^2.
    z = (a0, 0.0)
    zz = _mul0(*z, *z)
    w = _add0(*zz, 1.0, 0.0)
    w2 = _mul0(*w, *w)
    c1 = _recip0(*w)
    c2 = _mul0(*z, *_recip0(*w2))
    c2 = (-c2[0], c2[1])
    c3 = _mul0(*_add0(*_mul0(*zz, 3.0, 0.0), -1.0, 0.0),
               *_recip0(*_mul0(*_mul0(*w2, *w), 3.0, 0.0)))
    zzz = _mul0(*zz, *z)
    c4 = _mul0(*_add0(*z, -zzz[0], zzz[1]), *_recip0(*_mul0(*w2, *w2)))
    # poly = d * (c1 + d * (c2 + d * (c3 + d * c4)))
    poly = _mul_const(d, *c4)
    for c in (c3, c2, c1):
        poly = d * _add_const(poly, *c)
    t_sup = d.sup_abs()
    if t_sup == 0.0:
        rem = 0.0
    else:
        rem = _mul_up(_mul_up(_mul_up(t_sup, t_sup), _mul_up(t_sup, t_sup)), t_sup)
    base = Jet.constant(0.0) if a0 == 0.0 else _libm_point(math.atan(a0))
    return (base + poly).widened(rem)


class ComplexJet:
    """Complex value with jet real and imaginary parts over one variable space."""

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
        return _cjet(Jet.constant(z.real), Jet.constant(z.imag))

    @classmethod
    def variable(cls, z: complex, re_index: int, im_index: int,
                 radius: float, dim: int) -> "ComplexJet":
        """z perturbed by radius in each real coordinate independently."""
        z = complex(z)
        return cls(Jet.variable(z.real, re_index, radius, dim),
                   Jet.variable(z.imag, im_index, radius, dim))

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

    def _lift(self, other):
        if isinstance(other, ComplexJet):
            return other
        if isinstance(other, (int, float, complex)):
            return ComplexJet.constant(complex(other))
        return NotImplemented

    def __neg__(self):
        return _cjet(-self.re, -self.im)

    def __add__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return _cjet(self.re + b.re, self.im + b.im)

    __radd__ = __add__

    def __sub__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return _cjet(self.re - b.re, self.im - b.im)

    def __rsub__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return b.__sub__(self)

    def __mul__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return _cjet(self.re * b.re - self.im * b.im,
                     self.re * b.im + self.im * b.re)

    __rmul__ = __mul__

    def conjugate(self) -> "ComplexJet":
        return _cjet(self.re, -self.im)

    def abs_squared(self) -> Jet:
        return self.re * self.re + self.im * self.im

    def prove_nonzero(self) -> bool:
        return self.abs_squared().prove_positive()

    def reciprocal(self, abs_squared: Jet = None) -> "ComplexJet":
        """1/z; ``abs_squared`` passes ``self.abs_squared()`` when the
        caller has computed it already."""
        d = self.abs_squared() if abs_squared is None else abs_squared
        if not d.prove_positive():
            raise JetDomainError("complex reciprocal: jet not provably nonzero")
        inv = d.reciprocal()
        return _cjet(self.re * inv, -(self.im * inv))

    def __truediv__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return self.__mul__(b.reciprocal())

    def __rtruediv__(self, other):
        b = self._lift(other)
        if b is NotImplemented:
            return NotImplemented
        return b.__mul__(self.reciprocal())


def _cjet(re: Jet, im: Jet) -> ComplexJet:
    """Trusted constructor for results whose parts share one dimension."""
    z = _new(ComplexJet)
    z.re = re
    z.im = im
    return z


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
    """Principal complex logarithm: log|z| + i arg z."""
    return _cjet(log_jet(z.abs_squared()) * 0.5, arg_complex(z))
