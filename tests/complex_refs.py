"""Complex operations on ``ComplexJet`` pairs, for building test inputs
and references, and the degree-4 jet log and atan that the library's
Taylor-rule ``log_jet``/``atan_jet`` replaced, with the ``widened``
step they end on.

``ComplexJet`` has no complex arithmetic.  These functions compute 1 - w,
w - 1, the product, the reciprocal and the quotient from real-jet
operations, op for op as the jet core once computed them, so a test
keeps its inputs and references bit for bit.  Unlike ``oracles``, they
run on the library's own jet operations.
"""

import math

from smallvol.jets import (ComplexJet, Jet, JetDomainError, JetError, _add0,
                           _add_const, _jet, _mul0, _mul_const, _recip0)
from smallvol.points import _libm_err
from smallvol.rounding import _down, _mul_up, _up


def widened(a, extra):
    """``a`` with the same affine part and its error radius grown by
    ``extra``."""
    if extra < 0.0:
        raise JetError("widening amount must be >= 0")
    if extra == 0.0:
        return a
    return _jet(a.center, a.coeffs, _up(a.err + extra))


def box(z, radius):
    """z perturbed by radius in each real coordinate independently: Re z
    over variable 0 and Im z over variable 1."""
    return ComplexJet(Jet.variable(z.real, 0, radius, 2), Jet.variable(z.imag, 1, radius, 2))


def one_minus(w):
    """1 - w.  The imaginary part is 0 - Im w, not -Im w: the subtraction
    steps a nonzero err up by one ulp, as the complex subtraction did."""
    return ComplexJet(1.0 - w.re, 0.0 - w.im)


def minus_one(w):
    """w - 1, with the imaginary part stepped as in ``one_minus``."""
    return ComplexJet(w.re - 1.0, w.im - 0.0)


def product(a, b):
    return ComplexJet(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def reciprocal(w):
    """1/w = conj(w) / |w|^2."""
    d = w.abs_squared()
    if not d.prove_positive():
        raise JetDomainError("complex reciprocal: jet not provably nonzero")
    inv = d.reciprocal()
    return ComplexJet(w.re * inv, -(w.im * inv))


def quotient(a, b):
    return product(a, reciprocal(b))


# The degree-4 log and atan of the jet core before the Taylor rule: each
# Taylor term is a jet product and sum.  ``jets.log_jet``/``atan_jet``
# fold the same terms into err, and tests hold them to these widths.
_THIRD = Jet.constant(3.0).reciprocal()


def _libm_point(value):
    return Jet(value, (), _libm_err(value))


def degree4_log_jet(a):
    if not a.prove_positive():
        raise JetDomainError("log of a jet not provably positive")
    a0 = a.center
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
        rem = _up(t5 / _down(5.0 * om5))
    base = Jet.constant(0.0) if a0 == 1.0 else _libm_point(math.log(a0))
    return widened(base + poly, rem)


def degree4_atan_jet(a):
    """Degree-4 Taylor about the center; |atan^(5)| <= 120 makes the
    Lagrange remainder at most sup|a - center|^5."""
    a0 = a.center
    d = a + (-a0)
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
    poly = _jet(*_mul_const(d.center, d.coeffs, d.err, *c4))
    for c in (c3, c2, c1):
        poly = d * _jet(*_add_const(poly.center, poly.coeffs, poly.err, *c))
    t_sup = d.sup_abs()
    if t_sup == 0.0:
        rem = 0.0
    else:
        rem = _mul_up(_mul_up(_mul_up(t_sup, t_sup), _mul_up(t_sup, t_sup)), t_sup)
    base = Jet.constant(0.0) if a0 == 0.0 else _libm_point(math.atan(a0))
    return widened(base + poly, rem)
