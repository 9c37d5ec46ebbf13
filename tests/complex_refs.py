"""Complex operations on ``ComplexJet`` pairs, for building test inputs
and references.

``ComplexJet`` has no complex arithmetic.  These functions compute 1 - w,
w - 1, the product, the reciprocal and the quotient from real-jet
operations, op for op as the jet core once computed them, so a test
keeps its inputs and references bit for bit.  Unlike ``oracles``, they
run on the library's own jet operations.
"""

from smallvol.jets import ComplexJet, JetDomainError


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
