"""Independent references the benchmark checks smallvol's outputs against.

Nothing here imports smallvol.  Volumes come from mpmath's dilogarithm
(the Bloch-Wigner function), not from the Lobachevsky series smallvol
uses; slope sets come from a brute-force lattice scan; triviality
certificates are replayed with a free reduction written here.  mpmath is
imported only inside the functions that need it, and the harness calls
them outside timed regions.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

FIG8_SHAPE = cmath.exp(1j * math.pi / 3)


# -- volumes ---------------------------------------------------------------

def _bloch_wigner(ctx, z):
    """Volume of the ideal tetrahedron with shape z (Im z > 0)."""
    return ctx.im(ctx.polylog(2, z)) + ctx.arg(1 - z) * ctx.log(abs(z))


def volume_mp(shapes, dps: int = 30):
    """High-precision volume of a shape assignment, as an mpmath mpf."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.fsum(_bloch_wigner(mpmath.mp, mpmath.mpc(z)) for z in shapes)


def fig8_volume_mp(dps: int = 30):
    """Volume of the figure-eight complement: two tetrahedra of shape
    exactly e^{i pi/3}."""
    import mpmath

    with mpmath.workdps(dps):
        return 2 * _bloch_wigner(mpmath.mp, mpmath.expjpi(mpmath.mpf(1) / 3))


def volume_fp(shapes) -> float:
    """Double-precision volume of a shape assignment."""
    from mpmath import fp

    return math.fsum(_bloch_wigner(fp, complex(z)) for z in shapes)


def interval_contains_volume(lo: float, hi: float, shapes) -> bool:
    """True when the volume at ``shapes`` lies in [lo, hi].

    The double-precision value decides when it sits clear of both ends by
    far more than its own error (below 2e-15 per tetrahedron against the
    30-digit value, over 15000 shapes drawn as in volume-screen);
    otherwise the question goes to 30 digits, compared exactly against
    the interval's endpoints.
    """
    v = volume_fp(shapes)
    margin = 1e-13 * max(1.0, abs(v))
    if lo + margin < v < hi - margin:
        return True
    import mpmath

    exact = volume_mp(shapes)
    return mpmath.mpf(lo) <= exact <= mpmath.mpf(hi)


# -- slope bound and enumeration ------------------------------------------

def slope_bound(parent: float, target: float) -> float:
    return 2 * math.pi / math.sqrt(1.0 - (target / parent) ** (2.0 / 3.0))


def slope_pairs(meridian: complex, longitude: complex, cutoff: float) -> dict:
    """{(p, q): length} for every normalized coprime slope up to ``cutoff``.

    Normalized means q > 0, or (p, q) = (1, 0).  The scan box is the
    parallelogram bound widened by two lattice steps each way.
    """
    area = abs(meridian.real * longitude.imag - meridian.imag * longitude.real)
    p_max = int(cutoff * abs(longitude) / area) + 2
    q_max = int(cutoff * abs(meridian) / area) + 2
    out = {}
    for q in range(0, q_max + 1):
        for p in range(-p_max, p_max + 1):
            if q == 0 and p <= 0:
                continue
            if gcd(abs(p), q) != 1:
                continue
            length = abs(p * meridian + q * longitude)
            if length <= cutoff:
                out[(p, q)] = length
    return out


# -- free groups -----------------------------------------------------------

def reduce_word(letters) -> tuple:
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(word) -> tuple:
    return tuple(-x for x in reversed(word))


def is_relator_conjugate(word, relators) -> bool:
    """Is ``word`` a cyclic rotation of a cyclically reduced relator or of
    its inverse (the only insertions a triviality certificate may use)?"""
    for rel in relators:
        r = list(reduce_word(rel))
        while len(r) >= 2 and r[0] == -r[-1]:
            r = r[1:-1]
        for base in (tuple(r), inverse(r)):
            if any(base[k:] + base[:k] == tuple(word) for k in range(len(base))):
                return True
    return False


def replays_to_identity(start, insertions, relators) -> bool:
    """Replay a certificate: each insertion must be a relator conjugate,
    and inserting them in turn must reduce ``start`` to the empty word."""
    w = reduce_word(start)
    for position, inserted in insertions:
        if not 0 <= position <= len(w):
            return False
        if not is_relator_conjugate(inserted, relators):
            return False
        w = reduce_word(w[:position] + tuple(inserted) + w[position:])
    return w == ()


def exponent_vector(word, generators: int) -> list:
    v = [0] * generators
    for x in word:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v


def rational_rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def nontrivial_in_homology(word, relators, generators: int) -> bool:
    """True when the word's exponent vector leaves the rational span of
    the relators' exponent vectors, which proves it nontrivial."""
    rows = [exponent_vector(r, generators) for r in relators]
    v = exponent_vector(word, generators)
    return rational_rank(rows + [v]) > rational_rank(rows)

