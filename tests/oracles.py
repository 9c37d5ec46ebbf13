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


def free_reduction(letters):
    """The freely reduced form of a word (nonzero ints, -x the inverse of
    x): delete the leftmost adjacent inverse pair and rescan from the
    start, until no pair is left."""
    w = list(letters)
    i = 0
    while i + 1 < len(w):
        if w[i] == -w[i + 1]:
            del w[i:i + 2]
            i = 0
        else:
            i += 1
    return tuple(w)


def derivation_replays(derivation, relators):
    """Check an insertion certificate with no library code: every
    inserted word is a cyclic rotation of a cyclically reduced relator or
    of its inverse, every position lies in the word, and inserting them
    in turn, each followed by ``free_reduction``, ends at the empty word."""
    allowed = set()
    for r in relators:
        r = free_reduction(r)
        while len(r) > 1 and r[0] == -r[-1]:
            r = r[1:-1]
        for base in (r, tuple(-x for x in reversed(r))):
            allowed.update(base[k:] + base[:k] for k in range(len(base)))
    w = free_reduction(derivation.start)
    for pos, inserted in derivation.steps:
        if tuple(inserted) not in allowed or not 0 <= pos <= len(w):
            return False
        w = free_reduction(w[:pos] + tuple(inserted) + w[pos:])
    return w == ()


def gluing_rows(text):
    """The (a, b, c) integer rows of the ``eq`` lines of a gluing file."""
    rows = []
    for line in text.splitlines():
        fields = line.split("#")[0].split()
        if fields and fields[0] == "eq":
            a, b, c = " ".join(fields[1:]).split(";")
            rows.append((tuple(map(int, a.split())), tuple(map(int, b.split())), int(c)))
    return rows


def certificate_claim(report):
    """(centre, box_radius, selected) as a ``certify`` report prints them:
    the ``center:`` lines as complex floats (exact, by ``repr``), and the
    1-based ``selected`` rows as 0-based indices."""
    fields = [line.split(": ", 1) for line in report.splitlines() if ": " in line]
    centre = [complex(float(x), float(y)) for key, v in fields if key == "center"
              for _, x, y in [v.split()]]
    values = dict(fields)
    return (centre, float(values["box_radius"]),
            [int(i) - 1 for i in values["selected"].split()])


def _float_inverse(m):
    """Approximate inverse of a square complex matrix: Gauss-Jordan with
    partial pivoting in plain floats."""
    n = len(m)
    rows = [list(r) + [complex(i == j) for j in range(n)] for i, r in enumerate(m)]
    for col in range(n):
        p = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[p] = rows[p], rows[col]
        pivot = rows[col][col]
        rows[col] = [v / pivot for v in rows[col]]
        for r in range(n):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def krawczyk_margin(rows, centre, box_radius, selected, dps=30, columns=False):
    """Re-check a certificate's Krawczyk test with ``mpmath.iv`` at ``dps``
    digits, from the gluing rows (a, b, c) and what the report claims.

    X is the box of real half-width rho = box_radius / sqrt(2) about the
    centre c (its corners lie box_radius from c), F the selected rows
    sum_j a_j log z_j + b_j log(1 - z_j) - c i pi, J their Jacobian
    a_j / z_j - b_j / (1 - z_j), and Y an approximate inverse of J(c) in
    floats.  F(c) takes ``iv.log`` and ``iv.atan2`` at the centre, J(X)
    ``iv.mpc`` reciprocals of z and 1 - z over the box.  Returns an upper
    bound on max |Re, Im (K(X) - c)| / rho for K(X) = c - Y F(c) +
    (I - Y J(X)) (X - c), as the nearest float: below 1, K(X) lies inside
    X, and a solution of the selected rows exists in X.

    With ``columns``, I - Y J(X) is taken as I - (Y A) R + (Y B) S, where
    A and B hold the selected rows' a and b and R and S are the diagonal
    boxes of 1/z and 1/(1 - z): J(z) = A diag(1/z) - B diag(1/(1 - z)) at
    every z in X, and each box then enters each entry once, where the
    plain product takes it once per row of its column."""
    iv = mpmath.iv
    prec = iv.prec
    iv.dps = dps
    try:
        eqs = [rows[i] for i in selected]
        n = len(centre)
        rho = iv.mpf(box_radius) / iv.sqrt(2)
        h = iv.mpf([-1, 1]) * rho.b
        box = iv.mpc(h, h)
        logs, recips = [], []
        for z in centre:
            x, y = iv.mpf(z.real), iv.mpf(z.imag)
            logs.append([iv.mpc(iv.log(u * u + v * v) / 2, iv.atan2(v, u))
                         for u, v in ((x, y), (1 - x, -y))])
            w = iv.mpc(x, y) + box
            recips.append((1 / w, 1 / (1 - w)))
        y_mat = _float_inverse([[a[j] / z - b[j] / (1 - z) for j, z in enumerate(centre)]
                                for a, b, _ in eqs])
        ipi = iv.mpc(0, iv.pi)
        f = [sum((a[j] * logs[j][0] + b[j] * logs[j][1] for j in range(n)), -c * ipi)
             for a, b, c in eqs]
        jac = [[a[j] * recips[j][0] - b[j] * recips[j][1] for j in range(n)]
               for a, b, _ in eqs]
        bounds = []
        for i, y_row in enumerate(y_mat):
            y_row = [iv.mpc(v.real, v.imag) for v in y_row]
            k = -sum((yv * fv for yv, fv in zip(y_row, f)), iv.mpc(0))
            for j in range(n):
                if columns:
                    p, q = (sum((y_row[l] * eqs[l][t][j] for l in range(n) if eqs[l][t][j]),
                                iv.mpc(0)) for t in (0, 1))
                    c_ij = iv.mpc(i == j) - p * recips[j][0] + q * recips[j][1]
                else:
                    c_ij = -sum((y_row[l] * jac[l][j] for l in range(n)), iv.mpc(-(i == j)))
                k += c_ij * box
            bounds += (abs(k.real).b, abs(k.imag).b)
        return float((iv.mpf(max(bounds)) / rho).b)
    finally:
        iv.prec = prec
