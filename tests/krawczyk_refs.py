"""The Krawczyk kernels as they were before ``certify`` formed P = Y A and
Q = Y B once per certificate: the interval Jacobian built entry by entry
(``jacobian_columns``) and each entry of I - Y F'(X) summed over the rows
of its column by ``points._dot`` (``k_row_bound``).  Tests hold the
library's row bounds to these, row for row, at many radii: never above
them.  Unlike ``oracles``, they run on the library's own point layer.

Also the float algebra as it was before ``certify`` factored each
Jacobian once (``approximate``): every row selection, Newton step and Y
ran its own Gaussian elimination (``eliminate``).  Tests hold the
library's selected rows, refined centre and Y to it bit for bit.
"""

from smallvol.certify import _SINGULAR_TOL, RankDeficientError, jacobian, residual
from smallvol.points import _MIN_NORMAL, _add0, _dot, _radius, _recip_scaled
from smallvol.rounding import TINY, JetDomainError, _up


def jacobian_columns(equations, center, r):
    """Interval Jacobian of ``equations`` over the box of per-real-coordinate
    radius r around ``center``, as one list per column of its nonzero
    entries (row, mid_re, mid_im, rad_re, rad_im).  Entry (l, k) is
    a_lk / z_k - b_lk / (1 - z_k).  The reciprocals are computed once per
    column, and only when some row needs them, by ``_recip_scaled`` over
    the disc of radius ``_radius`` of the box's half-widths; the real
    half-width of 1 - z includes the rounding of 1 - Re z."""
    cols = []
    for k, z in enumerate(center):
        a = [eq.a[k] for eq in equations]
        b = [-eq.b[k] for eq in equations]
        discs = [(0, z.real, r, z.imag)] if any(a) else []
        if any(b):
            discs.append((1, *_add0(1.0, 0.0, -z.real, r), -z.imag))
        recips = []
        for l, x, ex, y in discs:
            re, im, err, s, _ = _recip_scaled(x, _radius(ex, r), y)
            # s is a power of two, so a part scaled back rounds only in the
            # subnormal range (by TINY / 2), and only when s < 1.
            re, im, rad = re * s, im * s, _up(err * s)
            if s < 1.0 and min(abs(re), abs(im)) < _MIN_NORMAL:
                rad = _up(rad + TINY)
            recips.append((l, re, im, rad, rad))
        cols.append([(l, *_dot((al, bl), recips))
                     for l, (al, bl) in enumerate(zip(a, b)) if al or bl])
    return cols


def k_row_bound(points, cols, row, yf_row, r):
    """Upper bounds on |Re| and |Im| of (K(X) - x^)_row, given the points
    -Y_row plus a trailing 1, the Jacobian's columns and (Y F(x^))_row.
    (K - x^)_row = -(Y F)_row + sum_k C_k w_k with C = I - Y F'(X) and w
    in [-r, r] + i [-r, r], so each part is at most
    |(Y F)_row| + r sum_k (|Re C_k| + |Im C_k|)."""
    eye = (len(cols), 1.0, 0.0, 0.0, 0.0)
    spread = 0.0
    for k, col in enumerate(cols):
        if k == row:
            col = col + [eye]
        elif not col:
            continue
        c_re, c_im, p_re, p_im = _dot(points, col)
        spread = _up(spread + _up(_up(abs(c_re) + p_re) + _up(abs(c_im) + p_im)))
    spread = _up(spread * r)
    f_re, f_im, q_re, q_im = yf_row
    return (_up(_up(abs(f_re) + q_re) + spread),
            _up(_up(abs(f_im) + q_im) + spread))


def row_bounds(equations, center, y, yf, r):
    """Each row's ``k_row_bound`` over the box of radius r, or the
    JetDomainError message where the Jacobian cannot be enclosed."""
    try:
        cols = jacobian_columns(equations, center, r)
    except JetDomainError as exc:
        return str(exc)
    return [k_row_bound([-v for v in y_row] + [1], cols, row, yf[row], r)
            for row, y_row in enumerate(y)]


def eliminate(rows, n, tol):
    """Forward Gaussian elimination with partial pivoting on the first n
    columns of the row list ``rows``, in place; returns the pivot row of
    each column.  Raises RankDeficientError when the best remaining pivot
    has modulus at most ``tol``."""
    available = list(range(len(rows)))
    pivots = []
    for col in range(n):
        best = max(available, key=lambda r: abs(rows[r][col]))
        prow = rows[best]
        pivot = prow[col]
        if abs(pivot) <= tol:
            raise RankDeficientError(f"no usable pivot in column {col}")
        pivots.append(best)
        available.remove(best)
        for r in available:
            row = rows[r]
            f = row[col] / pivot
            if f:
                for c in range(col + 1, len(row)):
                    row[c] -= f * prow[c]
    return pivots


def solve(a, rhs):
    """Approximate solution of a x = rhs, one right-hand side per column of
    the row list ``rhs``: the rows and right-hand sides eliminated
    together, then back substitution."""
    n = len(a)
    rows = [list(ar) + list(br) for ar, br in zip(a, rhs)]
    pivots = eliminate(rows, n, 0.0)
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = rows[pivots[i]]
        out = []
        for c in range(n, len(row)):
            s = row[c]
            for j in range(i + 1, n):
                s -= row[j] * x[j][c - n]
            out.append(s / row[i])
        x[i] = out
    return x


def select_rows(jac, n):
    """The sorted pivot rows of the whole Jacobian ``jac``, eliminated on a
    copy with the library's rank tolerance."""
    scale = max(1.0, max(abs(x) for row in jac for x in row))
    return tuple(sorted(eliminate([list(row) for row in jac], n, _SINGULAR_TOL * scale)))


def newton_refine(sys, selected, jac, max_steps=5):
    """Newton on the fixed rows ``selected`` from the stored shapes, one
    elimination per step; returns the best iterate, its residuals and its
    Jacobian."""
    z = list(sys.shapes)
    res = sys.stored_residual
    norm = max(abs(r) for r in res)
    for _ in range(max_steps):
        try:
            step = solve([jac[i] for i in selected], [[-res[i]] for i in selected])
        except RankDeficientError:
            break
        z_new = [w + s for w, (s,) in zip(z, step)]
        if any(w == 0 or w == 1 for w in z_new):
            break
        res_new = residual(sys, z_new)
        norm_new = max(abs(r) for r in res_new)
        if not norm_new < norm:
            break
        z, res, norm = z_new, res_new, norm_new
        jac = jacobian(sys, z)
    return tuple(z), res, jac


def approximate(sys):
    """(selected, refined centre, Y) as ``krawczyk_certify`` formed them
    with one elimination per selection, Newton step and Y."""
    jac = jacobian(sys)
    center, _, jac = newton_refine(sys, select_rows(jac, sys.n), jac)
    selected = select_rows(jac, sys.n)
    identity = [[1.0 if i == j else 0.0 for j in range(sys.n)] for i in range(sys.n)]
    return selected, center, solve([jac[i] for i in selected], identity)
