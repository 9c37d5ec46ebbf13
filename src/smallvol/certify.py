"""Existence certification for logarithmic gluing-equation systems.

A system consists of equations

    sum_j a_j log z_j + b_j log(1 - z_j) - c * i*pi = 0

with integer coefficients and principal logarithms, together with an
approximate solution.  ``krawczyk_certify`` refines the approximation
with a few plain Newton steps, then runs the Krawczyk interval-Newton
test over a small per-coordinate box X around the refined point x^:

    K(X) = x^ - Y F(x^) + (I - Y F'(X)) (X - x^),

with Y an approximate inverse Jacobian.  If K(X) lands strictly inside
X (checked per real coordinate on outward bounds), a true solution of
the selected square subsystem exists in X.  Every other equation is
then shown, by exact integer elimination, to be a rational combination
of the selected ones, so the solution satisfies the whole system, and
the certificate's delta bounds its C^n distance from the *input* shapes.

F(x^) and Y F(x^) run on the point layer's plain-float midpoint-radius
kernel, ``_dot``, with a priori rounding bounds; each logarithm in F(x^)
takes one libm log and one atan at a point, with mean-value bounds for
the rounding (``_log_box``).  I - Y F'(X) takes the Jacobian's column
structure: F'(z)_lk = a_lk / z_k - b_lk / (1 - z_k) with integer rows A
and B, so I - Y F'(X) = I - P diag(R) + Q diag(S), where P = Y A and
Q = Y B are formed once per certificate in plain floats with an a priori
rounding bound (``_column_products``), and R_k and S_k hold 1/z_k and
1/(1 - z_k) over the box: the power-of-two-scaled reciprocal that the
volume's angle kernel takes (``_recip_scaled``), over the disc that holds
the box.  Each radius tried then costs 2n reciprocals and one pass over
the entries of each row (``_row_spread``), which skips the entries where
P and Q are exactly 0, off the blocks of a block-diagonal system.  Each
box enters each entry once, so an entry's range |P_ik| rad R_k +
|Q_ik| rad S_k is never wider than sum_l |y_il| (|a_lk| rad R_k +
|b_lk| rad S_k), the range of the same entry summed from the interval
Jacobian's column; where the rows of A and B cancel in Y A and Y B, as
on mixed systems, it is far narrower.  All of these live in the point
layer, ``points``, so certification loads neither ``jets`` nor
``geometry``.  The approximate quantities come from LU factorizations
with partial pivoting in plain complex floats (``_factor``, ``_solve``):
the one at the stored shapes selects rows and gives Newton's first step,
and the one at the refined center selects the certified rows and gives
Y; their values need not be accurate for soundness.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import smallvol

from .points import _MIN_NORMAL, _add0, _dot, _log_box, _radius, _recip_scaled
from .rounding import EPS_PRIM, PI_HI, PI_LO, SQRT2_HI, TINY, JetDomainError, _up

_SINGULAR_TOL = 1e-13
_NEWTON_STEPS = 5


class CertifyError(ValueError):
    """Bad gluing-system input."""


class BranchConsistencyError(CertifyError):
    """Residuals at the stored shapes are too large for the chosen log
    branches to be meaningful."""


class RankDeficientError(CertifyError):
    """No nonsingular square subsystem could be selected."""


class UncoveredEquationError(CertifyError):
    """An equation outside the certified square subsystem does not follow
    from it, so the certified solution need not satisfy the system."""


class InconclusiveError(RuntimeError):
    """The contraction test failed at every radius in the schedule.

    Not a proof of nonexistence; retry with better shapes or equations.
    """


class GluingEquation(namedtuple("GluingEquation", "a b c")):
    """One row: integer coefficients a_j, b_j and the multiple c of i*pi."""

    __slots__ = ()

    def __new__(cls, a, b, c):
        self = super().__new__(cls, tuple(int(x) for x in a),
                               tuple(int(x) for x in b), int(c))
        if any(abs(x) > 2 ** 53 for x in (*self.a, *self.b, self.c)):
            raise CertifyError("coefficients must not exceed 2^53 in magnitude")
        if len(self.a) != len(self.b):
            raise CertifyError("coefficient rows a and b must have equal length")
        return self


class GluingSystem(namedtuple("GluingSystem", "equations shapes stored_residual")):
    """Integer-coefficient logarithmic equations plus approximate shapes.

    ``stored_residual`` is ``residual(self)`` at ``shapes``, kept from the
    branch screen for Newton; the constructor computes it."""

    __slots__ = ()

    def __new__(cls, equations, shapes):
        self = super().__new__(cls, tuple(equations),
                               tuple(complex(z) for z in shapes), ())
        n = len(self.shapes)
        if n == 0:
            raise CertifyError("system needs at least one shape")
        if len(self.equations) < n:
            raise CertifyError(
                f"need at least {n} equations for {n} shapes, "
                f"got {len(self.equations)}"
            )
        for eq in self.equations:
            if len(eq.a) != n:
                raise CertifyError("equation arity does not match shape count")
        for j, z in enumerate(self.shapes):
            if not cmath.isfinite(z):
                raise CertifyError(f"stored shape {j} is not finite")
            if z == 0 or z == 1:
                raise CertifyError(f"stored shape {j} is singular")
        res = tuple(residual(self))
        for i, r in enumerate(res):
            if abs(r) >= 0.5:
                raise BranchConsistencyError(
                    f"residual {abs(r):.3g} of equation {i} at the stored shapes "
                    "exceeds 0.5; log branches are inconsistent"
                )
        return self._replace(stored_residual=res)

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self[:2]

    @property
    def n(self) -> int:
        return len(self.shapes)


class Certificate(namedtuple("Certificate", "delta box_radius selected refined_center "
                             "residual_norms radius")):
    """Verified existence record for a gluing-equation solution.

    A true solution of the whole system lies within ``radius`` of
    ``refined_center`` in each real coordinate, hence within
    ``box_radius`` in each complex coordinate, and within ``delta`` of
    the system's input shapes in the C^n 2-norm.  ``radius`` defaults
    to ``box_radius``, which bounds each real coordinate as well.
    ``residual_norms`` holds each equation's |residual| at the refined
    center.
    """

    __slots__ = ()

    def __new__(cls, delta, box_radius, selected, refined_center, residual_norms,
                radius=None):
        if radius is None:
            radius = box_radius
        if delta < box_radius:
            raise CertifyError("delta must dominate the box radius")
        if not 0.0 <= radius <= box_radius:
            raise CertifyError("the per-coordinate radius must lie in [0, box_radius]")
        if len(set(selected)) != len(selected):
            raise CertifyError("selected equation indices must be distinct")
        return super().__new__(cls, delta, box_radius, selected, refined_center,
                               residual_norms, radius)

    def shape_assignment(self):
        """The certified box as input to the volume stage, a
        ``geometry.ShapeAssignment`` (``geometry`` loads on this call)."""
        return smallvol.geometry.ShapeAssignment(self.refined_center, self.radius)


def residual(sys: GluingSystem, shapes=None) -> list:
    """Per-equation value of sum_j a_j log z_j + b_j log(1-z_j) - c*i*pi."""
    zs = sys.shapes if shapes is None else [complex(z) for z in shapes]
    for z in zs:
        if z == 0 or z == 1:
            raise CertifyError("residual evaluated at a singular shape")
    logs = [cmath.log(z) for z in zs]
    logs1 = [cmath.log(1 - z) for z in zs]
    out = []
    for eq in sys.equations:
        v = complex(0.0)
        for aj, bj, lz, l1 in zip(eq.a, eq.b, logs, logs1):
            if aj:
                v += aj * lz
            if bj:
                v += bj * l1
        out.append(v - eq.c * complex(0.0, math.pi))
    return out


def jacobian(sys: GluingSystem, shapes=None) -> list:
    """m x n partials as a list of rows: d/dz_j = a_j / z_j - b_j / (1 - z_j),
    evaluated where a_j or b_j is nonzero and 0j elsewhere."""
    zs = sys.shapes if shapes is None else [complex(z) for z in shapes]
    for z in zs:
        if z == 0 or z == 1:
            raise CertifyError("jacobian evaluated at a singular shape")
    return [[a / z - b / (1 - z) if a or b else 0j for a, b, z in zip(eq.a, eq.b, zs)]
            for eq in sys.equations]


def _factor(rows, n: int, tol: float) -> list:
    """LU factorization with partial pivoting on the first n columns of
    ``rows``, a dict of rows by index, in place: each multiplier goes into
    the entry it eliminates.  Returns the pivot row of each column; raises
    RankDeficientError when the best remaining pivot is at most ``tol``."""
    available = list(rows)
    pivots = []
    for col in range(n):
        best = max(available, key=lambda r: abs(rows[r][col]))
        prow = rows[best]
        pivot = prow[col]
        if abs(pivot) <= tol:
            raise RankDeficientError(
                f"no usable pivot in column {col}: system is rank deficient"
            )
        pivots.append(best)
        available.remove(best)
        for r in available:
            row = rows[r]
            f = row[col] = row[col] / pivot
            if f:
                for c in range(col + 1, n):
                    row[c] -= f * prow[c]
    return pivots


def _solve(lu, pivots, rhs) -> list:
    """Approximate x with A x = b for each column b of ``rhs`` (``rhs[p]``
    for row p), A the pivot rows that ``_factor`` factored in ``lu``, by
    forward and back substitution."""
    b = {p: list(rhs[p]) for p in pivots}
    for col, p in enumerate(pivots):
        for q in pivots[col + 1:]:
            f = lu[q][col]
            if f:
                b[q] = [s - f * t for s, t in zip(b[q], b[p])]
    for i in range(len(pivots) - 1, -1, -1):
        row, x = lu[pivots[i]], b[pivots[i]]
        for c in range(len(x)):
            for j in range(i + 1, len(pivots)):
                x[c] -= row[j] * b[pivots[j]][c]
            x[c] /= row[i]
    return [b[p] for p in pivots]


def _factor_rows(jac, n: int) -> tuple:
    """(lu, pivots): ``_factor`` on a copy of every row of the Jacobian
    ``jac``, with the rank tolerance of ``select_square_subsystem``."""
    scale = max(1.0, max(abs(x) for row in jac for x in row))
    lu = {i: list(row) for i, row in enumerate(jac)}
    return lu, _factor(lu, n, _SINGULAR_TOL * scale)


def select_square_subsystem(sys: GluingSystem, shapes=None) -> tuple:
    """n equation indices found by greedy column-by-column pivoting on the
    Jacobian at the (refined or stored) shapes; raises RankDeficientError
    when the system is numerically rank deficient.

    Which rows win pivot ties is a matter of rounding; soundness does not
    depend on it, since the Krawczyk test proves the selected rows and
    ``_check_unselected`` proves every other row exactly.
    """
    return tuple(sorted(_factor_rows(jacobian(sys, shapes), sys.n)[1]))


def _newton_refine(sys: GluingSystem, jac):
    """Plain floating-point Newton polish of the stored shapes on the rows
    that the ``_factor_rows`` of their Jacobian ``jac`` selects, in at
    most ``_NEWTON_STEPS`` steps; returns the best iterate, its residuals
    and the ``_factor_rows`` there.

    Each step substitutes from the ``_factor_rows`` of all rows at its
    point when that selects the same rows, and otherwise factors the
    selected rows alone, in index order.  A pivot row only takes
    multiples of earlier ones, so both run the same float operations on
    the selected rows, and the last point's factorization is returned
    without a second one.

    Keeps the best iterate by residual norm and never returns a point
    whose residual is worse than the input's (preserving the system's
    branch-consistency invariant).
    """
    lu, pivots = factors = _factor_rows(jac, sys.n)
    selected = sorted(pivots)
    z = list(sys.shapes)
    res = sys.stored_residual
    norm = max(abs(r) for r in res)
    for step_no in range(_NEWTON_STEPS):
        if step_no:
            try:
                factors = _factor_rows(jac, sys.n)
            except RankDeficientError:
                factors = None
            if factors and sorted(factors[1]) == selected:
                lu, pivots = factors
            else:
                lu = {i: list(jac[i]) for i in selected}
                try:
                    pivots = _factor(lu, sys.n, 0.0)
                except RankDeficientError:
                    break
        step = _solve(lu, pivots, [[-r] for r in res])
        z_new = [w + s for w, (s,) in zip(z, step)]
        if any(w == 0 or w == 1 for w in z_new):
            break
        res_new = residual(sys, z_new)
        norm_new = max(abs(r) for r in res_new)
        if not norm_new < norm:
            break
        z, res, norm = z_new, res_new, norm_new
        jac, factors = jacobian(sys, z), None
    return tuple(z), res, factors or _factor_rows(jac, sys.n)


def _residual_enclosure(equations, center) -> list:
    """Enclosure (see ``_dot``) of each equation's residual at the point
    ``center``; the logarithms are ``_log_box`` boxes, those of 1 - z
    charged for the rounding of 1 - Re z."""
    boxes = [_log_box(z.real, z.imag, 0.0) for z in center]
    boxes += [_log_box(1.0 - z.real, -z.imag, EPS_PRIM) for z in center]
    boxes.append((0.0, PI_LO, 0.0, PI_HI - PI_LO))  # i*pi
    out = []
    for eq in equations:
        points = (*eq.a, *eq.b, -eq.c)
        out.append(_dot(points, [(l, *x) for l, x in enumerate(boxes) if points[l]]))
    return out


# For k below 2^40, k u (1 + 2^-8) bounds gamma_k = k u / (1 - k u) and
# (1 - u)^-k - 1, u = EPS_PRIM.
_GAMMA_UNIT = EPS_PRIM * (1.0 + 2.0 ** -8)
# A part of an entry of C passes each of its products through at most
# four roundings (the product and three additions): gamma_4.
_C_ERR = 4.001 * EPS_PRIM


def _rounding_count(coefficients) -> int:
    """Roundings on the longest path of a recursive float sum of y_l x_l
    over the nonzero integers x_l (|x_l| <= 2^53): one per addition after
    the first term, and one more when some product can round, that is
    when some |x_l| is not a power of two."""
    nonzero = [abs(x) for x in coefficients if x]
    if not nonzero:
        return 0
    return len(nonzero) - 1 + any(x & (x - 1) for x in nonzero)


def _column_products(equations, y) -> tuple:
    """P = Y A and Q = Y B, where the selected rows' Jacobian is
    F'_lk = a_lk / z_k - b_lk / (1 - z_k), in plain floats with an a priori
    error bound; returns (rows, need_a, need_b).

    ``rows[i]`` lists the columns k where P_ik or Q_ik may be nonzero, and
    k = i, as (k, P, Q, |Re P| + |Im P|, e_P, |Re Q| + |Im Q|, e_Q):
    columns off the blocks of a block-diagonal system have no entry.
    ``need_a[k]`` and ``need_b[k]`` say whether some a_lk or b_lk is
    nonzero, that is whether 1/z_k or 1/(1 - z_k) enters at all.

    Each part of P_ik is the recursive float sum of y_il a_lk over the
    rows l with a_lk != 0 and y_il != 0.  A product of a double with an
    integer rounds by at most u times itself and never underflows (its
    exact value is a multiple of the double's quantum), and not at all
    when |a_lk| is a power of two; the first sum is exact.  So with
    ``_rounding_count`` c of column k, each part is within
    gamma_c sum_l |y_il| |a_lk| (Higham 2002, Sec. 3.1).  The float sum
    s of |Re y_il| + |Im y_il| times |a_lk| passes at most m + 1 roundings
    (m terms) and no underflow, so e_P = c u (1 + 2^-8) s, above
    gamma_c (1 - u)^-(m+1) s, bounds both parts for m < 2^40 once its own
    product is rounded up; ``_row_spread`` counts that rounding, and the
    one of |Re P| + |Im P|, among its own.  Likewise for Q.
    """
    n = len(y)
    terms_a = [[(k, float(a), float(abs(a))) for k, a in enumerate(eq.a) if a]
               for eq in equations]
    terms_b = [[(k, float(b), float(abs(b))) for k, b in enumerate(eq.b) if b]
               for eq in equations]
    cols_a = list(zip(*(eq.a for eq in equations)))
    cols_b = list(zip(*(eq.b for eq in equations)))
    gam_a = [_rounding_count(col) * _GAMMA_UNIT for col in cols_a]
    gam_b = [_rounding_count(col) * _GAMMA_UNIT for col in cols_b]
    rows = []
    for i, y_row in enumerate(y):
        p, q, sp, sq = [0j] * n, [0j] * n, [0.0] * n, [0.0] * n
        for v, row_a, row_b in zip(y_row, terms_a, terms_b):
            if not v:
                continue
            v1 = abs(v.real) + abs(v.imag)
            for k, a, abs_a in row_a:
                p[k] += v * a
                sp[k] += v1 * abs_a
            for k, b, abs_b in row_b:
                q[k] += v * b
                sq[k] += v1 * abs_b
        rows.append([(k, pk, qk, abs(pk.real) + abs(pk.imag), ga * spk,
                      abs(qk.real) + abs(qk.imag), gb * sqk)
                     for k, (pk, qk, ga, spk, gb, sqk)
                     in enumerate(zip(p, q, gam_a, sp, gam_b, sq))
                     if spk or sqk or k == i])
    return rows, [any(col) for col in cols_a], [any(col) for col in cols_b]


def _recip_box(x: float, ex: float, y: float, r: float) -> tuple:
    """(mid, rad): 1/w for every w within ex of x in the real part and r
    of y in the imaginary part lies within rad of the complex mid in each
    part.  ``_recip_scaled`` over the disc of radius ``_radius`` of the
    half-widths."""
    re, im, err, s, _ = _recip_scaled(x, _radius(ex, r), y)
    # s is a power of two, so a part scaled back rounds only in the
    # subnormal range (by TINY / 2), and only when s < 1.
    re, im, rad = re * s, im * s, _up(err * s)
    if s < 1.0 and min(abs(re), abs(im)) < _MIN_NORMAL:
        rad = _up(rad + TINY)
    return complex(re, im), rad


def _jacobian_boxes(center, need_a, need_b, r: float) -> list:
    """Per column k, the boxes ``_recip_box`` of 1/z_k and 1/(1 - z_k)
    over the box of per-real-coordinate radius r around ``center`` (None
    where the column does not need one); the real half-width of 1 - z
    includes the rounding of 1 - Re z."""
    return [(_recip_box(z.real, r, z.imag, r) if use_a else None,
             _recip_box(*_add0(1.0, 0.0, -z.real, r), -z.imag, r) if use_b else None)
            for z, use_a, use_b in zip(center, need_a, need_b)]


def _weights(box) -> tuple:
    """(w, u, v), each rounded up, for the box (w, rho) of a reciprocal W.
    For P within e_P of P~ in each part and W in the box, P W - P~ w has
    |Re| + |Im| at most (|Re P~| + |Im P~|) 2 rho + e_P v, with
    v = 2 (|Re w| + |Im w| + 2 rho); u = 2 rho + gamma_4 (|Re w| + |Im w|)
    adds the charge for the rounding of the entry's midpoint."""
    if box is None:
        return 0j, 0.0, 0.0
    w, rho = box
    w1 = _up(abs(w.real) + abs(w.imag))
    return w, _up(2.0 * rho + _up(_C_ERR * w1)), _up(2.0 * _up(w1 + 2.0 * rho))


def _row_spread(entries, cols, row: int) -> float:
    """Upper bound on sum_k (sup |Re C_k| + sup |Im C_k|) over the box, for
    row ``row`` of C = I - Y F'(X), given the row's ``_column_products``
    entries and the columns' ``_weights`` of 1/z and 1/(1 - z).

    C_k = delta_row,k - P_k R_k + Q_k S_k takes each box once: its float
    midpoint c~, off by at most gamma_4 (the sum of its products'
    magnitudes + delta) plus 3 TINY per part, and the ranges of
    ``_weights``.  Every term of the sum s is a nonnegative float that
    passes at most N = m + 7 roundings (m entries; those of
    |Re P~| + |Im P~| and e_P included), so the exact sum is below
    s (1 + N u (1 + 2^-8)) plus 8 m TINY for the underflow of the products.
    """
    s = _C_ERR  # gamma_4 delta_row,row
    for k, p, q, p1, ep, q1, eq in entries:
        rk, ur, vr, sk, us, vs = cols[k]
        c = q * sk - p * rk
        if k == row:
            c += 1.0
        s += abs(c.real) + abs(c.imag) + p1 * ur + ep * vr + q1 * us + eq * vs
    m = len(entries)
    return _up(_up(s + _up(s * ((m + 7) * _GAMMA_UNIT))) + 8 * m * TINY)


def _row_bound(entries, cols, row: int, yf_row, r: float) -> tuple:
    """Upper bounds on |Re| and |Im| of (K(X) - x^)_row, given what
    ``_row_spread`` takes and (Y F(x^))_row.  (K - x^)_row =
    -(Y F)_row + sum_k C_k w_k with w in [-r, r] + i [-r, r], so each part
    is at most |(Y F)_row| + r sum_k (sup |Re C_k| + sup |Im C_k|)."""
    spread = _up(_row_spread(entries, cols, row) * r)
    f_re, f_im, q_re, q_im = yf_row
    return (_up(_up(abs(f_re) + q_re) + spread),
            _up(_up(abs(f_im) + q_im) + spread))


def _krawczyk_once(center, products, yf, r: float):
    """One Krawczyk contraction test on the per-real-coordinate box of
    radius r around ``center``, given the ``_column_products`` of Y and
    the enclosure of Y F(x^) row by row.

    Returns None when K(X) is provably interior, else why not: the first
    shape whose row of K(X) is not (row i of Y maps the residual to shape
    i), with its margin max|K - x^| / r.
    A NaN bound compares False and so never passes.
    """
    rows, need_a, need_b = products
    try:
        boxes = _jacobian_boxes(center, need_a, need_b, r)
    except JetDomainError as exc:
        return f"the Jacobian over the box cannot be enclosed ({exc})"
    cols = [_weights(rb) + _weights(sb) for rb, sb in boxes]
    for row, entries in enumerate(rows):
        k_re, k_im = _row_bound(entries, cols, row, yf[row], r)
        if not (k_re < r and k_im < r):
            margin = max(k_re, k_im) / r
            return f"shape {row} has max|K-x^|/r = {margin:.6g}"
    return None


def _reduce(row, basis) -> list:
    """``row`` reduced against echelon ``basis`` entries (pivot, row) by
    fraction-free integer elimination; zero exactly when ``row`` is a
    rational combination of the basis rows."""
    for col, b in basis:
        f = row[col]
        if f:
            p = b[col]
            row = [x * p - y * f for x, y in zip(row, b)]
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
    return row


def _check_unselected(sys: GluingSystem, selected) -> None:
    """Prove that every equation outside ``selected`` holds wherever the
    selected ones do: its (a|b) row must be a rational combination of the
    selected rows, and its c the same combination of their c's.  Raises
    UncoveredEquationError otherwise."""
    n = sys.n
    basis = []
    for i in selected:
        eq = sys.equations[i]
        row = _reduce([*eq.a, *eq.b, eq.c], basis)
        pivot = next((j for j in range(2 * n) if row[j]), None)
        if pivot is not None:
            basis.append((pivot, row))
    for i, eq in enumerate(sys.equations):
        if i in selected:
            continue
        row = _reduce([*eq.a, *eq.b, eq.c], basis)
        if any(row[:-1]):
            raise UncoveredEquationError(
                f"equation {i + 1} is independent of the certified equations"
            )
        if row[-1]:
            raise UncoveredEquationError(
                f"equation {i + 1} contradicts the certified equations: its c "
                "is not their combination's"
            )


def krawczyk_certify(sys: GluingSystem, r0: float = None) -> Certificate:
    """Certify that a true solution exists near the stored shapes.

    Radius schedule: r0, 10*r0, 100*r0 (default r0 scales with the shape
    magnitudes).  Raises CertifyError for an r0 that is not positive and
    finite, RankDeficientError when the Jacobian at the stored shapes or at
    the refined center is numerically rank deficient, InconclusiveError
    when 100*r0 overflows or every radius fails, and UncoveredEquationError
    when an equation outside the certified square subsystem does not follow
    from it.
    """
    center, center_residual, (lu, pivots) = _newton_refine(sys, jacobian(sys))
    selected = tuple(sorted(pivots))
    if r0 is None:
        r0 = 1e-10 * max(1.0, max(abs(z) for z in sys.shapes))
    if not 0.0 < r0 < math.inf:
        raise CertifyError("r0 must be positive and finite")
    if r0 * 100.0 == math.inf:
        raise InconclusiveError(f"the radius schedule from r0 = {r0!r} overflows")

    y = _solve(lu, pivots, {i: [float(i == j) for j in selected] for i in selected})
    equations = [sys.equations[i] for i in selected]
    try:
        f_center = _residual_enclosure(equations, center)
    except JetDomainError as exc:
        raise InconclusiveError(
            f"residual at the refined center cannot be enclosed: {exc}"
        ) from None
    f_terms = [(l, *f) for l, f in enumerate(f_center)]
    yf = [_dot(y_row, f_terms) for y_row in y]
    products = _column_products(equations, y)

    for radius in (r0, r0 * 10.0, r0 * 100.0):
        failure = _krawczyk_once(center, products, yf, radius)
        if failure is None:
            break
    else:
        raise InconclusiveError(
            "Krawczyk test failed at every radius in the schedule; at radius "
            f"{radius!r}, {failure}"
        )
    _check_unselected(sys, selected)

    box_radius = _up(radius * SQRT2_HI)
    dist = 0.0
    for z_in, z_ref in zip(sys.shapes, center):
        d = z_in - z_ref
        dist = _up(dist + _up(d.real * d.real) + _up(d.imag * d.imag))
    delta = _up(_up(math.sqrt(dist)) + _up(box_radius * _up(math.sqrt(sys.n))))
    return Certificate(delta, box_radius, selected, center,
                       tuple(abs(r) for r in center_residual), radius)


# ---------------------------------------------------------------------------
# Reference fixture: the figure-eight knot complement
# ---------------------------------------------------------------------------

def figure_eight_system(round_digits: int = None) -> GluingSystem:
    """Two-tetrahedron figure-eight system with exact solution
    z = w = exp(i pi / 3).

    Rows, those of the shipped ``data/fig8.gluing``: the edge equation
    log z + log w + log(1-z) + log(1-w) = 0, its formal negation (a
    genuinely redundant row, as full edge-equation lists always carry
    one), and a completeness-style equation log w + log(1-z) = 0.
    ``round_digits`` rounds the stored shapes to that many decimals to
    mimic a solver's output; at 9 the system is the file's.
    """
    z = complex(0.5, math.sqrt(3.0) / 2.0)
    if round_digits is not None:
        z = complex(round(z.real, round_digits), round(z.imag, round_digits))
    eqs = smallvol.formats.parse_gluing(smallvol.data.figure_eight_text()).equations
    return GluingSystem(eqs, (z, z))
