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

The test's three sums, the residual F(x^), Y F(x^) and I - Y F'(X)
over the Jacobian's nonzero entries, run on one plain-float
midpoint-radius kernel, ``_dot``, with a priori rounding bounds.  Its
inputs are plain-float boxes as well: each logarithm in F(x^) takes one
libm log and one atan at a point, with mean-value bounds for the
rounding (``_log_box``), and each reciprocal in F'(X) takes the
dimension-0 pair operations of the jet classes (``_recip_box``).  All
three live in the point layer, ``points``, so certification loads
neither ``jets`` nor ``geometry``.  The approximate quantities (the
selected rows, the Newton steps and Y) all come from one Gaussian
elimination with partial pivoting in plain complex floats,
``_eliminate``; their values need not be accurate for soundness.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .points import _add0, _dot, _log_box, _recip_box
from .rounding import EPS_PRIM, PI_HI, PI_LO, SQRT2_HI, JetDomainError, _up

_SINGULAR_TOL = 1e-13


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


@dataclass(frozen=True)
class GluingEquation:
    a: tuple
    b: tuple
    c: int

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))
        object.__setattr__(self, "c", int(self.c))
        if any(abs(x) > 2 ** 53 for x in (*self.a, *self.b, self.c)):
            raise CertifyError("coefficients must not exceed 2^53 in magnitude")
        if len(self.a) != len(self.b):
            raise CertifyError("coefficient rows a and b must have equal length")


@dataclass(frozen=True)
class GluingSystem:
    """Integer-coefficient logarithmic equations plus approximate shapes."""

    equations: tuple
    shapes: tuple
    # residual(self) at ``shapes``, kept from the branch screen for Newton.
    _stored_residual: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        object.__setattr__(self, "shapes", tuple(complex(z) for z in self.shapes))
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
        object.__setattr__(self, "_stored_residual", res)

    @property
    def n(self) -> int:
        return len(self.shapes)


@dataclass(frozen=True)
class Certificate:
    """Verified existence record for a gluing-equation solution.

    A true solution of the whole system lies within ``radius`` of
    ``refined_center`` in each real coordinate, hence within
    ``box_radius`` in each complex coordinate, and within ``delta`` of
    the system's input shapes in the C^n 2-norm.  ``radius`` defaults
    to ``box_radius``, which bounds each real coordinate as well.
    """

    delta: float
    box_radius: float
    selected: tuple
    refined_center: tuple
    residual_norms: tuple  # per-equation |residual| at the refined center
    radius: float = None

    def __post_init__(self):
        if self.radius is None:
            object.__setattr__(self, "radius", self.box_radius)
        if self.delta < self.box_radius:
            raise CertifyError("delta must dominate the box radius")
        if not 0.0 <= self.radius <= self.box_radius:
            raise CertifyError("the per-coordinate radius must lie in [0, box_radius]")
        if len(set(self.selected)) != len(self.selected):
            raise CertifyError("selected equation indices must be distinct")

    def shape_assignment(self):
        """The certified box as input to the volume stage, a
        ``geometry.ShapeAssignment``."""
        from .geometry import ShapeAssignment  # the volume stage only

        return ShapeAssignment(self.refined_center, self.radius)


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
    """m x n partials as a list of rows: d/dz_j = a_j / z_j - b_j / (1 - z_j)."""
    zs = sys.shapes if shapes is None else [complex(z) for z in shapes]
    for z in zs:
        if z == 0 or z == 1:
            raise CertifyError("jacobian evaluated at a singular shape")
    return [[eq.a[j] / z - eq.b[j] / (1 - z) for j, z in enumerate(zs)]
            for eq in sys.equations]


def _eliminate(rows, n: int, tol: float) -> list:
    """Forward Gaussian elimination with partial pivoting on the first n
    columns of ``rows``, in place; returns the pivot row of each column.
    Raises RankDeficientError when the best remaining pivot has modulus
    at most ``tol``."""
    available = list(range(len(rows)))
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
            f = row[col] / pivot
            if f:
                for c in range(col + 1, len(row)):
                    row[c] -= f * prow[c]
    return pivots


def _solve(a, rhs) -> list:
    """Approximate solution of a x = rhs (one right-hand side per column of
    the row list ``rhs``).  Raises RankDeficientError when a pivot is
    exactly zero."""
    n = len(a)
    rows = [list(ar) + list(br) for ar, br in zip(a, rhs)]
    pivots = _eliminate(rows, n, 0.0)
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


def select_square_subsystem(sys: GluingSystem, shapes=None) -> tuple:
    """n equation indices found by greedy column-by-column pivoting on the
    Jacobian at the (refined or stored) shapes; raises RankDeficientError
    when the system is numerically rank deficient.

    Which rows win pivot ties is a matter of rounding; soundness does not
    depend on it, since the Krawczyk test proves the selected rows and
    ``_check_unselected`` proves every other row exactly.
    """
    work = jacobian(sys, shapes)
    scale = max(1.0, max(abs(x) for row in work for x in row))
    return tuple(sorted(_eliminate(work, sys.n, _SINGULAR_TOL * scale)))


def _newton_refine(sys: GluingSystem, selected, max_steps: int = 5):
    """Plain floating-point Newton polish of the stored shapes; returns
    the best iterate and its residuals.

    Keeps the best iterate by residual norm and never returns a point
    whose residual is worse than the input's (preserving the system's
    branch-consistency invariant).
    """
    z = list(sys.shapes)
    res = sys._stored_residual
    norm = max(abs(r) for r in res)
    for _ in range(max_steps):
        jac = jacobian(sys, z)
        try:
            step = _solve([jac[i] for i in selected], [[-res[i]] for i in selected])
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
    return tuple(z), res


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


def _jacobian_columns(equations, center, r: float) -> list:
    """Interval Jacobian of ``equations`` over the box of per-real-coordinate
    radius r around ``center``, as one list per column of its nonzero
    entries (row, mid_re, mid_im, rad_re, rad_im).  Entry (l, k) is
    a_lk / z_k - b_lk / (1 - z_k); the reciprocals are ``_recip_box``
    boxes, computed once per column and only when some row needs them."""
    cols = []
    zero = (0.0, 0.0, 0.0, 0.0)
    for k, z in enumerate(center):
        x, y = z.real, z.imag
        a = [eq.a[k] for eq in equations]
        b = [-eq.b[k] for eq in equations]
        recips = ((0, *(_recip_box(x, r, y, r) if any(a) else zero)),
                  (1, *(_recip_box(*_add0(1.0, 0.0, -x, r), *_add0(0.0, 0.0, -y, r))
                        if any(b) else zero)))
        cols.append([(l, *_dot((al, bl), recips))
                     for l, (al, bl) in enumerate(zip(a, b)) if al or bl])
    return cols


def _k_row_bound(points, cols, row: int, yf_row, r: float) -> tuple:
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


def _krawczyk_once(sys: GluingSystem, center, selected, y, yf, r: float):
    """One Krawczyk contraction test on the per-real-coordinate box of
    radius r around ``center``, given Y as rows of complex floats and the
    enclosure of Y F(x^) row by row.

    Returns None when K(X) is provably interior, else why not: the first
    equation whose row of K(X) is not, with its margin max|K - x^| / r.
    A NaN bound compares False and so never passes.
    """
    try:
        cols = _jacobian_columns([sys.equations[i] for i in selected], center, r)
    except JetDomainError as exc:
        return f"the Jacobian over the box cannot be enclosed ({exc})"
    for row, y_row in enumerate(y):
        k_re, k_im = _k_row_bound([-v for v in y_row] + [1], cols, row, yf[row], r)
        if not (k_re < r and k_im < r):
            margin = max(k_re, k_im) / r
            return f"equation {selected[row] + 1} has max|K-x^|/r = {margin:.6g}"
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
    magnitudes).  Raises InconclusiveError when every radius fails, and
    UncoveredEquationError when an equation outside the certified square
    subsystem does not follow from it.
    """
    selected = select_square_subsystem(sys)
    center, center_residual = _newton_refine(sys, selected)
    selected = select_square_subsystem(sys, center)
    if r0 is None:
        r0 = 1e-10 * max(1.0, max(abs(z) for z in sys.shapes))
    if not r0 > 0.0:
        raise CertifyError("r0 must be positive")

    n = sys.n
    jac = jacobian(sys, center)
    identity = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    try:
        y = _solve([jac[i] for i in selected], identity)
    except RankDeficientError:
        raise InconclusiveError(
            "Jacobian at the refined center is singular"
        ) from None
    try:
        f_center = _residual_enclosure([sys.equations[i] for i in selected], center)
    except JetDomainError as exc:
        raise InconclusiveError(
            f"residual at the refined center cannot be enclosed: {exc}"
        ) from None
    f_terms = [(l, *f) for l, f in enumerate(f_center)]
    yf = [_dot(y_row, f_terms) for y_row in y]

    for radius in (r0, r0 * 10.0, r0 * 100.0):
        failure = _krawczyk_once(sys, center, selected, y, yf, radius)
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
    dist = _up(math.sqrt(dist))
    sqrt_n = _up(math.sqrt(n))
    delta = _up(dist + _up(box_radius * sqrt_n))
    norms = tuple(abs(r) for r in center_residual)
    return Certificate(
        delta=delta,
        box_radius=box_radius,
        selected=selected,
        refined_center=center,
        residual_norms=norms,
        radius=radius,
    )


# ---------------------------------------------------------------------------
# Reference fixture: the figure-eight knot complement
# ---------------------------------------------------------------------------

def figure_eight_system(round_digits: int = None) -> GluingSystem:
    """Two-tetrahedron figure-eight system with exact solution
    z = w = exp(i pi / 3).

    Rows: the edge equation log z + log w + log(1-z) + log(1-w) = 0, its
    formal negation (a genuinely redundant row, as full edge-equation
    lists always carry one), and a completeness-style equation
    log w + log(1-z) = 0.  ``round_digits`` rounds the stored shapes to
    that many decimals to mimic a solver's output.
    """
    z = complex(0.5, math.sqrt(3.0) / 2.0)
    if round_digits is not None:
        z = complex(round(z.real, round_digits), round(z.imag, round_digits))
    eqs = (
        GluingEquation((1, 1), (1, 1), 0),
        GluingEquation((-1, -1), (-1, -1), 0),
        GluingEquation((0, 1), (1, 0), 0),
    )
    return GluingSystem(eqs, (z, z))
