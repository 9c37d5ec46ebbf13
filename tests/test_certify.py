import cmath
import math
import random
import re

import mpmath
import pytest

from smallvol.certify import (
    BranchConsistencyError,
    Certificate,
    CertifyError,
    GluingEquation,
    GluingSystem,
    InconclusiveError,
    RankDeficientError,
    UncoveredEquationError,
    _eliminate,
    figure_eight_system,
    jacobian,
    krawczyk_certify,
    residual,
    select_square_subsystem,
)
from smallvol.geometry import ShapeAssignment, certified_volume

OMEGA = complex(0.5, math.sqrt(3) / 2)


def one_dim_system(offset=0.0):
    # 3 log z - i pi = 0 has the exact root exp(i pi / 3).
    z = OMEGA + offset
    return GluingSystem((GluingEquation((3,), (0,), 1),), (z,))


class TestGluingSystem:
    def test_figure_eight_residuals_tiny(self):
        sys = figure_eight_system()
        assert all(abs(r) < 1e-12 for r in residual(sys))

    def test_figure_eight_rounded_residuals(self):
        sys = figure_eight_system(round_digits=9)
        assert all(abs(r) < 1e-7 for r in residual(sys))

    def test_exact_root_one_dim(self):
        sys = one_dim_system()
        assert abs(residual(sys)[0]) < 1e-15

    def test_residual_away_from_root(self):
        sys = figure_eight_system()
        rs = residual(sys, [0.5 + 0.9j, 0.5 + 0.9j])
        assert any(abs(r) > 1e-3 for r in rs)

    def test_branch_consistency_enforced(self):
        eqs = (
            GluingEquation((1, 1), (1, 1), 0),
            GluingEquation((-1, -1), (-1, -1), 0),
            GluingEquation((0, 1), (1, 0), 0),
        )
        with pytest.raises(BranchConsistencyError):
            GluingSystem(eqs, (OMEGA + 0.5, OMEGA + 0.5))

    def test_needs_enough_equations(self):
        with pytest.raises(CertifyError):
            GluingSystem((GluingEquation((1, 0), (0, 0), 0),), (OMEGA, OMEGA))


class TestJacobian:
    def test_one_equation_log_derivative(self):
        # d/dz of a log z is a / z; with a=1 at z=e^{i pi/3} this is e^{-i pi/3}.
        sys = GluingSystem(
            (GluingEquation((1,), (0,), 0),), (cmath.exp(0.1j),)
        )
        jac = jacobian(sys, [OMEGA])
        assert abs(jac[0][0] - cmath.exp(-1j * math.pi / 3)) < 1e-14

    def test_one_minus_z_derivative_sign(self):
        # equation log(1-z): derivative -1/(1-z) = -2 at z = 0.5 + tiny imag
        sys = GluingSystem(
            (GluingEquation((0,), (1,), 0),), (0.1 + 0.1j,)
        )
        jac = jacobian(sys, [0.5 + 0j])
        assert abs(jac[0][0] - (-2.0)) < 1e-14

    def test_figure_eight_matches_finite_differences(self):
        sys = figure_eight_system()
        _check_fd(sys, sys.shapes, 1e-6)

    def test_random_systems_match_finite_differences(self):
        rng = random.Random(77)
        for _ in range(50):
            n = rng.randint(1, 4)
            shapes = [
                complex(rng.uniform(-1.2, 2.2), rng.uniform(0.3, 1.4))
                for _ in range(n)
            ]
            eqs = []
            for _ in range(n + rng.randint(0, 2)):
                a = [rng.randint(-2, 2) for _ in range(n)]
                b = [rng.randint(-2, 2) for _ in range(n)]
                eqs.append(GluingEquation(a, b, 0))
            sys = GluingSystem.__new__(GluingSystem)
            object.__setattr__(sys, "equations", tuple(eqs))
            object.__setattr__(sys, "shapes", tuple(shapes))
            _check_fd(sys, shapes, 1e-5)


def _check_fd(sys, shapes, rtol):
    h = 1e-6
    jac = jacobian(sys, shapes)
    scale = max(1.0, max(abs(x) for row in jac for x in row))
    for j in range(len(shapes)):
        zp = list(shapes)
        zm = list(shapes)
        zp[j] = zp[j] + h
        zm[j] = zm[j] - h
        fd = [(rp - rm) / (2 * h) for rp, rm in zip(residual(sys, zp), residual(sys, zm))]
        for i in range(len(sys.equations)):
            assert abs(jac[i][j] - fd[i]) <= rtol * scale


class TestSelection:
    def test_square_system_identity(self):
        sys = figure_eight_system()
        sub = GluingSystem(sys.equations[::2], sys.shapes)  # rows 0 and 2
        assert select_square_subsystem(sub) == (0, 1)

    def test_duplicate_row_never_selected_twice(self):
        sys = figure_eight_system()
        eqs = sys.equations + (sys.equations[0],)
        dup = GluingSystem(eqs, sys.shapes)
        sel = select_square_subsystem(dup)
        assert len(set(sel)) == 2
        chosen = [frozenset([eqs[i].a, eqs[i].b]) for i in sel]
        assert chosen[0] != chosen[1]

    def test_redundant_row_skipped(self):
        # rows 0 and 1 of the figure-eight system are negations of each other
        sys = figure_eight_system()
        sel = select_square_subsystem(sys)
        assert 2 in sel  # the completeness row is forced in

    def test_rank_deficient_detected(self):
        eqs = (
            GluingEquation((1, 1), (1, 1), 0),
            GluingEquation((-1, -1), (-1, -1), 0),
            GluingEquation((2, 2), (2, 2), 0),
        )
        sys = GluingSystem.__new__(GluingSystem)
        object.__setattr__(sys, "equations", eqs)
        object.__setattr__(sys, "shapes", (OMEGA, OMEGA))
        with pytest.raises(RankDeficientError):
            select_square_subsystem(sys)

    def test_exactly_zero_pivot(self):
        # Rows 0 and 1 are proportional, so column 1 is left with only zeros.
        rows = [[1j, 2.0], [2j, 4.0], [0j, 0j]]
        with pytest.raises(RankDeficientError):
            _eliminate(rows, 2, 0.0)

    def test_row_mixed_figure_eight_copies(self):
        # k = 4 disjoint figure-eight copies, mixed by unimodular row
        # operations row_i += +-row_j, so every Jacobian column is dense.
        rng = random.Random(20261018)
        k = 4
        n = 2 * k
        rows = []
        for c in range(k):
            for eq in figure_eight_system().equations:
                a, b = [0] * n, [0] * n
                a[2 * c:2 * c + 2], b[2 * c:2 * c + 2] = eq.a, eq.b
                rows.append((a, b))
        for _ in range(2 * len(rows)):
            i, j = rng.sample(range(len(rows)), 2)
            t = rng.choice((-1, 1))
            rows[i] = ([x + t * y for x, y in zip(rows[i][0], rows[j][0])],
                       [x + t * y for x, y in zip(rows[i][1], rows[j][1])])
        shapes = [OMEGA + 1e-10 * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
                  for _ in range(n)]
        sys = GluingSystem(tuple(GluingEquation(a, b, 0) for a, b in rows), shapes)
        cert = krawczyk_certify(sys)
        assert len(cert.selected) == n
        iv = certified_volume(cert.shape_assignment())
        assert iv.lo <= k * 2.0298832128193072 <= iv.hi


class TestKrawczyk:
    def test_one_dim_near_root(self):
        cert = krawczyk_certify(one_dim_system(offset=1e-10))
        assert cert.delta <= 1e-8
        with mpmath.workdps(50):
            root = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi / 3)
            c = mpmath.mpc(cert.refined_center[0])
            assert abs(c - root) <= cert.box_radius

    def test_figure_eight_rounded(self):
        sys = figure_eight_system(round_digits=9)
        cert = krawczyk_certify(sys)
        assert cert.delta < 1e-8
        assert len(cert.selected) == 2
        assert cert.delta >= cert.box_radius

    def test_perturbed_system_fails_branch_consistency(self):
        with pytest.raises(BranchConsistencyError):
            figure_eight_perturbed = GluingSystem(
                figure_eight_system().equations,
                (OMEGA + 0.5, OMEGA + 0.5),
            )

    def test_refinement_does_not_worsen_residuals(self):
        sys = figure_eight_system(round_digits=6)
        cert = krawczyk_certify(sys)
        before = max(abs(r) for r in residual(sys))
        assert max(cert.residual_norms) <= before

    def test_delta_monotone_in_input_quality(self):
        loose = krawczyk_certify(figure_eight_system(round_digits=6))
        tight = krawczyk_certify(figure_eight_system(round_digits=9))
        assert tight.delta <= loose.delta

    def test_newton_soundness_spot_check(self):
        """50-digit Newton from the refined center stays within box_radius."""
        for sys in (one_dim_system(offset=1e-10),
                    figure_eight_system(round_digits=9)):
            cert = krawczyk_certify(sys)
            idx = list(cert.selected)
            with mpmath.workdps(50):
                z = [mpmath.mpc(c) for c in cert.refined_center]
                start = list(z)
                for _ in range(20):
                    f = mpmath.matrix(
                        [_mp_residual(sys.equations[i], z) for i in idx]
                    )
                    jac = mpmath.matrix(
                        [
                            [_mp_dres(sys.equations[i], z, j) for j in range(sys.n)]
                            for i in idx
                        ]
                    )
                    step = mpmath.lu_solve(jac, -f)
                    z = [zi + si for zi, si in zip(z, step)]
                for zi, si in zip(z, start):
                    assert abs(zi - si) <= cert.box_radius
                f_final = max(
                    abs(_mp_residual(sys.equations[i], z)) for i in idx
                )
                assert f_final < mpmath.mpf("1e-40")

    def test_certificate_invariants(self):
        with pytest.raises(CertifyError):
            Certificate(1e-10, 1e-8, (0, 1), (OMEGA, OMEGA), (0.0,))
        with pytest.raises(CertifyError):
            Certificate(1e-6, 1e-8, (0, 0), (OMEGA, OMEGA), (0.0,))
        with pytest.raises(CertifyError):
            Certificate(1e-6, 1e-8, (0, 1), (OMEGA, OMEGA), (0.0,), 2e-8)
        assert Certificate(1e-6, 1e-8, (0, 1), (OMEGA, OMEGA), (0.0,)).radius == 1e-8

    def test_shape_assignment_is_the_krawczyk_box(self):
        sys = figure_eight_system(round_digits=9)
        cert = krawczyk_certify(sys)
        shapes = cert.shape_assignment()
        assert shapes.shapes == cert.refined_center
        assert shapes.delta == cert.radius
        assert cert.radius * math.sqrt(2) <= cert.box_radius
        # The box is sqrt(2n) tighter than the per-coordinate radius that
        # box_radius * sqrt(n) used to give; the enclosure stays sound (the
        # volume is stationary here, so rounding dominates both widths).
        wide = certified_volume(ShapeAssignment(cert.refined_center,
                                                cert.box_radius * math.sqrt(sys.n)))
        iv = certified_volume(shapes)
        assert iv.lo <= 2.0298832128193072 <= iv.hi
        assert iv.width() <= wide.width()

    def test_inconclusive_names_row_and_margin(self):
        # Radii far below the residual's rounding error cannot contract.
        sys = figure_eight_system(round_digits=9)
        with pytest.raises(InconclusiveError) as info:
            krawczyk_certify(sys, r0=1e-20)
        msg = str(info.value)
        m = re.search(r"at radius (\S+), equation (\d+) has max\|K-x\^\|/r = (\S+)", msg)
        assert m, msg
        assert float(m.group(1)) == 1e-20 * 100.0
        assert int(m.group(2)) in (i + 1 for i in select_square_subsystem(sys))
        assert float(m.group(3)) >= 1.0


class TestCoverage:
    """Rows outside the certified square subsystem must follow from it."""

    def test_independent_row_rejected(self):
        # Two tetrahedra, three independent rows: the third row is 0.069
        # away from zero at the root of the first two.
        sys = GluingSystem(
            (GluingEquation((4, 0), (1, 0), 0),
             GluingEquation((0, 5), (0, 1), 0),
             GluingEquation((1, -1), (0, 0), 0)),
            (complex(1.0783889326367355, 0.49693966514745314),
             complex(1.1051187767098094, 0.42001975655938323)),
        )
        with pytest.raises(UncoveredEquationError, match="equation 3 is independent"):
            krawczyk_certify(sys)

    def test_inconsistent_constant_rejected(self):
        # log z = (1/7)(7 log z - i pi) + i pi/7: the (a|b) rows agree up
        # to the factor 1/7 but the constants do not, and the residual
        # pi/7 still passes the branch-consistency screen.
        z = cmath.exp(1j * math.pi / 7)
        sys = GluingSystem((GluingEquation((7,), (0,), 1),
                            GluingEquation((1,), (0,), 0)), (z,))
        with pytest.raises(UncoveredEquationError, match="equation 2 contradicts"):
            krawczyk_certify(sys)

    def test_rational_combinations_accepted(self):
        fig8 = figure_eight_system(round_digits=9)
        e0, _, e2 = fig8.equations
        extra = (GluingEquation([x + 2 * y for x, y in zip(e0.a, e2.a)],
                                [x + 2 * y for x, y in zip(e0.b, e2.b)], 0),
                 GluingEquation([-3 * y for y in e2.a], [-3 * y for y in e2.b], 0))
        sys = GluingSystem(fig8.equations + extra, fig8.shapes)
        # The larger extra rows are selected, so the original three follow
        # from them only with fractional coefficients (row 3 = -row 5 / 3).
        assert krawczyk_certify(sys).selected == (3, 4)


def _mp_residual(eq, z, _ipi=None):
    v = mpmath.mpc(0)
    for aj, bj, zj in zip(eq.a, eq.b, z):
        if aj:
            v += aj * mpmath.log(zj)
        if bj:
            v += bj * mpmath.log(1 - zj)
    return v - eq.c * mpmath.mpc(0, 1) * mpmath.pi


def _mp_dres(eq, z, j):
    return eq.a[j] / z[j] - eq.b[j] / (1 - z[j])
