import cmath
import hashlib
import math
import random
import re
import types
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv
from mpmath.libmp import to_rational

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
    _k_row_bound,
    _krawczyk_once,
    figure_eight_system,
    jacobian,
    krawczyk_certify,
    residual,
    select_square_subsystem,
)
from smallvol.geometry import ShapeAssignment, certified_volume
from smallvol.jets import ComplexJet, Jet, JetError, complex_log_jet
from smallvol.points import _add0, _dot, _log_box, _recip_box
from smallvol.rounding import EPS_PRIM

OMEGA = complex(0.5, math.sqrt(3) / 2)


def one_dim_system(offset=0.0):
    # 3 log z - i pi = 0 has the exact root exp(i pi / 3).
    z = OMEGA + offset
    return GluingSystem((GluingEquation((3,), (0,), 1),), (z,))


def _copies(k, rng=None):
    """Rows (a, b) of k disjoint figure-eight copies; with ``rng``, mixed
    by unimodular row operations row_i += +-row_j so every Jacobian column
    is dense."""
    n = 2 * k
    rows = []
    for c in range(k):
        for eq in figure_eight_system().equations:
            a, b = [0] * n, [0] * n
            a[2 * c:2 * c + 2], b[2 * c:2 * c + 2] = eq.a, eq.b
            rows.append((a, b))
    if rng is not None:
        for _ in range(2 * len(rows)):
            i, j = rng.sample(range(len(rows)), 2)
            t = rng.choice((-1, 1))
            rows[i] = ([x + t * y for x, y in zip(rows[i][0], rows[j][0])],
                       [x + t * y for x, y in zip(rows[i][1], rows[j][1])])
    return rows


def mixed_figure_eight(k, rng):
    """k row-mixed figure-eight copies (``_copies``), with the shapes 1e-10
    away from the exact root."""
    rows = _copies(k, rng)
    shapes = [OMEGA + 1e-10 * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
              for _ in range(2 * k)]
    return GluingSystem(tuple(GluingEquation(a, b, 0) for a, b in rows), shapes)


def census_system(k, mixed, seed):
    """k figure-eight copies, block-diagonal or row-mixed, each shape
    2^-40 to 2^-27 away from the root; the shapes need no libm."""
    rng = random.Random(seed)
    rows = _copies(k, rng if mixed else None)
    shapes = [OMEGA + complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
              * 2.0 ** -rng.randint(27, 40) for _ in range(2 * k)]
    return GluingSystem(tuple(GluingEquation(a, b, 0) for a, b in rows), shapes)


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

    def test_coefficients_exact_in_binary64(self):
        GluingEquation((2 ** 53,), (-2 ** 53,), 2 ** 53)
        for a, c in ((2 ** 53 + 1, 0), (1, -2 ** 53 - 1), (10 ** 400, 0)):
            with pytest.raises(CertifyError, match="2\\^53"):
                GluingEquation((a,), (0,), c)

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
        k = 4
        n = 2 * k
        sys = mixed_figure_eight(k, random.Random(20261018))
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


# Certificates of census-style systems, captured with the Krawczyk test on
# dimension-0 jets: (k, mixed, seed) -> delta, box_radius, radius (hex),
# selected, max residual (hex), and a digest of the refined center's hex.
CERTIFICATE_PINS = (
    ((1, False, 1),
     ('0x1.bdf4dbdde5c1cp-33', '0x1.36fd255a22a6bp-33', '0x1.b7cdfd9d7cab6p-34',
      (0, 2), '0x1.007fe00ff6070p-52', 'ff039f5e864259eb')),
    ((1, True, 2),
     ('0x1.f7ac194404c9dp-32', '0x1.36fd255b66b47p-33', '0x1.b7cdfd9f46f36p-34',
      (0, 1), '0x1.007fe00ff6070p-52', '04f711e8e4e4a6a5')),
    ((1, True, 3),
     ('0x1.ea22934f5c525p-33', '0x1.36fd255a4019dp-33', '0x1.b7cdfd9da6515p-34',
      (1, 2), '0x1.04760c95db310p-49', '552709feb4809cb1')),
    ((2, False, 4),
     ('0x1.b7cefa14b69aap-28', '0x1.36fd255a2398ep-33', '0x1.b7cdfd9d7e01ep-34',
      (0, 2, 3, 5), '0x1.0c3578c15393ep-52', 'ad21c7b5f89649db')),
    ((2, True, 5),
     ('0x1.8a30d9a1c231dp-29', '0x1.36fd255fe79f7p-33', '0x1.b7cdfda5a56c3p-34',
      (0, 2, 4, 5), '0x1.597c33d892cf0p-51', 'cfb754af8d2909d9')),
    ((2, True, 6),
     ('0x1.3a0dab3a6e692p-30', '0x1.36fd255d1265bp-33', '0x1.b7cdfda1a3cc9p-34',
      (0, 1, 3, 5), '0x1.36a9ef26f7629p-51', 'c05369a2ff89a28f')),
    ((4, False, 7),
     ('0x1.662a6b5d3bd9cp-28', '0x1.36fd2564cc9e0p-33', '0x1.b7cdfdac916cap-34',
      (0, 2, 3, 5, 6, 8, 9, 11), '0x1.176d9090c79a9p-52', '6dfca6d91a6eead0')),
    ((4, True, 8),
     ('0x1.2ebe23c2459e1p-29', '0x1.36fd255ababdap-33', '0x1.b7cdfd9e53c1bp-34',
      (3, 4, 5, 6, 7, 9, 10, 11), '0x1.45938fbb51fd5p-50', '00cbf4437a499a6f')),
    ((4, True, 9),
     ('0x1.4873b6caafd0dp-27', '0x1.36fd257a03c48p-33', '0x1.b7cdfdca923b2p-34',
      (0, 1, 3, 4, 5, 8, 10, 11), '0x1.49d93405be836p-50', '12508bf43a60c219')),
    ((8, False, 10),
     ('0x1.267fc27979800p-27', '0x1.36fd255fdc7aep-33', '0x1.b7cdfda595aa1p-34',
      (0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23), '0x1.176d9090c79a8p-52', 'd63559866274fa79')),
    ((8, True, 11),
     ('0x1.b6080337d1ee1p-28', '0x1.36fd2568f9484p-33', '0x1.b7cdfdb278bebp-34',
      (0, 1, 2, 5, 7, 9, 11, 12, 13, 14, 15, 18, 20, 21, 22, 23), '0x1.1451937b0e741p-51', '9e4cc3339afbe920')),
    ((8, True, 12),
     ('0x1.24357af8f2803p-27', '0x1.36fd255c340e6p-33', '0x1.b7cdfda0695c7p-34',
      (0, 2, 4, 6, 7, 8, 9, 10, 11, 14, 15, 16, 18, 19, 20, 22), '0x1.01c0772f5172ep-49', '874df37506f0164e')),
)


class TestCertificatePins:
    @pytest.mark.parametrize("case, pin", CERTIFICATE_PINS)
    def test_certificate_bits(self, case, pin):
        cert = krawczyk_certify(census_system(*case))
        centre = repr([(z.real.hex(), z.imag.hex()) for z in cert.refined_center])
        assert (cert.delta.hex(), cert.box_radius.hex(), cert.radius.hex(), cert.selected,
                max(cert.residual_norms).hex(),
                hashlib.sha256(centre.encode()).hexdigest()[:16]) == pin

    def test_residual_on_the_branch_cut_is_refused(self):
        sys = GluingSystem((GluingEquation((1,), (0,), 1),), (complex(-1.0, 0.0),))
        with pytest.raises(InconclusiveError) as info:
            krawczyk_certify(sys)
        assert str(info.value) == (
            "residual at the refined center cannot be enclosed: argument: "
            "quadrant not provable (origin or branch cut)")

    def test_residuals_evaluated_once_per_point(self, monkeypatch):
        import smallvol.certify as certify

        template = census_system(2, True, 5)
        points = []

        def counted(system, shapes=None):
            points.append(tuple(system.shapes if shapes is None else shapes))
            return residual(system, shapes)

        # Counted from construction on: Newton starts from the residual
        # that the branch screen computed at the stored shapes.
        monkeypatch.setattr(certify, "residual", counted)
        sys = GluingSystem(template.equations, template.shapes)
        cert = krawczyk_certify(sys)
        assert len(points) == len(set(points)) >= 2
        assert points[0] == sys.shapes and cert.refined_center in points


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


def _exact(x):
    """Exact rational bounds of an mpmath interval."""
    return tuple(Fraction(*to_rational(e)) for e in x._mpi_)


def _inside(mid, rad, x):
    """[mid - rad, mid + rad] contains the interval x, compared exactly."""
    lo, hi = _exact(x)
    return Fraction(mid) - Fraction(rad) <= lo and hi <= Fraction(mid) + Fraction(rad)


def _iv_box(m_re, m_im, p_re, p_im):
    return (iv.mpf(m_re) + iv.mpf([-p_re, p_re]), iv.mpf(m_im) + iv.mpf([-p_im, p_im]))


def _iv_dot(points, terms):
    """sum_l points[l] * X_l in 50-digit interval arithmetic."""
    re = im = iv.mpf(0)
    for l, *box in terms:
        y = complex(points[l])
        a, b = iv.mpf(y.real), iv.mpf(y.imag)
        x_re, x_im = _iv_box(*box)
        re += a * x_re - b * x_im
        im += a * x_im + b * x_re
    return re, im


@pytest.fixture
def iv50():
    prec = iv.prec
    iv.dps = 50
    yield
    iv.prec = prec


def _magnitude(rng, exponent):
    x = rng.uniform(1.0, 10.0) * 10.0 ** exponent
    return -x if rng.random() < 0.5 else x


def _random_dot_case(rng):
    """Points (complex or integer) and midpoint-radius terms with products
    from 1e-340 (underflowing) to 1e300, subnormal entries, zero
    midpoints, and pairs of terms that cancel to within a few ulps."""
    n_terms = rng.randint(1, 16)
    tiny_case = rng.random() < 0.15  # every product near or below 1e-308
    points, terms = [], []
    for _ in range(n_terms):
        total = rng.uniform(-330.0, -300.0) if tiny_case else rng.uniform(-340.0, 300.0)
        e_y = rng.uniform(max(-300.0, total - 300.0), min(300.0, total + 300.0))
        kind = rng.random()
        if kind < 0.25:
            y = rng.choice((1, -1, 2, -3, 7, rng.randint(-2 ** 53, 2 ** 53) or 1))
            e_y = math.log10(abs(y))
        elif kind < 0.35:
            y = complex(rng.randint(-9, 9) * 5e-324, _magnitude(rng, e_y))
        else:
            y = complex(_magnitude(rng, e_y), _magnitude(rng, e_y - rng.uniform(0, 20)))
        e_x = max(-300.0, total - e_y)
        m_re, m_im = _magnitude(rng, e_x), _magnitude(rng, e_x + rng.uniform(-20, 0))
        if rng.random() < 0.1:
            m_im = rng.randint(-9, 9) * 5e-324
        if rng.random() < 0.1:  # radius only: the radius sum's rounding shows
            m_re = m_im = 0.0
        p_re = 0.0 if rng.random() < 0.3 else abs(_magnitude(rng, e_x - rng.uniform(0, 18)))
        p_im = 0.0 if rng.random() < 0.3 else abs(_magnitude(rng, e_x - rng.uniform(0, 18)))
        terms.append((len(points), m_re, m_im, p_re, p_im))
        points.append(y)
        if rng.random() < 0.3:  # a cancelling partner
            shift = 1.0 + rng.randint(-4, 4) * 2.0 ** -52
            terms.append((len(points), m_re * shift, m_im, p_re, p_im))
            points.append(-y)
    return points, terms


class TestDot:
    """The float midpoint-radius kernel of the Krawczyk test against
    50-digit interval arithmetic, compared exactly."""

    def test_contains_interval_oracle(self, iv50):
        rng = random.Random(6061)
        # 0.5 * 3 * 5e-324 is a tie in the subnormal range and rounds up to
        # 2 * 5e-324, so 32 such products sum 16 quanta above the truth.
        ties = ([0.5] * 32, [(l, 1.5e-323, 1.5e-323, 0.0, 0.0) for l in range(32)])
        for points, terms in [ties] + [_random_dot_case(rng) for _ in range(3000)]:
            m_re, m_im, r_re, r_im = _dot(points, terms)
            re, im = _iv_dot(points, terms)
            assert _inside(m_re, r_re, re), (points, terms)
            assert _inside(m_im, r_im, im), (points, terms)

    def test_k_row_contains_interval_oracle(self, iv50):
        rng = random.Random(6062)
        for _ in range(200):
            n = rng.randint(1, 5)
            r = 10.0 ** rng.uniform(-18, -1)
            y_row = [complex(rng.gauss(0, 3), rng.gauss(0, 3)) for _ in range(n)]
            cols = []
            for _ in range(n):
                col = []
                for l in range(n):
                    if rng.random() < 0.6:
                        m = complex(rng.gauss(0, 2), rng.gauss(0, 2))
                        col.append((l, m.real, m.imag, abs(rng.gauss(0, r)),
                                    abs(rng.gauss(0, r))))
                cols.append(col)
            yf_row = (rng.gauss(0, 1e-15), rng.gauss(0, 1e-15),
                      abs(rng.gauss(0, 1e-16)), abs(rng.gauss(0, 1e-16)))
            row = rng.randrange(n)
            points = [-v for v in y_row] + [1]
            k_re, k_im = _k_row_bound(points, cols, row, yf_row, r)

            yf_re, yf_im = _iv_box(*yf_row)
            w = iv.mpf([-r, r])
            re, im = -yf_re, -yf_im
            for k, col in enumerate(cols):
                s_re, s_im = _iv_dot(points, col)  # -(Y F'(X))_row,k
                if k == row:
                    s_re += 1
                re += s_re * w - s_im * w
                im += s_re * w + s_im * w
            for part, bound in ((re, k_re), (im, k_im)):
                lo, hi = _exact(part)
                assert max(-lo, hi) <= Fraction(bound)

    def test_non_finite_sum_is_never_interior(self):
        huge = 1e300
        for points, terms in (
            ([huge], [(0, huge, 0.0, 0.0, 0.0)]),  # overflow: infinite radius
            ([complex(1e308, 1e308)], [(0, 1e308, 1e308, 0.0, 0.0)]),  # inf - inf
            ([complex(math.nan, 0.0)], [(0, 1.0, 1.0, 0.0, 0.0)]),
        ):
            m_re, m_im, r_re, r_im = _dot(points, terms)
            assert not (abs(m_re) + r_re < 1.0 and abs(m_im) + r_im < 1.0)
            k_re, k_im = _k_row_bound(points + [1], [terms], 0, (0.0, 0.0, 0.0, 0.0), 1.0)
            assert not (k_re < 1.0 and k_im < 1.0)

    def test_non_finite_inverse_fails_the_test(self):
        sys = figure_eight_system(round_digits=9)
        selected = select_square_subsystem(sys)
        yf = [(0.0, 0.0, 0.0, 0.0)] * 2
        for bad in (math.nan, math.inf, 1e308):
            y = [[complex(bad, bad), 0j], [0j, complex(bad, bad)]]
            failure = _krawczyk_once(sys, sys.shapes, selected, y, yf, 1e-3)
            assert failure is not None and "max|K-x^|/r" in failure


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the JetError it raises."""
    try:
        return fn(*args)
    except JetError as exc:
        return type(exc), str(exc)


def _signed(rng, lo, hi):
    x = rng.uniform(1.0, 10.0) * 10.0 ** rng.uniform(lo, hi)
    return -x if rng.random() < 0.5 else x


def _log_points(rng):
    """Shapes z whose logs, and those of 1 - z, the residual enclosure
    takes: magnitudes 1e-300 to 1e300 (out of domain at both ends),
    subnormal parts, |Re| = |Im| to a few ulps (the branch switch),
    points on and one ulp off the negative real axis, and Re z for which
    1 - Re z rounds."""
    ulp = 2.0 ** -52
    for _ in range(400):
        yield complex(_signed(rng, -300, 300), _signed(rng, -300, 300))
    for _ in range(100):
        sub = rng.randint(-2 ** 20, 2 ** 20) * 5e-324
        x = _signed(rng, -5, 5)
        yield complex(x, sub)
        yield complex(sub, x)
    for _ in range(150):
        x = _signed(rng, -80, 150)
        yield complex(x, math.copysign(x, rng.random() - 0.5) * (1.0 + rng.randint(-3, 3) * ulp))
    for _ in range(50):
        x = -_signed(rng, -5, 5) if rng.random() < 0.8 else 1.0 + abs(_signed(rng, -15, 5))
        for y in (0.0, -0.0, 5e-324, -5e-324, math.ulp(x), -math.ulp(x)):
            yield complex(x, y)
    for _ in range(100):
        x = rng.choice((_signed(rng, -20, -16), _signed(rng, 0, 17),
                        1.0 + rng.randint(-9, 9) * ulp, 2.0 + rng.randint(1, 9) * 2 * ulp))
        yield complex(x, rng.choice((_signed(rng, -20, 5), 0.0, 5e-324)))
    yield from (complex(1.0, 1e-170), complex(1.0, 1e-150), complex(1e-170, 0.0),
                complex(3e-162, 1e-170), complex(1e154, 1e154), complex(0.0, 0.0))


def _log_cases(rng):
    """(w as 50-digit intervals, the ``_log_box`` call, the jet logarithm
    call) for w = z and w = 1 - z over ``_log_points``."""
    for z in _log_points(rng):
        yield ((iv.mpf(z.real), iv.mpf(z.imag)),
               lambda z=z: _log_box(z.real, z.imag, 0.0),
               lambda z=z: complex_log_jet(ComplexJet.constant(z)))
        yield ((1 - iv.mpf(z.real), -iv.mpf(z.imag)),
               lambda z=z: _log_box(1.0 - z.real, -z.imag, EPS_PRIM),
               lambda z=z: complex_log_jet(1.0 - ComplexJet.constant(z)))


def _log_encloses(box, w):
    x, y = w
    return (_inside(box[0], box[2], iv.log(x * x + y * y) / 2)
            and _inside(box[1], box[3], iv.atan2(y, x)))


class TestLogBox:
    """The plain-float point logarithm of the residual enclosure, against
    50-digit interval arithmetic and the dimension-0 jet logarithm."""

    def test_contains_interval_oracle_and_refuses_as_the_jets(self, iv50):
        # Where the jet logarithm refuses, so does the point kernel, with
        # the same error; the one exception is a jet whose error radius
        # overflowed (a plain JetError: the quotient of atan(im/re) for
        # |1 - Re z| above about 1e103), which the kernel encloses.
        enclosed = refused = 0
        for w, box, jet in _log_cases(random.Random(6063)):
            got, old = _outcome(box), _outcome(jet)
            if isinstance(old, tuple):
                refused += 1
                if len(got) != 4 or old[0] is not JetError:
                    assert got == old, w
                    continue
            else:
                assert len(got) == 4 and old.re.center == got[0], w
            assert _log_encloses(got, w), w
            enclosed += 1
        assert enclosed > 1500 and refused > 300

    @pytest.mark.parametrize("direction", (-math.inf, math.inf))
    def test_contains_interval_oracle_under_a_worse_libm(self, iv50, monkeypatch,
                                                         direction):
        # A libm one ulp worse than glibc's everywhere is still inside the
        # charge of points._libm_err, so the enclosures must hold; this
        # leaves the other charges less slack to hide behind.
        import smallvol.points as points

        worse = types.SimpleNamespace(**{k: getattr(math, k) for k in dir(math)
                                         if not k.startswith("_")})
        worse.log = lambda x: math.nextafter(math.log(x), direction)
        worse.atan = lambda x: math.nextafter(math.atan(x), direction)
        monkeypatch.setattr(points, "math", worse)
        enclosed = 0
        for w, box, _ in _log_cases(random.Random(6067)):
            got = _outcome(box)
            if len(got) == 4:
                assert _log_encloses(got, w), w
                enclosed += 1
        assert enclosed > 1500

    def test_midpoints_and_widths_against_the_jet_logarithm(self):
        # Midpoints are the jet logarithm's; no radius is wider, at the
        # figure-eight root and at random moderate points.
        rng = random.Random(6064)
        points = [OMEGA] + [complex(_signed(rng, -3, 3), _signed(rng, -3, 3))
                            for _ in range(500)]
        for z in points:
            for box, jet in ((_log_box(z.real, z.imag, 0.0),
                              complex_log_jet(ComplexJet.constant(z))),
                             (_log_box(1.0 - z.real, -z.imag, EPS_PRIM),
                              complex_log_jet(1.0 - ComplexJet.constant(z)))):
                assert box[:2] == (jet.re.center, jet.im.center), z
                assert box[2] <= jet.re.err and box[3] <= jet.im.err, z


def _jet_recip(x, ex, y, ey, one_minus):
    w = ComplexJet(Jet(x, (), ex), Jet(y, (), ey))
    r = (1.0 - w if one_minus else w).reciprocal()
    return r.re.center, r.im.center, r.re.err, r.im.err


def _recip_args(x, ex, y, ey, one_minus):
    """``_recip_box`` arguments for 1/w or, as the Jacobian takes them,
    1/(1 - w)."""
    if one_minus:
        return (*_add0(1.0, 0.0, -x, ex), *_add0(0.0, 0.0, -y, ey))
    return x, ex, y, ey


class TestRecipBox:
    """The Jacobian's reciprocal boxes: bit for bit the dimension-0
    ``ComplexJet.reciprocal``, and inside 50-digit interval arithmetic."""

    def _cases(self, rng):
        for _ in range(1500):
            x, y = _signed(rng, -160, 150), _signed(rng, -160, 150)
            if rng.random() < 0.3:
                y = x * rng.uniform(-2.0, 2.0)
            scale = max(abs(x), abs(y))
            r = scale * 10.0 ** rng.uniform(-18, 0.5) if rng.random() < 0.9 else 0.0
            yield x, r, y, r, rng.random() < 0.5
        yield 0.0, 1e-3, 0.0, 1e-3, False
        yield 1.0, 1e-3, 0.0, 1e-3, True
        yield 1e-170, 1e-170, 1e-170, 1e-170, False

    def test_bitwise_equal_to_the_jet_reciprocal(self):
        refused = 0
        for x, ex, y, ey, one_minus in self._cases(random.Random(6065)):
            got = _outcome(_recip_box, *_recip_args(x, ex, y, ey, one_minus))
            old = _outcome(_jet_recip, x, ex, y, ey, one_minus)
            if isinstance(old, tuple) and isinstance(old[0], type):
                refused += 1
                assert got == old
            else:
                assert [v.hex() for v in got] == [v.hex() for v in old]
        assert refused >= 3

    def test_contains_interval_oracle(self, iv50):
        rng = random.Random(6066)
        for x, ex, y, ey, one_minus in self._cases(rng):
            try:
                m_re, m_im, r_re, r_im = _recip_box(*_recip_args(x, ex, y, ey, one_minus))
            except JetError:
                continue
            for s, t in [(0, 0), (-1, -1), (-1, 1), (1, -1), (1, 1)] + [
                    (rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]:
                w_re = iv.mpf(x) + iv.mpf(ex) * s
                w_im = iv.mpf(y) + iv.mpf(ey) * t
                if one_minus:
                    w_re, w_im = 1 - w_re, -w_im
                d = w_re * w_re + w_im * w_im
                assert _inside(m_re, r_re, w_re / d), (x, ex, y, ey, one_minus)
                assert _inside(m_im, r_im, -w_im / d), (x, ex, y, ey, one_minus)


# Verdicts and failure margins (as printed, 6 digits) of the earlier
# Krawczyk kernel, which accumulated on dimension-0 jets: None is a
# proof, "jacobian" a failure to enclose F'(X).  The float kernel may
# prove more, and its margins may only be tighter.
JET_KERNEL_VERDICTS = (
    ("fig8", 1e-20, 3373.34),
    ("fig8", 1e-19, 337.334),
    ("fig8", 1e-18, 33.7334),
    ("mixed1", 1e-3, None),
    ("mixed1", 2.5e-3, 2372.87),
    ("mixed1", 1e-2, "jacobian"),
    ("mixed2", 1e-3, None),
    ("mixed2", 2.5e-3, 2753.62),
    ("mixed2", 1e-2, "jacobian"),
    ("mixed3", 1e-3, None),
    ("mixed3", 2.5e-3, 344.896),
    ("mixed3", 1e-2, "jacobian"),
)


class TestVerdictRegression:
    @pytest.mark.parametrize("name, r0, before", JET_KERNEL_VERDICTS)
    def test_no_lost_proof_or_wider_margin(self, name, r0, before):
        if name == "fig8":
            sys = figure_eight_system(round_digits=9)
        else:
            sys = mixed_figure_eight(2, random.Random(int(name[-1])))
        try:
            krawczyk_certify(sys, r0=r0)
        except InconclusiveError as exc:
            msg = str(exc)
            assert before is not None, f"proven before, now: {msg}"
            if before == "jacobian":
                assert "the Jacobian over the box cannot be enclosed" in msg
            else:
                m = re.search(r"max\|K-x\^\|/r = (\S+)", msg)
                assert m, msg
                assert float(m.group(1)) <= before * (1 + 1e-12)


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
