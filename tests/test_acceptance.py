"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all together, or check the test outcomes themselves).
"""

import math
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from smallvol import cli
from smallvol.certify import figure_eight_system, jacobian, krawczyk_certify, residual
from smallvol.data import CORPUS, figure_eight_text, presentation_text, script_text
from smallvol.filling import CuspData, enumerate_slopes, slope_length, slope_length_bound
from smallvol.formats import parse_gluing, parse_presentation, parse_script
from smallvol.geometry import ShapeAssignment, certified_volume
from smallvol.grouptool import (
    Presentation,
    ProofScript,
    abelian_invariants,
    detect_power_relator,
    search_trivial,
    verify_script,
    words,
)
from smallvol.grouptool.engine import _State, _run_step
from smallvol.jets import Jet, pi_jet
from smallvol.lobachevsky import lobachevsky, series_coeffs

from oracles import jet_contains_value, lobachevsky_quad
from test_filling import S776, S776_PAIRS


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_01_slope_length_bound():
    b = slope_length_bound(5.33349, 2.848)
    report(1, "slope-length-bound", 10.74 <= b <= 10.76)


def test_02_figure_one_reproduction():
    slopes = enumerate_slopes(S776, 2.848, fudge=0.01)
    report(2, "figure-1-46-pairs", slopes.coefficients() == S776_PAIRS)


def test_03_enumeration_exhaustive():
    rng = random.Random(314)
    ok = True
    checked = 0
    while checked < 50:
        m = complex(rng.uniform(-2, 2), rng.uniform(0.3, 2.5))
        l = complex(rng.uniform(-3, 3), rng.uniform(-2.5, 2.5))
        vol = rng.uniform(3.0, 8.0)
        target = rng.uniform(0.5, vol * 0.9)
        try:
            cusp = CuspData(m, l, vol)
        except ValueError:
            continue
        cutoff = slope_length_bound(vol, target) * 1.01
        if cutoff * max(abs(m), abs(l)) / cusp.lattice_area() > 180:
            continue
        fast = enumerate_slopes(cusp, target, fudge=0.01).coefficients()
        brute = set()
        for p in range(-200, 201):
            for q in range(0, 201):
                if q == 0 and p != 1:
                    continue
                if p == 0 and q != 1:
                    continue
                if gcd(abs(p), q) != 1:
                    continue
                if slope_length(p, q, cusp) <= cutoff:
                    brute.add((p, q))
        ok = ok and fast == brute
        checked += 1
    report(3, "enumeration-vs-brute-force", ok)


def test_04_series_coefficients():
    sc = series_coeffs(51)
    ok = sc.exact[0] == Fraction(1, 18) and sc.exact[1] == Fraction(1, 900)
    pi_sq = Fraction(math.nextafter(math.pi, math.inf)) ** 2
    ok = ok and all(sc.exact[n] / sc.exact[n + 1] > pi_sq for n in range(50))
    sc40 = series_coeffs(40)
    for k in range(1, 11):
        tail = sum(sc40.exact[n - 1] for n in range(k, 41))
        ok = ok and tail < 2 * sc40.exact[k - 1]
    report(4, "series-coefficients", ok)


def test_05_lobachevsky_accuracy():
    rng = random.Random(2718)
    ok = True
    for _ in range(200):
        x = rng.uniform(1e-3, math.pi / 2 - 1e-3)
        j = lobachevsky(Jet.constant(x), tol=1e-12)
        lo, hi = j.bounds()
        ok = ok and hi - lo <= 1e-9 and jet_contains_value(j, lobachevsky_quad(x))
    j6 = lobachevsky(Jet.constant(math.pi / 6))
    oracle = lobachevsky_quad(mpmath.pi / 6)
    ok = ok and str(oracle).startswith("0.5074708") and jet_contains_value(j6, oracle)
    for _ in range(200):
        x = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        if abs(x) < 1e-6:
            continue
        a = lobachevsky(Jet.constant(x))
        b = -lobachevsky(Jet.constant(-x))
        c = lobachevsky(Jet.constant(x) + pi_jet())
        (alo, ahi), (blo, bhi), (clo, chi) = a.bounds(), b.bounds(), c.bounds()
        ok = ok and alo <= bhi and blo <= ahi and alo <= chi and clo <= ahi
    report(5, "lobachevsky-oracle", ok)


@pytest.mark.fuzz
def test_06_jet_containment_fuzz(containment_fuzz_violations):
    report(6, "jet-containment-fuzz-100k", containment_fuzz_violations == 0)


def test_07_figure_eight_end_to_end(tmp_path, capsys):
    sys_ = figure_eight_system(round_digits=9)
    cert = krawczyk_certify(sys_)
    ok = cert.delta < 1e-8
    iv = certified_volume(cert.shape_assignment())
    v = 6 * lobachevsky_quad(mpmath.pi / 3)
    ok = ok and str(v).startswith("2.0298832128")
    ok = ok and iv.lo <= float(v) <= iv.hi and iv.width() < 1e-5
    f = tmp_path / "fig8.gluing"
    f.write_text(figure_eight_text())
    rc1 = cli.main(["volume", str(f), "--gt", "0.943"])
    rc2 = cli.main(["volume", str(f), "--le", "2.848"])
    capsys.readouterr()
    ok = ok and rc1 == 0 and rc2 == 0
    report(7, "figure-eight-certification", ok)


def test_08_regular_ideal_tetrahedron():
    iv = certified_volume(ShapeAssignment((complex(0.5, math.sqrt(3) / 2),), 0.0))
    v = 3 * lobachevsky_quad(mpmath.pi / 3)
    ok = str(v).startswith("1.0149416064")
    ok = ok and iv.lo <= float(v) <= iv.hi and iv.width() < 1e-6
    report(8, "regular-tetrahedron-volume", ok)


def test_09_jacobian_vs_finite_differences():
    from smallvol.certify import GluingEquation, GluingSystem

    rng = random.Random(99)
    ok = True
    count = 0
    while count < 50:
        n = rng.randint(1, 4)
        shapes = [complex(rng.uniform(-1.2, 2.2), rng.uniform(0.3, 1.4))
                  for _ in range(n)]
        eqs = []
        for _ in range(n + rng.randint(0, 2)):
            a = [rng.randint(-2, 2) for _ in range(n)]
            b = [rng.randint(-2, 2) for _ in range(n)]
            eqs.append(GluingEquation(a, b, 0))
        sys_ = GluingSystem.__new__(GluingSystem)
        object.__setattr__(sys_, "equations", tuple(eqs))
        object.__setattr__(sys_, "shapes", tuple(shapes))
        h = 1e-6
        jac = jacobian(sys_, shapes)
        scale = max(1.0, max(abs(jac[i][j]) for i in range(len(eqs))
                             for j in range(n)))
        for j in range(n):
            zp, zm = list(shapes), list(shapes)
            zp[j] += h
            zm[j] -= h
            fd = [(rp - rm) / (2 * h)
                  for rp, rm in zip(residual(sys_, zp), residual(sys_, zm))]
            for i in range(len(eqs)):
                ok = ok and abs(jac[i][j] - fd[i]) <= 1e-5 * scale
        count += 1
    report(9, "jacobian-finite-differences", ok)


def test_10_group_calculus():
    ok = detect_power_relator(
        Presentation.from_strings(("a", "b"), ["a3b2"])
    ).nonhyperbolic
    v = detect_power_relator(
        Presentation.from_strings(("a", "b"), ["a2b2a-1b2"])
    )
    ok = ok and v.nonhyperbolic and "(2,2,1)" in v.log[0]

    for name in CORPUS:
        pres = parse_presentation(presentation_text(name))
        script = parse_script(script_text(name))
        ok = ok and verify_script(pres, script).nonhyperbolic
        # abelianization invariants across every Tietze step
        st = _State(
            names=list(pres.generators),
            active=list(range(1, len(pres.generators) + 1)),
            relators=list(pres.relators),
        )
        before = abelian_invariants(st.snapshot())
        for step in script.steps:
            if step[0] == "branch":
                break
            out = _run_step(st, step, 8)
            if step[0] in ("rotate", "subst", "introduce", "eliminate", "change"):
                ok = ok and abelian_invariants(st.snapshot()) == before
            if out is not None:
                break

    # mutated scripts must come back inconclusive
    for name, mutate in (
        ("p43_02", lambda s: s[1].__setitem__(2, "4")),
        ("p44_06", lambda s: s[0].__setitem__(3, "5")),
        ("p43_01", lambda s: s.pop(0)),
    ):
        pres = parse_presentation(presentation_text(name))
        script = parse_script(script_text(name))
        steps = [list(x) for x in script.steps]
        mutate(steps)
        verdict = verify_script(pres, ProofScript(tuple(tuple(x) for x in steps)))
        ok = ok and verdict.status == "inconclusive"
    report(10, "group-calculus", ok)


def test_11_lemma_instances():
    ok = True
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                rel = words.concat(
                    words.power((1,), n), words.power((2,), m),
                    words.power((-1,), k), words.power((2,), m),
                )
                target = words.commutator(
                    words.power((1,), n + k), words.power((2,), m)
                )
                d = search_trivial(target, [rel], depth=6)
                ok = ok and d is not None and d.replay()
    report(11, "power-commutation-instances", ok)
