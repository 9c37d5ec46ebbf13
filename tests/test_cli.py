import cmath
import contextlib
import decimal
import importlib
import io
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import smallvol
from smallvol import cli
from smallvol.data import CORPUS, figure_eight_text, presentation_text, script_text
from smallvol.formats import (
    MAX_TETS,
    FormatError,
    parse_gluing,
    parse_presentation,
    parse_script,
)
from smallvol.grouptool import words
from smallvol.grouptool.presentation import MAX_PRESENTATION_LETTERS
from smallvol.rounding import PI_HI


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def exact_decimal(text):
    """The decimal typed as ``text``, read without CPython's limit on the
    digits of an integer string, which the program must not lift."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return Fraction(text.strip().replace("_", ""))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def toward(text, up):
    """The double next to the decimal ``text``: the nearest one at or
    above it when ``up``, else at or below it, by an exact oracle."""
    x, exact = float(text), exact_decimal(text)
    if Fraction(x) < exact if up else Fraction(x) > exact:
        x = math.nextafter(x, math.inf if up else -math.inf)
    return x


def body(text):
    """Report lines without the timing line."""
    return [l for l in text.splitlines() if not l.startswith("elapsed_ms:")]


def figure_eight_copies_text(k, extra=0):
    """A gluing file of k disjoint figure-eight copies (the edge and
    completeness rows of ``fig8.gluing`` each), and ``extra`` regular
    tetrahedra with one edge row each."""
    n = 2 * k + extra
    lines = [f"tets {n}"] + [f"shape {i} 0.5 0.866025404" for i in range(n)]

    def row(a, b, c):
        return f"eq {' '.join(map(str, a))} ; {' '.join(map(str, b))} ; {c}"

    for j in range(k):
        for a, b in (((1, 1), (1, 1)), ((0, 1), (1, 0))):
            lines.append(row([0] * 2 * j + list(a) + [0] * (n - 2 * j - 2),
                             [0] * 2 * j + list(b) + [0] * (n - 2 * j - 2), 0))
    for i in range(2 * k, n):
        lines.append(row([0] * i + [3] + [0] * (n - i - 1), [0] * n, 1))
    return "\n".join(lines) + "\n"


@pytest.fixture()
def fig8_file(tmp_path):
    p = tmp_path / "fig8.gluing"
    p.write_text(figure_eight_text())
    return str(p)


class TestBound:
    def test_value(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--parent", "5.33349",
                             "--target", "2.848")
        assert rc == 0
        line = next(l for l in out.splitlines() if l.startswith("bound:"))
        assert line.startswith("bound: 10.74")

    def test_equal_volumes_is_input_error(self, capsys):
        rc, _, err = run_cli(capsys, "bound", "--parent", "5.0",
                             "--target", "5.0")
        assert rc == 2 and "error" in err
        # one ulp below: no upper bound on the cutoff can be certified
        rc, _, err = run_cli(capsys, "bound", "--parent", "5.0",
                             "--target", "4.999999999999999")
        assert rc == 2 and "too close" in err

    def test_two_pi_floor(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", "--parent", "5.33349",
                             "--target", "1e-9")
        assert rc == 0
        line = next(l for l in out.splitlines() if l.startswith("bound:"))
        assert abs(float(line.split()[1]) - 2 * math.pi) < 1e-4

    @pytest.mark.parametrize("flag, value", (("--parent", "inf"), ("--parent", "nan"),
                                             ("--target", "inf"), ("--target", "nan")))
    def test_non_finite_flag_is_malformed(self, capsys, flag, value):
        argv = {"--parent": "5.33349", "--target": "2"}
        argv[flag] = value
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", *(f"{k}={v}" for k, v in argv.items())])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err


def _reported(out, key):
    return next(l.split()[1] for l in out.splitlines() if l.startswith(f"{key}:"))


class TestReportedBoundsAreUpper:
    """``bound:`` and ``cutoff:`` print decimals at or above the exact
    2 pi (1 + fudge) / sqrt(1 - (target/parent)^(2/3)), checked against a
    50-digit oracle, and so does the library's bound."""

    def test_random_volumes(self, capsys):
        rng = random.Random(2033)
        for _ in range(200):
            parent = rng.uniform(0.5, 20.0)
            target = parent * rng.choice((rng.uniform(1e-6, 0.999), rng.uniform(0.9, 0.999)))
            fudge = rng.choice((0.0, 0.01, rng.uniform(0.0, 0.1)))
            rc, out_b, _ = run_cli(capsys, "bound", f"--parent={parent!r}",
                                   f"--target={target!r}")
            rc_e, out_e, _ = run_cli(capsys, "enumerate", "--meridian", "12,0",
                                     "--longitude", "0,12", f"--parent={parent!r}",
                                     f"--target={target!r}", f"--fudge={fudge!r}")
            assert rc == rc_e == 0
            with mpmath.workdps(50):
                ratio = mpmath.mpf(target) / mpmath.mpf(parent)
                exact = 2 * mpmath.pi / mpmath.sqrt(1 - ratio ** (mpmath.mpf(2) / 3))
                for text in (_reported(out_b, "bound"), _reported(out_e, "bound")):
                    assert mpmath.mpf(text) >= exact, (parent, target)
                bound = smallvol.filling.slope_length_bound(parent, target)
                assert mpmath.mpf(bound) >= exact, (parent, target)
                cutoff = exact * (1 + mpmath.mpf(fudge))
                assert mpmath.mpf(_reported(out_e, "cutoff")) >= cutoff, (parent, target, fudge)

    def test_readme_example(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "--parent", "5.33349", "--target", "2.848")
        # The exact bound is 10.747030973534655657...; it is computed from
        # 5.33349 rounded down and 2.848 rounded up.
        assert _reported(out, "bound") == "10.747030973534672"


def _fields(out):
    """The report's (key, value) pairs, in order."""
    return [tuple(l.split(": ", 1)) for l in out.splitlines() if l]


def _echoed_flags(out):
    """{flag: text} for the ``--flag value`` pairs of the command line."""
    words = _fields(out)[0][1].split()
    return {w: words[i + 1] for i, w in enumerate(words) if w.startswith("--")}


def _re_im(text):
    """The complex number a ``re,im`` flag spells."""
    return complex(*map(float, text.split(",")))


class TestReportFields:
    """Every numeric report field reads back as the value the command
    used: echoed flags and claim thresholds equal the parsed arguments,
    printed lengths lie at or above the exact ones, and bounds, lengths,
    certificate and volume fields are the reprs of the library's results."""

    PARENT, TARGET = 4.234022804821794, 2.0832521155408212

    def test_bound(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", f"--parent={self.PARENT!r}",
                             f"--target={self.TARGET!r}")
        assert rc == 0
        flags = _echoed_flags(out)
        assert (float(flags["--parent"]), float(flags["--target"])) == (self.PARENT, self.TARGET)
        fields = dict(_fields(out))
        assert fields["bound"] == repr(smallvol.filling.slope_length_bound(
            toward(repr(self.PARENT), False), toward(repr(self.TARGET), True)))
        # floor_2pi is 2 pi to 12 significant digits
        assert abs(float(fields["floor_2pi"]) - 2 * math.pi) <= 5e-12 * 2 * math.pi
        assert set(fields) == {"command", "bound", "floor_2pi", "elapsed_ms"}

    @pytest.mark.parametrize("meridian, longitude, parent, target, fudge", (
        ("10.236478896057733,0", "0,50", repr(PARENT), repr(TARGET), "0.0"),
        ("0.5,1.3228756555322954", "2,0", repr(PARENT), "2.848", "0.010000000000000002"),
        ("1.0000000000000002,0.30000000000000004", "-0.1,3.3", repr(PARENT), "2.848",
         "0.01"),
        # The README's example, as typed there.
        ("0.5,1.3228756555", "2,0", "5.33349", "2.848", "0.01"),
    ), ids=("borderline", "s776-fudge", "skew", "readme"))
    def test_enumerate(self, capsys, meridian, longitude, parent, target, fudge):
        rc, out, _ = run_cli(capsys, "enumerate", f"--meridian={meridian}",
                             f"--longitude={longitude}", f"--parent={parent}",
                             f"--target={target}", f"--fudge={fudge}")
        assert rc == 0
        flags = _echoed_flags(out)
        for flag, text in (("--meridian", meridian), ("--longitude", longitude)):
            assert _re_im(flags[flag]) == _re_im(text)
        for flag, text in (("--parent", parent), ("--target", target), ("--fudge", fudge)):
            assert float(flags[flag]) == float(text)
        # The library runs on the parent volume rounded down, the target
        # rounded up and the exact parts of the typed lattice.
        typed = [exact_decimal(t) for z in (meridian, longitude) for t in z.split(",")]
        m, l = typed[:2], typed[2:]
        meridian, longitude = _re_im(meridian), _re_im(longitude)
        lo_parent, hi_target = toward(parent, False), toward(target, True)
        fields = _fields(out)
        values = dict(fields)
        cusp = smallvol.filling.CuspData(meridian, longitude, lo_parent)
        slopes = smallvol.filling.enumerate_slopes(
            cusp, hi_target, float(fudge), [x.as_integer_ratio() for x in typed])
        assert values["bound"] == repr(smallvol.filling.slope_length_bound(lo_parent,
                                                                         hi_target))
        assert values["cutoff"] == repr(slopes.cutoff)
        with mpmath.workdps(50):
            ratio = mpmath.mpf(target) / mpmath.mpf(parent)
            cutoff = 2 * mpmath.pi * (1 + mpmath.mpf(float(fudge))) / mpmath.sqrt(
                1 - ratio ** (mpmath.mpf(2) / 3))
            assert mpmath.mpf(values["cutoff"]) >= cutoff
        pairs = [v.split() for k, v in fields if k == "pair"]
        assert int(values["pairs"]) == len(pairs) == len(slopes.pairs) > 0
        for (p, q, text), (p0, q0, length) in zip(pairs, slopes.pairs):
            p, q = int(p), int(q)
            assert (p, q) == (p0, q0)
            exact_sq = (p * m[0] + q * l[0]) ** 2 + (p * m[1] + q * l[1]) ** 2
            assert Fraction(text) ** 2 >= exact_sq
            assert text == repr(length)

    @pytest.mark.parametrize("extra", (
        ("--gt", "1.0000000000000002", "--le", "2.0298832128193074"),
        ("--delta", "1.0000000000000001e-08", "--gt", "0.30000000000000004"),
        ("--delta", "0", "--le", "2.1"),
        ("--delta", "1e-09", "--tol", "1.0000000000000001e-08", "--le", "2.1"),
    ))
    def test_volume(self, capsys, fig8_file, extra):
        rc, out, _ = run_cli(capsys, "volume", fig8_file, *extra)
        args = dict(zip(extra[::2], map(float, extra[1::2])))
        assert {k: float(v) for k, v in _echoed_flags(out).items()} == args
        fields = _fields(out)
        values = dict(fields)
        sys_ = parse_gluing(figure_eight_text())
        if "--delta" in args:
            assignment = smallvol.geometry.ShapeAssignment(sys_.shapes, args["--delta"])
        else:
            cert = smallvol.certify.krawczyk_certify(sys_)
            assignment = cert.shape_assignment()
            assert float(values["delta"]) == cert.delta
            assert float(values["box_radius"]) == cert.box_radius
            assert float(values["residual_max"]) == max(cert.residual_norms)
            centers = [v.split() for k, v in fields if k == "center"]
            assert [(int(i), complex(float(x), float(y))) for i, x, y in centers] == \
                list(enumerate(cert.refined_center))
        iv = smallvol.geometry.certified_volume(assignment, args.get("--tol", 1e-12))
        assert (float(values["volume_lo"]), float(values["volume_hi"])) == (iv.lo, iv.hi)
        for flag, key in (("--gt", "gt_claim"), ("--le", "le_claim")):
            if flag in args:
                assert float(values[key].split()[0]) == args[flag]


    def test_nonhyp_depth(self, capsys, tmp_path):
        # a8 = 1 takes four insertions of a2, more than depth 3 allows.
        pres, script = tmp_path / "a2.pres", tmp_path / "a8.script"
        pres.write_text("gens a\nrel a2\n")
        script.write_text("trivial a8\n")
        rc, out, _ = run_cli(capsys, "nonhyp", str(pres), "--script", str(script),
                             "--depth", "3")
        assert rc == 1 and int(_echoed_flags(out)["--depth"]) == 3
        assert "within depth 3" in dict(_fields(out))["reason"]


@pytest.mark.parametrize("argv, command", (
    (("bound", "--parent", "5.33349"), "bound --parent 5.33349 --target 2.848"),
    (("enumerate", "--meridian", "0.5,1.3228756555322954", "--longitude", "2,0",
      "--parent", "5.33349"),
     "enumerate --meridian 0.5,1.3228756555322954 --longitude 2.0,0.0"
     " --parent 5.33349 --target 2.848 --fudge 0.01"),
    (("certify", "{fig8}"), "certify {fig8}"),
    (("volume", "{fig8}"), "volume {fig8}"),
    (("nonhyp", "--rel", "a3b2"), "nonhyp --rel a3b2"),
    (("nonhyp", "{pres}", "--script", "{script}"), "nonhyp {pres} --script {script}"),
    (("selftest",), "selftest"),
), ids=("bound", "enumerate", "certify", "volume", "nonhyp-rel", "nonhyp-script",
        "selftest"))
def test_default_command_lines_are_unchanged(capsys, tmp_path, fig8_file, argv, command):
    """The ``command:`` line of each subcommand run on its defaults, as
    earlier releases printed it."""
    paths = {"fig8": fig8_file, "pres": str(tmp_path / "g.pres"),
             "script": str(tmp_path / "g.script")}
    (tmp_path / "g.pres").write_text(presentation_text("p44_01"))
    (tmp_path / "g.script").write_text(script_text("p44_01"))
    rc, out, _ = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert rc == 0
    assert out.splitlines()[0] == "command: " + command.format(**paths)


class TestEnumerate:
    S776 = ("enumerate", "--meridian", "0.5,1.3228756555322954",
            "--longitude", "2,0", "--parent", "5.33349",
            "--target", "2.848", "--fudge", "0.01")

    def test_s776_pairs(self, capsys):
        rc, out, _ = run_cli(capsys, *self.S776)
        assert rc == 0
        assert "pairs: 46" in out
        pairs = {tuple(map(int, l.split()[1:3]))
                 for l in out.splitlines() if l.startswith("pair:")}
        assert (-8, 1) in pairs and (7, 1) in pairs and (8, 1) not in pairs

    def test_borderline_slope_is_listed(self, capsys):
        # Slope (1, 0) has length 10.23647889605773280..., just below the
        # bound 10.23647889605773310...; the float bound reads
        # 10.236478896057731 and would drop it.
        rc, out, _ = run_cli(capsys, "enumerate", "--meridian", "10.236478896057733,0",
                             "--longitude", "0,50", "--parent", "4.234022804821794",
                             "--target", "2.0832521155408212", "--fudge", "0")
        assert rc == 0
        assert "pairs: 1" in out
        # The length reads at or above the exact one and below the cutoff.
        assert "pair: 1 0 10.236478896057736\n" in out
        assert "cutoff: 10.236478896057747\n" in out

    def test_typed_decimals_decide_the_list(self, capsys):
        # Slope (1, 0) is shorter than the cutoff of the decimals typed,
        # 42.4760937603331202..., and longer than that of their floats,
        # 42.4760937603330556...: it was left out, with exit 0.
        rc, out, _ = run_cli(capsys, "enumerate", "--meridian", "42.476093760333065,0",
                             "--longitude", "0,500", "--parent", "2.9441",
                             "--target", "2.848", "--fudge", "0")
        assert rc == 0
        fields = _fields(out)
        assert fields[0][1] == ("enumerate --meridian 42.476093760333065,0.0 --longitude "
                                "0.0,500.0 --parent 2.9441 --target 2.848 --fudge 0.0")
        pairs = [v.split() for k, v in fields if k == "pair"]
        assert dict(fields)["pairs"] == "1" and [p[:2] for p in pairs] == [["1", "0"]]
        assert Fraction(pairs[0][2]) >= Fraction("42.476093760333065")
        with mpmath.workdps(60):
            ratio = mpmath.mpf("2.848") / mpmath.mpf("2.9441")
            cutoff = 2 * mpmath.pi / mpmath.sqrt(1 - ratio ** (mpmath.mpf(2) / 3))
            assert mpmath.mpf(dict(fields)["cutoff"]) >= cutoff

    def test_rounded_volumes_are_exact(self):
        rng = random.Random(707)
        texts = ["2.848", "5.33349", "2.9441", "1e-400", "-0", "4.9e-324", "1.5",
                 "2.0298832128200294" + "7" * 900]
        for _ in range(500):
            x = rng.uniform(0.1, 10.0)
            texts += [f"{x:.{rng.randint(1, 30)}g}", repr(x)]
        for text in texts:
            typed = cli._typed_flag(text)
            assert cli._rounded(typed, up=True) == toward(text, True), text
            assert cli._rounded(typed, up=False) == toward(text, False), text

    def test_cusp_parts_are_read_exactly(self, capsys):
        assert cli._ratio("0.5") == (5, 10) and cli._ratio(" -1_0e-1 ") == (-10, 10)
        assert cli._ratio("1e-400") == (1, 10 ** 400) and cli._ratio("0e-99999") == (0, 1)
        for text in ("1." + "1" * 900, "1e-2500"):
            rc, out, err = run_cli(capsys, "enumerate", "--meridian", f"{text},1",
                                   "--longitude", "2,0", "--parent", "5")
            assert rc == 2 and out == "" and "too many digits to read exactly" in err

    def test_degenerate_cusp(self, capsys):
        rc, _, err = run_cli(capsys, "enumerate", "--meridian", "1,1",
                             "--longitude=-2,-2", "--parent", "5.0")
        assert rc == 2 and "error" in err

    def test_coarse_lattice(self, capsys):
        rc, out, _ = run_cli(capsys, "enumerate", "--meridian", "12,0",
                             "--longitude", "0,12", "--parent", "5.33349",
                             "--target", "2.848", "--fudge", "0")
        assert rc == 0 and "pairs: 0" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, *self.S776)
        _, out2, _ = run_cli(capsys, *self.S776)
        assert body(out1) == body(out2)

    @pytest.mark.parametrize("flag", ("--parent", "--target", "--fudge"))
    @pytest.mark.parametrize("value", ("inf", "nan"))
    def test_non_finite_flag_is_malformed(self, capsys, flag, value):
        argv = list(self.S776)
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", (
        ("--meridian", "0.5,1.32", "--longitude", "2,0", "--parent", "5.33349",
         "--fudge", "1e300"),
        ("--meridian", "1e-300,1", "--longitude", "1e300,0", "--parent", "5.33349"),
        ("--meridian", "0.5,1.32", "--longitude", "2,0", "--parent", "5.33349",
         "--fudge", "1e10"),
    ))
    def test_box_that_overflows_or_exceeds_the_cap_is_malformed(self, capsys, argv):
        # The first two overflowed the box bound into a traceback, and the
        # third ran a box of about 10^22 pairs.
        rc, out, err = run_cli(capsys, "enumerate", *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: the search box holds about ")


def _typed_text(draw, x, digits):
    """x typed in positional notation with ``digits`` significant digits;
    those past the 17th are drawn, so the decimal lies off the floats."""
    d = decimal.Decimal(x)
    exp = d.adjusted()
    mant = int(d.scaleb(digits - 1 - exp).to_integral_value())
    if digits > 17:
        tail = 10 ** (digits - 17)
        mant += draw(st.integers(0, tail - 1)) - mant % tail
    return format(decimal.Decimal(mant).scaleb(exp - digits + 1), "f")


@st.composite
def enumerate_flags(draw):
    """(parent, target, fudge, meridian and longitude parts) as typed for
    ``enumerate``, each with 1 to 20 significant digits: the target well
    below the parent or within a relative 1e-3 to 1e-16 of it, and a
    lattice within a factor of 5 of the cutoff, so the box holds a few
    dozen pairs.  In half the draws the meridian is real and typed to 17
    to 20 digits within a few ulps of the cutoff of the volumes as the
    command rounds them, where its float may decide (1, 0) the other
    way."""
    digits = st.integers(1, 20)
    parent = _typed_text(draw, draw(st.floats(0.5, 10.0)), draw(digits))
    p = float(parent)
    if draw(st.booleans()):
        t = p * draw(st.floats(0.05, 0.95))
    else:
        t = p * (1.0 - 10.0 ** -draw(st.floats(3.0, 16.0)))
    target = _typed_text(draw, t, draw(digits))
    fudge = draw(st.sampled_from(("0", "0.01", "0.1")))
    with mpmath.workdps(50):
        ratio = mpmath.mpf(toward(target, True)) / mpmath.mpf(toward(parent, False))
        gap = 1 - min(ratio, 1) ** (mpmath.mpf(2) / 3)
        cutoff = 2 * mpmath.mpf(PI_HI) * (1 + mpmath.mpf(float(fudge))) / mpmath.sqrt(
            max(gap, mpmath.mpf(1e-32)))
        near = cutoff * (1 + mpmath.mpf(draw(st.floats(-4e-16, 4e-16))))
        near = mpmath.nstr(near, draw(st.integers(17, 20)), strip_zeros=False)
    scale = float(cutoff) * 10.0 ** draw(st.floats(-0.7, 0.3))
    theta, phi = draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(0.5, 2.6))
    r1, r2 = draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0))
    m = cmath.rect(scale * r1, theta)
    l = cmath.rect(scale * r2, theta + phi)
    parts = [_typed_text(draw, x, draw(digits)) for x in (m.real, m.imag, l.real, l.imag)]
    if gap > 0 and draw(st.booleans()):
        parts[:2] = format(decimal.Decimal(near), "f"), "0"
        parts[3] = _typed_text(draw, scale * r2, draw(digits))
    return parent, target, fudge, parts


@given(enumerate_flags())
@example(("2.9441", "2.848", "0", ["42.476093760333065", "0", "0", "500"]))
@example(("4.234022804821794", "2.0832521155408212", "0",
          ["10.236478896057733", "0", "0", "50"]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_enumerate_lists_the_pairs_of_the_typed_decimals(flags):
    # The oracle scans the typed parts as Fractions, with the parent
    # rounded down, the target rounded up and pi taken as PI_HI: a pair is
    # admitted when its exact squared length Q is at most
    # K / (1 - (T/P)^(2/3)), K = 4 PI_HI^2 (1 + fudge)^2, decided at 50
    # digits and, within a relative 1e-30 of it, by the exact test.
    parent, target, fudge, (mr, mi, lr, li) = flags
    argv = ["enumerate", "--meridian", f"{mr},{mi}", "--longitude", f"{lr},{li}",
            "--parent", parent, "--target", target, "--fudge", fudge]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc in (0, 2), argv
    if rc:
        return
    listed = {(int(p), int(q)): Fraction(length) for p, q, length in
              (v.split() for k, v in _fields(out.getvalue()) if k == "pair")}
    exact = [exact_decimal(t) for t in (mr, mi, lr, li)]
    k = 4 * Fraction(PI_HI) ** 2 * (1 + Fraction(float(fudge))) ** 2
    ratio = Fraction(toward(target, True)) / Fraction(toward(parent, False))
    with mpmath.workdps(50):
        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        c2 = mp(k) / (1 - mp(ratio) ** (mpmath.mpf(2) / 3))
        area = abs(mp(exact[0] * exact[3] - exact[1] * exact[2]))
        radius = mpmath.sqrt(c2)
        p_max = int(radius * mpmath.hypot(mp(exact[2]), mp(exact[3])) / area) + 1
        q_max = int(radius * mpmath.hypot(mp(exact[0]), mp(exact[1])) / area) + 1
        # The parts over one denominator, so each Q is an integer over den^2.
        den = math.lcm(*(x.denominator for x in exact))
        n_mr, n_mi, n_lr, n_li = (x.numerator * (den // x.denominator) for x in exact)
        expected = set()
        for q in range(q_max + 1):
            for p in range(-p_max, p_max + 1):
                if (q == 0 and p != 1) or math.gcd(abs(p), q) != 1:
                    continue
                sq = (p * n_mr + q * n_lr) ** 2 + (p * n_mi + q * n_li) ** 2
                side = mpmath.mpf(sq) / den ** 2 / c2 - 1
                if abs(side) > mpmath.mpf(1e-30):
                    admitted = side < 0
                else:
                    big_q = Fraction(sq, den * den)
                    admitted = big_q <= k or (1 - k / big_q) ** 3 <= ratio * ratio
                if admitted:
                    expected.add((p, q))
                if (p, q) in listed:
                    assert listed[p, q] ** 2 * den ** 2 >= sq, (argv, p, q)
    assert set(listed) == expected, argv


class TestCertifyVolume:
    def test_certify(self, capsys, fig8_file):
        rc, out, _ = run_cli(capsys, "certify", fig8_file)
        assert rc == 0
        assert "certified: yes" in out
        delta = float(next(l for l in out.splitlines()
                           if l.startswith("delta:")).split()[1])
        assert delta < 1e-8

    def test_volume_brackets(self, capsys, fig8_file):
        rc, out, _ = run_cli(capsys, "volume", fig8_file)
        assert rc == 0
        lo = float(next(l for l in out.splitlines()
                        if l.startswith("volume_lo:")).split()[1])
        hi = float(next(l for l in out.splitlines()
                        if l.startswith("volume_hi:")).split()[1])
        assert lo <= 2.0298832128193072 <= hi
        assert hi - lo < 1e-5

    def test_volume_claims(self, capsys, fig8_file):
        rc, out, _ = run_cli(capsys, "volume", fig8_file,
                             "--gt", "0.943", "--le", "2.848")
        assert rc == 0 and "verdict: proven" in out

    def test_claims_echo_the_compared_threshold(self, capsys, fig8_file):
        rc, out, _ = run_cli(capsys, "volume", fig8_file, "--gt", "1.0000000000000002",
                             "--le", "2.0298832128193074")
        assert "gt_claim: 1.0000000000000002 proven\n" in out
        assert "le_claim: 2.0298832128193074 unproven\n" in out

    @pytest.mark.parametrize("step, proven", ((-1, True), (0, False), (1, False)))
    def test_gt_is_decided_on_the_decimal_as_typed(self, capsys, fig8_file, step, proven):
        # volume_lo and the decimals 10^-70 to either side of it all read
        # as volume_lo, so float(T) cannot tell them apart; only the one
        # below it makes a true claim.
        _, out, _ = run_cli(capsys, "volume", fig8_file)
        lo = float(dict(_fields(out))["volume_lo"])
        with decimal.localcontext() as ctx:
            ctx.prec = 200
            text = str(decimal.Decimal(lo) + decimal.Decimal(step).scaleb(-70))
        assert float(text) == lo and (exact_decimal(text) < Fraction(lo)) is proven
        rc, out, _ = run_cli(capsys, "volume", fig8_file, "--gt", text)
        assert rc == (0 if proven else 1)
        assert f"gt_claim: {lo!r} {'proven' if proven else 'unproven'}\n" in out

    def test_volume_unprovable_claim(self, capsys, fig8_file):
        rc, out, _ = run_cli(capsys, "volume", fig8_file, "--gt", "2.848")
        assert rc == 1 and "verdict: inconclusive" in out

    @pytest.mark.parametrize("claim, verdict", ((("--gt", "1"), "assumed-delta"),
                                                (("--gt", "1", "--le", "3"), "assumed-delta"),
                                                (("--gt", "2.848"), "inconclusive")))
    def test_volume_claim_with_explicit_delta_is_not_proven(self, capsys, fig8_file,
                                                            claim, verdict):
        # Nothing certified a solution within delta, so no claim is proven.
        rc, out, _ = run_cli(capsys, "volume", fig8_file, "--delta", "1e-8", *claim)
        assert rc == 1
        assert f"verdict: {verdict}\n" in out
        assert "verdict: proven" not in out
        if verdict == "assumed-delta":
            assert "gt_claim: 1.0 proven\n" in out

    def test_volume_with_explicit_delta(self, capsys, fig8_file):
        rc, out, _ = run_cli(capsys, "volume", fig8_file, "--delta", "1e-8")
        assert rc == 0
        assert "certified:" not in out  # certification skipped
        assert "verdict: assumed-delta\n" in out
        assert "verdict: certified" not in out
        lo = float(next(l for l in out.splitlines()
                        if l.startswith("volume_lo:")).split()[1])
        hi = float(next(l for l in out.splitlines()
                        if l.startswith("volume_hi:")).split()[1])
        assert lo <= 2.0298832128193072 <= hi

    def test_uncovered_equation_is_inconclusive(self, capsys, tmp_path):
        # The third row is independent of the two that are certified.
        bad = tmp_path / "uncovered.gluing"
        bad.write_text(
            "tets 2\n"
            "shape 0 1.0783889326367355 0.49693966514745314\n"
            "shape 1 1.1051187767098094 0.42001975655938323\n"
            "eq 4 0 ; 1 0 ; 0\neq 0 5 ; 0 1 ; 0\neq 1 -1 ; 0 0 ; 0\n"
        )
        rc, out, _ = run_cli(capsys, "volume", str(bad), "--gt", "0.7307675376513101")
        assert rc == 1
        assert "certified: no" in out and "verdict: inconclusive" in out
        assert "reason: equation 3 is independent" in out

    def test_rank_deficient_refined_centre_is_not_certified(self, capsys, monkeypatch,
                                                            fig8_file):
        # Column 1 of the Jacobian is zeroed at every Newton iterate, so
        # the refined centre's factorization finds no pivot there.
        certify = smallvol.certify
        jacobian = certify.jacobian

        def singular(sys, shapes=None):
            jac = jacobian(sys, shapes)
            if shapes is not None:
                for row in jac:
                    row[1] = 0j
            return jac

        monkeypatch.setattr(certify, "jacobian", singular)
        rc, out, _ = run_cli(capsys, "certify", fig8_file)
        assert rc == 1
        assert "certified: no\nreason: no usable pivot in column 1" in out

    def test_negative_imaginary_orientation(self, capsys, tmp_path):
        bad = tmp_path / "bad.gluing"
        bad.write_text(
            "tets 1\nshape 0 0.5 -0.8660254\neq 3 ; 0 ; -1\n"
        )
        rc, out, _ = run_cli(capsys, "volume", str(bad))
        assert rc == 1
        assert "verdict: inconclusive" in out

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "certify", "/nonexistent.gluing")
        assert rc == 2 and "error" in err

    def test_malformed_file(self, capsys, tmp_path):
        p = tmp_path / "junk.gluing"
        p.write_text("tets 1\nshape 0 zero one\n")
        rc, _, err = run_cli(capsys, "certify", str(p))
        assert rc == 2

    @pytest.mark.parametrize("text, message", (
        ("tets 1000000000000\n", "line 1: tets 1000000000000 exceeds the cap of 256"),
        ("tets 3\n", "need shapes 0..2, got []"),
        ("tets 1\ntets 1\nshape 0 0.5 0.8660254037844386\neq 3 ; 0 ; 1\n",
         "line 2: duplicate 'tets' line"),
        ("tets 1\nshape 0 0.5 0.8660254037844386\nshape 0 0.5 0.8660254037844386\n"
         "eq 3 ; 0 ; 1\n", "line 3: duplicate 'shape 0' line"),
        ("tets 1 junk\nshape 0 0.5 0.8660254037844386 extra tokens\neq 3 ; 0 ; 1\n",
         "line 1: 'tets' takes one count"),
        ("tets 1\nshape 0 0.5 0.8660254037844386 extra tokens\neq 3 ; 0 ; 1\n",
         "line 2: 'shape' takes an index and two numbers"),
        ("tets 1\nshape 0 0.5 0.8660254037844386\n\neq 1 1 ; 1 1\n",
         "line 4: 'eq' takes a_1 .. a_n ; b_1 .. b_n ; c"),
        ("tets 1\nshape 0 0.5 0.8660254037844386\neq\n",
         "line 3: 'eq' takes a_1 .. a_n ; b_1 .. b_n ; c"),
        ("tets 1\nshape 0 0.5 0.8660254037844386\neq 3 ; 0 ; 1 ; 1\n",
         "line 3: 'eq' takes a_1 .. a_n ; b_1 .. b_n ; c"),
        ("tets 1\nshape 0 0.5 0.8660254037844386\neq 3 ; 0 ; 0 0\n",
         "line 3: 'eq' takes a_1 .. a_n ; b_1 .. b_n ; c"),
    ), ids=("huge-count", "count-without-shapes", "second-tets", "repeated-shape",
            "extra-tokens", "extra-shape-tokens", "eq-two-segments", "bare-eq",
            "eq-four-segments", "eq-wide-constant"))
    def test_count_and_duplicates_are_malformed(self, capsys, tmp_path, text, message):
        # The count is compared before anything of its size is built, and
        # a second line never replaces the first.
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_gluing(text)
        p = tmp_path / "bad.gluing"
        p.write_text(text)
        rc, out, err = run_cli(capsys, "certify", str(p))
        assert rc == 2 and out == "" and message in err

    @pytest.mark.parametrize("copies, extra, code", ((MAX_TETS // 2, 0, 0),
                                                    (MAX_TETS // 2, 1, 2)))
    def test_tetrahedron_cap(self, capsys, tmp_path, copies, extra, code):
        # certify is cubic in the tetrahedra: a file at formats.MAX_TETS is
        # certified within about 2 s, one over it is malformed input.
        p = tmp_path / "copies.gluing"
        p.write_text(figure_eight_copies_text(copies, extra))
        rc, out, err = run_cli(capsys, "certify", str(p))
        assert rc == code
        if code:
            assert out == "" and f"exceeds the cap of {MAX_TETS}" in err
        else:
            assert "certified: yes\n" in out and err == ""

    def test_le_is_decided_for_the_typed_decimal(self, capsys, fig8_file):
        # volume_hi is the double 2.02988321282002948109..., which the
        # typed value, below it, rounds to.
        rc, out, _ = run_cli(capsys, "volume", fig8_file,
                             "--le", "2.029883212820029471093797585")
        assert rc == 1
        assert "volume_hi: 2.0298832128200295\n" in out
        assert "le_claim: 2.0298832128200295 unproven\n" in out
        assert "verdict: inconclusive\n" in out
        # The shortest repr of volume_hi lies above it, and proves.
        rc, out, _ = run_cli(capsys, "volume", fig8_file, "--le", "2.0298832128200295")
        assert rc == 0 and "le_claim: 2.0298832128200295 proven\n" in out

    @pytest.mark.parametrize("text", (
        "2.0298832128200294" + "7" * 5000,
        "2.0298832128200295e" + "0" * 5000,
        "0." + "0" * 5000 + "20298832128200295e5001",
    ), ids=("long-mantissa", "long-exponent", "leading-zeros"))
    def test_le_past_the_integer_digit_limit(self, capsys, fig8_file, text):
        # Each rounds to volume_hi, so the claim is decided on the text.
        rc, out, err = run_cli(capsys, "volume", fig8_file, "--le", text)
        hi = float(dict(_fields(out))["volume_hi"])
        assert float(text) == hi and err == ""
        assert rc == (0 if Fraction(hi) <= exact_decimal(text) else 1)

    def test_compare_settles_the_tie_on_the_typed_decimal(self):
        # float("0.1") lies above 0.1; its 55 decimals spell it exactly.
        assert cli._compare(0.1, cli._typed_flag("0.1")) == 1
        assert cli._compare(0.1, cli._typed_flag(f"{0.1:.55f}")) == 0
        assert cli._compare(0.1, cli._typed_flag(f"{0.1:.55f}1")) == -1

    def test_at_most_is_exact(self):
        rng = random.Random(1616)
        cases = [(0.0, "-0"), (0.0, "1e-400"), (0.0, "-1e-400"), (5e-324, "3e-324"),
                 (5e-324, "2.4703282292062328e-324"), (1.0, "+1_0e-1"), (-0.5, "-.5"),
                 (2.0, " 2. "), (1e308, "1E308"), (2.5, "\u0662.\u0665"),
                 (2.0298832128200335, "\u0660" * 900 + "2.02988321282003347")]
        # Past 800 significant digits only whether a digit is nonzero
        # matters, on either side of zero.
        for x in (2.0298832128200335, -0.1, 5e-324, -5e-324, 1e308):
            digits = f"{x:.1100f}".rstrip("0")
            cases += [(x, digits + "0" * 900 + "1"), (x, digits + "0" * 900),
                      (x, digits + "0" * 900 + "1e-0" + "0" * 5000)]
        for _ in range(2000):
            x = rng.choice((rng.uniform(-4, 4),
                            math.ldexp(rng.random(), rng.randint(-1074, 1023))))
            digits = f"{x:.{rng.randint(15, 40)}e}"
            cases.append((float(digits), digits))
            cases.append((x, repr(x)))
        for x, text in cases:
            bound = cli._typed_flag(text)
            assert float(bound) == float(text) and bound.text == text
            exact = exact_decimal(text)
            for y in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
                side = cli._compare(y, bound)
                assert (side <= 0) is (Fraction(y) <= exact), (y, text)
                assert (side > 0) is (Fraction(y) > exact), (y, text)

    @pytest.mark.parametrize("flag, value", (("--delta", "-1"), ("--delta", "nan"),
                                             ("--delta", "inf"), ("--delta", "x"),
                                             ("--tol", "-1"), ("--tol", "0"),
                                             ("--tol", "nan"), ("--tol", "inf"),
                                             ("--gt", "nan"), ("--le", "inf")))
    def test_invalid_volume_flag_is_malformed(self, capsys, fig8_file, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["volume", fig8_file, f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_zero_delta_and_small_tol_accepted(self, capsys, fig8_file):
        rc, out, _ = run_cli(capsys, "volume", fig8_file, "--delta", "0",
                             "--tol", "1e-300")
        assert rc == 0 and "verdict: assumed-delta\n" in out

    def test_finite_shape_whose_modulus_overflows(self, capsys, tmp_path):
        # |z| of this finite shape overflows; it once escaped main as an
        # OverflowError traceback.
        p = tmp_path / "huge.gluing"
        p.write_text(HUGE_SHAPE_GLUING)
        rc, out, err = run_cli(capsys, "volume", str(p), "--delta", "0")
        assert rc == 1 and "volume: inconclusive\n" in out
        assert "verdict: inconclusive\n" in out and err == ""


    def test_exact_shape_refusal_names_the_tetrahedron(self, capsys, tmp_path):
        # |z|^2 of this shape overflows; the reason once named jet
        # internals ("jet center is not finite: inf").
        p = tmp_path / "big.gluing"
        p.write_text("tets 1\nshape 0 1e154 1e154\neq 0 ; 0 ; 0\n")
        rc, out, err = run_cli(capsys, "volume", str(p), "--delta", "0")
        assert rc == 1 and err == ""
        assert "reason: tetrahedron 0: |z|^2 is not finite\n" in out

    @pytest.mark.parametrize("gt, code", (("2", 0), ("3", 1)))
    def test_closed_stdout_keeps_the_exit_code(self, capsys, monkeypatch, gt, code):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        assert cli.main(["volume", FIG8, "--gt", gt]) == code
        assert capsys.readouterr().err == ""

    def test_closed_stdout_pipe_exits_with_the_verdict(self):
        # The pipe's read end is closed before the command starts, so every
        # write fails, at the latest in the interpreter's flush at exit.
        src = os.path.dirname(os.path.dirname(os.path.abspath(smallvol.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "smallvol.cli", "volume", FIG8, "--gt", "2"],
                stdout=write_end, stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")


HUGE_SHAPE_GLUING = "tets 1\nshape 0 1.7e308 1.7e308\neq 0 ; 0 ; 0\n"
# Shapes with subnormal imaginary parts near the real root z = 1/2 of
# log z - log(1 - z) = 0, which certify: exit 0 on extreme parts.
SUBNORMAL_ROOT_GLUINGS = (
    "tets 1\nshape 0 0.5 5e-324\neq 1 ; -1 ; 0\n",
    "tets 2\nshape 0 0.5 -5e-324\nshape 1 0.5 1e-320\n"
    "eq 1 1 ; -1 -1 ; 0\neq 0 1 ; 0 -1 ; 0\n",
)

# Shape parts at the edges of binary64: zero, subnormals, the smallest
# normal, magnitudes whose squares or moduli overflow, the largest double.
EXTREME_PARTS = (0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-320, -1e-320,
                 2.2250738585072014e-308, 1e154, -1e154, 1e308, -1e308,
                 1.7e308, -1.7e308, 1.7976931348623157e308)


@st.composite
def gluing_texts(draw):
    """Gluing files of 1-3 tetrahedra with extreme or random finite shape
    parts and equations of 0/+-1 coefficients.  About half the rows are
    zero, which the residual screen at the stored shapes always passes,
    so ``volume --delta`` reaches the shapes themselves."""
    n = draw(st.integers(1, 3))
    part = st.one_of(st.sampled_from(EXTREME_PARTS),
                     st.floats(allow_nan=False, allow_infinity=False))
    unit = st.sampled_from((-1, 0, 1))
    lines = [f"tets {n}"]
    lines += [f"shape {j} {draw(part)!r} {draw(part)!r}" for j in range(n)]
    for _ in range(draw(st.integers(n, n + 1))):
        zero = draw(st.booleans())
        a, b = ([str(0 if zero else draw(unit)) for _ in range(n)] for _ in range(2))
        lines.append(f"eq {' '.join(a)} ; {' '.join(b)} ; {0 if zero else draw(unit)}")
    return "\n".join(lines) + "\n"


@given(gluing_texts())
@example(HUGE_SHAPE_GLUING)
@example(SUBNORMAL_ROOT_GLUINGS[0])
@example(SUBNORMAL_ROOT_GLUINGS[1])
@settings(max_examples=200, deadline=None, derandomize=True)
def test_extreme_shapes_end_in_an_exit_code(text):
    # Every certify exit 0 passes the independent 30-digit re-check of its
    # report: extreme |z| and subnormal parts are where the Jacobian's
    # column products times the reciprocal boxes could over- or underflow.
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "extreme.gluing")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        for argv in (["certify", path], ["volume", path], ["volume", path, "--delta", "0"]):
            runs = []
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
                runs.append((rc, body(out.getvalue())))
            assert rc in (0, 1, 2), (text, argv)
            # A rerun's report is byte-identical apart from elapsed_ms.
            assert runs[0] == runs[1], (text, argv)
            if argv[0] == "certify" and rc == 0:
                claim = oracles.certificate_claim(out.getvalue())
                assert oracles.krawczyk_margin(oracles.gluing_rows(text), *claim) < 1.0, text


@pytest.fixture()
def binary_file(tmp_path):
    p = tmp_path / "bin.dat"
    p.write_bytes(b"\xff\xfe")
    return str(p)


@pytest.mark.parametrize("command", ("volume", "certify", "nonhyp", "nonhyp-script"))
def test_non_utf8_input_is_malformed(capsys, tmp_path, binary_file, command):
    if command == "nonhyp-script":
        pres = tmp_path / "g.pres"
        pres.write_text(presentation_text("p44_01"))
        argv = ("nonhyp", str(pres), "--script", binary_file)
    else:
        argv = (command, binary_file)
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


class TestParserReuse:
    """Each ``main`` call reads its command line afresh from the command
    table: nothing carries over from an earlier call."""

    @pytest.fixture()
    def depth_files(self, tmp_path):
        # a8 = 1 takes four insertions of a2: found at the default depth,
        # not within depth 3, so the report shows which depth was used.
        pres = tmp_path / "a2.pres"
        script = tmp_path / "a8.script"
        pres.write_text("gens a\nrel a2\n")
        script.write_text("trivial a8\n")
        return str(pres), str(script)

    def test_flags_do_not_carry_over(self, capsys, fig8_file, depth_files):
        pres, script = depth_files
        runs = (("volume", fig8_file, "--gt", "2", "--le", "2.1"),
                ("volume", fig8_file),
                ("nonhyp", pres, "--script", script, "--depth", "3"),
                ("nonhyp", pres, "--script", script))
        first = {}
        for argv in runs:
            rc, out, err = run_cli(capsys, *argv)
            first[argv] = (rc, body(out), err)
        assert "gt_claim: 2.0 proven" in first[runs[0]][1]
        assert not any(l.startswith(("gt_claim", "le_claim")) for l in first[runs[1]][1])
        assert "within depth 3" in "\n".join(first[runs[2]][1])
        assert "note: verified a8 = 1 (4 insertions)" in first[runs[3]][1]

        for argv in runs[::-1]:
            rc, out, err = run_cli(capsys, *argv)
            assert (rc, body(out), err) == first[argv]

    def test_echo_follows_the_table_not_the_command_line(self, capsys, fig8_file,
                                                          depth_files):
        pres, script = depth_files
        _, out, _ = run_cli(capsys, "volume", "--le", "2.1", "--gt", "2", "--tol", "1e-10",
                            "--delta", "0", fig8_file)
        assert _fields(out)[0][1] == (f"volume {fig8_file} --delta 0.0 --tol 1e-10"
                                      " --gt 2.0 --le 2.1")
        _, out, _ = run_cli(capsys, "nonhyp", "--depth", "3", "--script", script, pres)
        assert _fields(out)[0][1] == f"nonhyp {pres} --script {script} --depth 3"


def _usage_error(capsys, *argv):
    """The stderr of a command line that must exit 2 with nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "", argv
    return out.err


class TestCommandLine:
    """How ``main`` reads flags: both spellings, values that start with
    ``-``, prefixes, ``--``, help, and each usage error."""

    MERIDIAN = ("--meridian", "-0.5,1.3228756555322954", "--longitude", "2,0",
                "--parent", "5.33349")
    LONGITUDE = ("--meridian", "0.5,1.3228756555322954", "--longitude", "-2,0",
                 "--parent", "5.33349")

    @staticmethod
    def _joined(argv):
        """``--flag value`` pairs spelled ``--flag=value``."""
        out, it = [], iter(argv)
        for token in it:
            out.append(f"{token}={next(it)}" if token.startswith("--") else token)
        return out

    @pytest.mark.parametrize("flags", (MERIDIAN, LONGITUDE))
    def test_enumerate_value_may_start_with_a_dash(self, capsys, flags):
        rc, spaced, err = run_cli(capsys, "enumerate", *flags)
        assert rc == 0 and err == ""
        rc_eq, joined, _ = run_cli(capsys, "enumerate", *self._joined(flags))
        assert rc_eq == 0 and body(spaced) == body(joined)
        assert int(_reported(spaced, "pairs")) > 0

    def test_volume_gt_may_start_with_a_dash(self, capsys, fig8_file):
        rc, spaced, _ = run_cli(capsys, "volume", fig8_file, "--gt", "-1")
        rc_eq, joined, _ = run_cli(capsys, "volume", fig8_file, "--gt=-1")
        assert rc == rc_eq == 0 and body(spaced) == body(joined)
        assert "gt_claim: -1.0 proven" in spaced

    def test_value_is_the_next_token_whatever_it_is(self, capsys):
        err = _usage_error(capsys, "bound", "--parent", "--target", "2")
        assert "argument --parent: expected a finite number, got '--target'" in err

    def test_unique_prefix_names_its_flag(self, capsys):
        _, full, _ = run_cli(capsys, "bound", "--parent", "5.33349")
        rc, prefix, _ = run_cli(capsys, "bound", "--par", "5.33349")
        rc_eq, joined, _ = run_cli(capsys, "bound", "--par=5.33349")
        assert rc == rc_eq == 0 and body(full) == body(prefix) == body(joined)

    def test_last_of_a_repeated_flag_wins(self, capsys):
        _, once, _ = run_cli(capsys, "bound", "--parent", "5.33349")
        rc, twice, _ = run_cli(capsys, "bound", "--parent", "9", "--parent=5.33349")
        assert rc == 0 and body(once) == body(twice)

    def test_double_dash_ends_the_flags(self, capsys, fig8_file):
        _, plain, _ = run_cli(capsys, "certify", fig8_file)
        rc, ended, _ = run_cli(capsys, "certify", "--", fig8_file)
        assert rc == 0 and body(plain) == body(ended)
        err = _usage_error(capsys, "volume", fig8_file, "--", "--gt", "2")
        assert "unrecognized arguments: --gt 2" in err

    @pytest.mark.parametrize("argv, message", (
        (("bound", "--parent", "5", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
        (("enumerate", "--meridian", "1,1", "--parent", "5"),
         "the following arguments are required: --longitude"),
        (("bound",), "the following arguments are required: --parent"),
        (("volume",), "the following arguments are required: file"),
        (("certify", "a.gluing", "b.gluing"), "unrecognized arguments: b.gluing"),
        (("nonhyp", "a.pres", "b.pres"), "unrecognized arguments: b.pres"),
        # Every flag of a command has its own first letter, so only the
        # empty prefix is ambiguous.
        (("bound", "--=5"), "could match --help, --parent, --target"),
        (("bound", "--parent"), "argument --parent: expected one argument"),
        (("bogus",), "argument cmd: invalid choice: 'bogus'"),
        ((), "the following arguments are required: cmd"),
        (("certify", "--help=x"), "argument -h/--help: ignored explicit argument 'x'"),
    ))
    def test_usage_error_exits_2(self, capsys, argv, message):
        err = _usage_error(capsys, *argv)
        assert message in err and err.startswith("usage: smallvol")

    @pytest.mark.parametrize("argv", (("--help",), ("-h",), ("--he",), ("volume", "--help"),
                                      ("nonhyp", "-h"), ("bound", "--parent", "5", "--h")))
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        out = capsys.readouterr()
        assert exc.value.code == 0 and out.err == ""
        assert out.out.startswith("usage: smallvol")
        if "volume" in argv:
            assert "--delta DELTA" in out.out and "prove volume at most this" in out.out


# Standard modules a command should not load: dataclasses brings inspect,
# fractions brings decimal and numbers, and argparse brings gettext.
WATCHED = ("smallvol", "dataclasses", "inspect", "fractions", "decimal", "argparse",
           "gettext")


def _loaded_after(code):
    """The smallvol modules, and those of ``WATCHED`` that are loaded, that
    a fresh interpreter holds after running ``code``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(smallvol.__file__)))
    probe = (code + "\nimport sys\n"
             "print(' '.join(sorted(m for m in sys.modules\n"
             f"                      if m.split('.')[0] in {WATCHED!r})))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=src,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


FIG8 = os.path.join(os.path.dirname(smallvol.__file__), "data", "fig8.gluing")


class TestColdStart:
    """Each entry point loads only the modules it runs."""

    def test_package_import_loads_the_rounding_layer_only(self):
        assert _loaded_after("import smallvol") == {
            "smallvol", "smallvol.lobachevsky", "smallvol.rounding"}

    def test_cli_import_loads_the_rounding_layer_only(self):
        assert _loaded_after("import smallvol.cli") == {
            "smallvol", "smallvol.cli", "smallvol.lobachevsky", "smallvol.rounding"}

    def test_coefficient_fill_loads_no_rational_arithmetic(self):
        # What every command does first when it evaluates a volume; it
        # builds no jet, so it loads no jets either.
        assert _loaded_after("import smallvol.cli\n"
                             "from smallvol.lobachevsky import default_coeffs\n"
                             "default_coeffs()") == {
            "smallvol", "smallvol.cli", "smallvol.lobachevsky", "smallvol.rounding"}

    @pytest.mark.parametrize("argv, absent", (
        (["bound", "--parent", "5.33349", "--target", "2.848"],
         ("smallvol.certify", "smallvol.geometry", "smallvol.formats",
          "smallvol.grouptool", "smallvol.jets", "smallvol.points", "dataclasses",
          "inspect", "fractions", "decimal", "argparse", "gettext")),
        # The typed decimals are read as integer ratios; only a borderline
        # pair loads fractions.
        (["enumerate", "--meridian", "0.5,1.3228756555322954", "--longitude", "2,0",
          "--parent", "5.33349"], ("smallvol.certify", "smallvol.geometry",
                                   "smallvol.formats", "smallvol.grouptool",
                                   "smallvol.jets", "smallvol.points", "dataclasses",
                                   "inspect", "fractions", "decimal", "argparse",
                                   "gettext")),
        # The value types are named tuples, so no command loads dataclasses.
        (["volume", FIG8, "--gt", "2"],
         ("smallvol.grouptool", "smallvol.filling", "dataclasses", "inspect",
          "fractions", "decimal", "argparse", "gettext")),
        # Exact shapes are summed on the point layer: no jet is built.
        (["volume", FIG8, "--delta", "0"],
         ("smallvol.jets", "smallvol.grouptool", "smallvol.filling", "dataclasses",
          "inspect", "fractions", "decimal", "argparse", "gettext")),
        # The Krawczyk test runs on the point layer alone.
        (["certify", FIG8], ("smallvol.grouptool", "smallvol.filling", "smallvol.jets",
                             "smallvol.geometry", "dataclasses", "inspect",
                             "fractions", "decimal", "argparse", "gettext")),
        (["nonhyp", "--rel", "a3b2"], ("smallvol.certify", "smallvol.geometry",
                                       "smallvol.filling", "smallvol.jets",
                                       "smallvol.points", "dataclasses", "inspect",
                                       "fractions", "decimal", "argparse", "gettext")),
    ))
    def test_command_loads_only_its_modules(self, argv, absent):
        loaded = _loaded_after(
            "import contextlib, io\nfrom smallvol import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({argv!r})")
        assert "smallvol.cli" in loaded
        packages = {".".join(m.split(".")[:2]) for m in loaded}
        assert not packages & set(absent)

    @pytest.mark.parametrize("argv, present", (
        (["certify", FIG8], {"smallvol.certify", "smallvol.points"}),
        # --le at volume_hi's own double: settled on the typed decimal.
        (["volume", FIG8, "--gt", "2", "--le", "2.029883212820029471093797585"],
         {"smallvol.certify", "smallvol.geometry", "smallvol.jets", "smallvol.points"}),
        (["bound", "--parent", "5.33349", "--target", "2.848"], {"smallvol.filling"}),
        (["volume", FIG8, "--delta", "0"], {"smallvol.geometry", "smallvol.points"}),
    ))
    def test_command_loads_the_modules_it_runs(self, argv, present):
        loaded = _loaded_after(
            "import contextlib, io\nfrom smallvol import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({argv!r})")
        assert present <= loaded
        assert not loaded & {"fractions", "decimal", "argparse", "gettext"}

    def test_orientation_check_builds_no_jet(self):
        loaded = _loaded_after(
            "from smallvol.geometry import _oriented\n"
            "assert _oriented((0.5+0.8660254037844386j,), 1e-3)")
        assert "smallvol.geometry" in loaded and "smallvol.jets" not in loaded

    def test_volumes_build_no_jet(self, monkeypatch, capsys):
        # At delta > 0 the boxes and their Lobachevsky series run on
        # (center, coeffs, err) triples: no Jet or ComplexJet is built.
        from smallvol import jets
        from smallvol.geometry import ShapeAssignment, certified_volume

        omega = complex(0.5, math.sqrt(3) / 2)
        cases = [ShapeAssignment((omega, omega), d) for d in (1e-12, 1e-8, 1e-4)]
        cases.append(ShapeAssignment((0.3 + 1.1j, -0.7 + 0.4j, 2.5 + 0.01j), 1e-9))
        expected = [certified_volume(s) for s in cases]
        rc0, out0, _ = run_cli(capsys, "volume", FIG8)

        def refuse(*args):
            raise AssertionError("jet constructed")

        monkeypatch.setattr(jets.Jet, "__post_init__", refuse)
        monkeypatch.setattr(jets.ComplexJet, "__init__", refuse)
        with pytest.raises(AssertionError, match="jet constructed"):
            jets.Jet.constant(0.0)
        assert [certified_volume(s) for s in cases] == expected
        rc, out, _ = run_cli(capsys, "volume", FIG8)
        assert rc == rc0 == 0 and body(out) == body(out0)
        assert "volume_lo: 2.0298832128" in out

    def test_star_import_and_dir_cover_the_public_names(self):
        namespace = {}
        exec("from smallvol import *", namespace)
        assert set(smallvol.__all__) <= set(namespace)
        assert set(smallvol.__all__) <= set(dir(smallvol))
        assert namespace["certified_volume"] is smallvol.geometry.certified_volume
        assert namespace["krawczyk_certify"] is smallvol.certify.krawczyk_certify

    def test_lobachevsky_attribute_is_the_function(self):
        from smallvol.lobachevsky import lobachevsky

        assert smallvol.lobachevsky is lobachevsky
        # Neither importing the submodule again nor resolving other names
        # rebinds the package attribute to the submodule.
        _loaded_after("import importlib, smallvol\n"
                      "m = importlib.import_module('smallvol.lobachevsky')\n"
                      "smallvol.Jet, smallvol.certified_volume, smallvol.cli\n"
                      "assert smallvol.lobachevsky is m.lobachevsky")

    def test_lazy_jet_names_are_the_jets_objects(self):
        from smallvol import jets

        for name in ("Jet", "ComplexJet", "arg_complex", "atan_jet", "log_jet"):
            assert name in smallvol.__all__
            assert getattr(smallvol, name) is getattr(jets, name)
        assert smallvol.jets is jets
        # Reading a jet name loads jets, the point layer under it and
        # nothing else.
        assert _loaded_after("import smallvol\nsmallvol.Jet") == {
            "smallvol", "smallvol.jets", "smallvol.lobachevsky", "smallvol.points",
            "smallvol.rounding"}

    def test_exception_classes_are_one_object_across_modules(self):
        from smallvol import certify, geometry, jets, rounding

        lobachevsky = importlib.import_module("smallvol.lobachevsky")
        assert jets.JetError is rounding.JetError
        for module in (jets, geometry, certify, cli):
            assert module.JetDomainError is rounding.JetDomainError
        assert issubclass(lobachevsky.ReductionError, jets.JetDomainError)
        with pytest.raises(jets.JetDomainError):
            jets.Jet(0.0, (1.0,), 0.0).reciprocal()

    def test_lobachevsky_attribute_survives_loading_jets(self):
        _loaded_after("import importlib, smallvol\n"
                      "m = importlib.import_module('smallvol.lobachevsky')\n"
                      "import smallvol.jets\n"
                      "assert smallvol.lobachevsky is m.lobachevsky")

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            smallvol.no_such_name


PUBLIC_NAMES = [
    "Certificate", "ComplexJet", "CuspData", "GluingEquation", "GluingSystem",
    "InconclusiveError", "Interval", "Jet", "SeriesCoeffs", "ShapeAssignment",
    "SlopeList", "arg_complex", "atan_jet", "certified_volume", "enumerate_slopes",
    "figure_eight_system", "jacobian", "krawczyk_certify", "lobachevsky", "log_jet",
    "prove_volume_gt", "residual", "select_square_subsystem",
    "series_coeffs", "slope_length", "slope_length_bound",
]

# Names that no command, selftest or acceptance check reached, deleted
# from the library: (where they lived, their names).
REMOVED_NAMES = (
    ("smallvol", ("check_positive_orientation", "dihedral_angles", "fkp_lower_bound",
                  "prove_volume_le", "range_reduce")),
    ("smallvol.formats", ("serialize_gluing", "serialize_presentation", "serialize_script")),
    ("smallvol.geometry", ("check_positive_orientation", "dihedral_angles",
                           "prove_volume_le")),
    ("smallvol.geometry.Interval", ("contains",)),
    ("smallvol.geometry.ShapeAssignment", ("shape_jets",)),
    ("smallvol.filling", ("fkp_lower_bound",)),
    ("smallvol.grouptool.presentation.Presentation", ("word", "word_text")),
    ("smallvol.grouptool.search", ("_successors",)),
    ("smallvol.jets.ComplexJet", ("variable",)),
    ("smallvol.jets.Jet", ("widened",)),
    ("smallvol.lobachevsky", ("range_reduce",)),
)


class TestPublicSurface:
    def test_all_is_pinned(self):
        assert smallvol.__all__ == PUBLIC_NAMES

    def test_every_public_name_resolves(self):
        eager = {"SeriesCoeffs", "lobachevsky", "series_coeffs"}
        assert set(PUBLIC_NAMES) - set(smallvol._LAZY) == eager
        for name in PUBLIC_NAMES:
            value = getattr(smallvol, name)
            if name not in eager:
                assert smallvol.__getattr__(name) is value, name

    @pytest.mark.parametrize("where, names", REMOVED_NAMES,
                             ids=[where for where, _ in REMOVED_NAMES])
    def test_removed_names_raise(self, where, names):
        module, _, attr = where.rpartition(".")
        owner = (importlib.import_module(where) if attr[0].islower()
                 else getattr(importlib.import_module(module), attr))
        for name in names:
            with pytest.raises(AttributeError):
                getattr(owner, name)


def test_benchmark_tracer_finds_its_names(monkeypatch):
    """``bench/run.py --trace 1`` wraps the functions named in
    ``bench.tracing.SPANS`` by name, so each must still exist; removing
    the wrappers puts every original back."""
    monkeypatch.syspath_prepend(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    tracing = importlib.import_module("bench.tracing")
    originals = [getattr(module, attr) for module, attr, _ in tracing.SPANS.values()]
    remove = tracing.instrument(tracing.Recorder())
    remove()
    assert [getattr(module, attr)
            for module, attr, _ in tracing.SPANS.values()] == originals


def test_cli_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(smallvol.__file__)))
    code = "import sys, smallvol.cli; sys.exit(int('numpy' in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestNonhyp:
    def test_default_depth_is_eight(self, capsys, tmp_path):
        # a16 = 1 takes eight insertions of a2, and a18 = 1 nine.
        pres = tmp_path / "a2.pres"
        pres.write_text("gens a\nrel a2\n")
        notes = {}
        for word in ("a16", "a18"):
            script = tmp_path / f"{word}.script"
            script.write_text(f"trivial {word}\n")
            rc, out, _ = run_cli(capsys, "nonhyp", str(pres), "--script", str(script))
            assert rc == 1  # no conclusion step
            notes[word] = out
        assert "note: verified a16 = 1 (8 insertions)" in notes["a16"]
        assert "could not derive a18 = 1 within depth 8" in notes["a18"]

    def test_inline_power_relator(self, capsys):
        rc, out, _ = run_cli(capsys, "nonhyp", "--rel", "a3b2")
        assert rc == 0
        assert "verdict: nonhyperbolic" in out
        assert "reason: power-relator" in out

    @pytest.mark.parametrize("pres_text, script_text_, code, line", (
        (presentation_text("p44_01"), script_text("p44_01"), 0, "verdict: nonhyperbolic"),
        # A 3000-way branch on a^3000 = 1 stays fast.
        ("gens a b\nrel a3000\nrel ab\n", "branch a 3000\nconclude abelian\n", 0,
         "verdict: nonhyperbolic"),
        # The 8 * 10^6 rotation letters of this relator are charged to the
        # search's letter budget before the search starts.
        ("gens a b\nrel a1000b1000\n", "trivial ab\nconclude abelian\n", 1,
         "reason: step 1 failed: could not derive ab = 1 within the"
         " 10000000-letter search budget (depth 8)"),
    ), ids=("p44_01", "branch-a3000", "relator-a1000b1000"))
    def test_script_corpus_member(self, capsys, tmp_path, pres_text, script_text_, code,
                                  line):
        pres = tmp_path / "g.pres"
        script = tmp_path / "g.script"
        pres.write_text(pres_text)
        script.write_text(script_text_)
        rc, out, _ = run_cli(capsys, "nonhyp", str(pres),
                             "--script", str(script))
        assert rc == code and line + "\n" in out

    def test_no_pattern_no_script(self, capsys, tmp_path):
        pres = tmp_path / "g.pres"
        pres.write_text("gens a b\nrel abab-1a-1ba-1b-1\n")
        rc, out, _ = run_cli(capsys, "nonhyp", str(pres))
        assert rc == 1 and "verdict: inconclusive" in out

    def test_presentation_over_the_word_cap_is_malformed(self, capsys, tmp_path):
        pres = tmp_path / "g.pres"
        pres.write_text(f"gens a b\nrel a{words.MAX_WORD_LENGTH + 1}b\n")
        rc, _, err = run_cli(capsys, "nonhyp", str(pres))
        assert rc == 2 and "cap" in err

    @pytest.mark.parametrize("extra, code", ((0, 1), (1, 2)))
    def test_presentation_letter_cap(self, capsys, tmp_path, extra, code):
        # Ten relators of MAX_WORD_LENGTH letters fill the cap exactly.
        assert 10 * words.MAX_WORD_LENGTH == MAX_PRESENTATION_LETTERS
        pres = tmp_path / "g.pres"
        relator = f"rel a{words.MAX_WORD_LENGTH - 1}b\n"
        pres.write_text("gens a b\n" + relator * 10 + "rel a\n" * extra)
        rc, out, err = run_cli(capsys, "nonhyp", str(pres))
        assert rc == code
        if code == 2:
            assert out == "" and err == (
                f"error: relators exceed the {MAX_PRESENTATION_LETTERS}-letter presentation cap\n")

    def test_many_long_relators_are_refused_before_expansion(self, capsys, tmp_path,
                                                             monkeypatch):
        # 380 KB of relators a^k b^m a^-1 b^-1 (k, m in 100..999) spell about
        # 11 million letters; the file is refused before they pass the cap.
        rng = random.Random(27)
        pres = tmp_path / "g.pres"
        pres.write_text("gens a b\n" + "".join(
            f"rel a{rng.randint(100, 999)}b{rng.randint(100, 999)}a-1b-1\n"
            for _ in range(20000)))
        script = tmp_path / "g.script"
        script.write_text("commutes aba-1b-1 ab\nconclude abelian\n")
        spelled = []
        spell = words.spell

        def counting(*args):
            letters = spell(*args)
            spelled.append(letters)
            return letters
        monkeypatch.setattr(words, "spell", counting)
        rc, out, err = run_cli(capsys, "nonhyp", str(pres), "--script", str(script))
        assert rc == 2 and out == "" and "presentation cap" in err
        assert spelled[-1] is None
        assert sum(map(len, spelled[:-1])) <= MAX_PRESENTATION_LETTERS

    def test_missing_args(self, capsys):
        rc, _, err = run_cli(capsys, "nonhyp")
        assert rc == 2

    def test_file_and_rel_together_are_malformed(self, capsys, tmp_path):
        # --rel used to win silently, with the file never read
        pres = tmp_path / "g.pres"
        pres.write_text("gens a b\nrel abab-1a-1ba-1b-1\n")
        rc, out, err = run_cli(capsys, "nonhyp", str(pres), "--rel", "a3b2")
        assert rc == 2 and out == ""
        assert err == "error: nonhyp takes a presentation file or --rel, not both\n"

    @pytest.mark.parametrize("value", ("-1", "x"))
    def test_invalid_depth_is_malformed(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            cli.main(["nonhyp", "--rel", "a3", f"--depth={value}"])
        assert exc.value.code == 2
        assert "argument --depth" in capsys.readouterr().err

    @pytest.mark.parametrize("rel", ("a3b2\nrel ab", "a3b2\n", "a3b2 #"))
    def test_rel_is_a_word_not_file_text(self, capsys, rel):
        # --rel used to be spliced into presentation text: a3b2\nrel ab
        # added a relator over the generators a b e l r, split the
        # command line in two and exited 1, and a3b2 # proved.
        rc, out, err = run_cli(capsys, "nonhyp", "--rel", rel)
        assert rc == 2 and out == "" and err.startswith("error: ")

    def test_line_break_in_a_file_name_is_malformed(self, capsys, tmp_path):
        # Echoed, such a name split the command line in two.
        pres = tmp_path / "g\n.pres"
        pres.write_text("gens a b\nrel a3b2\n")
        script = tmp_path / "g\n.script"
        script.write_text("conclude abelian\n")
        for argv, name in (([str(pres)], "file"),
                           (["--rel", "a3b2", "--script", str(script)], "--script")):
            rc, out, err = run_cli(capsys, "nonhyp", *argv)
            assert rc == 2 and out == ""
            assert err.startswith(f"error: {name} holds a line break: "), err

    def test_zero_depth_accepted(self, capsys):
        rc, out, _ = run_cli(capsys, "nonhyp", "--rel", "a3b2", "--depth", "0")
        assert rc == 0 and "verdict: nonhyperbolic" in out

    def test_corpus_report_bodies_are_pinned(self, capsys, tmp_path):
        # Each corpus script's report, less its command: and elapsed_ms:
        # lines, as tests/nonhyp_corpus_reports.txt pins it; the search's
        # work order must not move a certificate, and a second run in the
        # same process prints the same.
        pins, name = {}, None
        with open(os.path.join(os.path.dirname(__file__), "nonhyp_corpus_reports.txt"),
                  encoding="utf-8") as f:
            for line in f.read().splitlines():
                if line.startswith("== "):
                    name = line[3:]
                    pins[name] = []
                else:
                    pins[name].append(line)
        assert list(pins) == list(CORPUS)
        for name in CORPUS:
            pres, script = tmp_path / f"{name}.pres", tmp_path / f"{name}.script"
            pres.write_text(presentation_text(name))
            script.write_text(script_text(name))
            bodies = []
            for _ in range(2):
                rc, out, _ = run_cli(capsys, "nonhyp", str(pres), "--script", str(script))
                assert rc == 0
                bodies.append([l for l in body(out) if not l.startswith("command:")])
            assert bodies == [pins[name], pins[name]], name


    @pytest.mark.parametrize("name, step, reason", [
        ("p44_04", "power a 2500 b 1000", "missing fact [a^2500, b^1000] = 1"),
        ("p43_01", "power ab 1200 b-1 900", "missing fact [ab^1200, b-1^900] = 1"),
        ("p44_07", "power a-1 1750 ba 600", "missing fact [a-1^1750, ba^600] = 1"),
    ])
    def test_hostile_power_report_bodies_are_pinned(self, capsys, tmp_path, name, step,
                                                    reason):
        # Powers of up to 2,500 letters, built by repeated free reduction,
        # leave the report as it was: inconclusive at the power step.
        pres, script = tmp_path / f"{name}.pres", tmp_path / "hostile.script"
        pres.write_text(presentation_text(name))
        script.write_text(f"{step}\nconclude abelian\n")
        rc, out, _ = run_cli(capsys, "nonhyp", str(pres), "--script", str(script))
        assert rc == 1
        assert [l for l in body(out) if not l.startswith("command:")] == [
            "mode: script", "verdict: inconclusive", f"reason: step 1 failed: {reason}"]

class TestSelftest:
    def test_all_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "selftest")
        assert rc == 0
        assert "failures: 0" in out
        assert "FAIL" not in out

    def test_selftest_checks_libm(self, capsys):
        rc, out, _ = run_cli(capsys, "selftest")
        assert "check: libm-log pass\n" in out
        assert "check: libm-atan pass\n" in out


class TestRoundTrips:
    """Each parser reads back the canonical text of what it parsed: every
    number, word and token it keeps is all the file says."""

    def test_gluing_round_trip(self):
        sys_ = parse_gluing(figure_eight_text())
        lines = [f"tets {sys_.n}"]
        lines += [f"shape {i} {z.real!r} {z.imag!r}" for i, z in enumerate(sys_.shapes)]
        lines += [f"eq {' '.join(map(str, eq.a))} ; {' '.join(map(str, eq.b))} ; {eq.c}"
                  for eq in sys_.equations]
        assert parse_gluing("\n".join(lines)) == sys_

    @pytest.mark.parametrize("name", CORPUS)
    def test_presentation_round_trip(self, name):
        p = parse_presentation(presentation_text(name))
        lines = ["gens " + " ".join(p.generators)]
        lines += ["rel " + words.format_word(r, p.generators) for r in p.relators]
        assert parse_presentation("\n".join(lines)) == p

    @pytest.mark.parametrize("name", CORPUS)
    def test_script_round_trip(self, name):
        s = parse_script(script_text(name))
        assert parse_script("\n".join(map(" ".join, s.steps))).steps == s.steps

    def test_report_determinism(self, capsys, fig8_file):
        _, out1, _ = run_cli(capsys, "volume", fig8_file, "--gt", "0.943")
        _, out2, _ = run_cli(capsys, "volume", fig8_file, "--gt", "0.943")
        assert body(out1) == body(out2)
