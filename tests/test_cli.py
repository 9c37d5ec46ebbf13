import importlib
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

import smallvol
from smallvol import cli
from smallvol.data import CORPUS, figure_eight_text, presentation_text, script_text
from smallvol.formats import (
    FormatError,
    parse_gluing,
    parse_presentation,
    parse_script,
    serialize_gluing,
    serialize_presentation,
    serialize_script,
)
from smallvol.grouptool import words


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def body(text):
    """Report lines without the timing line."""
    return [l for l in text.splitlines() if not l.startswith("elapsed_ms:")]


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
    50-digit oracle."""

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
                cutoff = exact * (1 + mpmath.mpf(fudge))
                assert mpmath.mpf(_reported(out_e, "cutoff")) >= cutoff, (parent, target, fudge)

    def test_readme_example(self, capsys):
        _, out, _ = run_cli(capsys, "bound", "--parent", "5.33349", "--target", "2.848")
        # the exact bound is 10.747030973534655657...
        assert _reported(out, "bound") == "10.74703097353467"


def _fields(out):
    """The report's (key, value) pairs, in order."""
    return [tuple(l.split(": ", 1)) for l in out.splitlines() if l]


def _echoed_flags(out):
    """{flag: text} for the ``--flag value`` pairs of the command line."""
    words = _fields(out)[0][1].split()
    return {w: words[i + 1] for i, w in enumerate(words) if w.startswith("--")}


class TestReportFields:
    """Every numeric report field reads back as the value the command
    used: echoed flags and claim thresholds equal the parsed arguments,
    printed lengths lie at or above the exact ones, and certificate and
    volume fields equal the library's results."""

    PARENT, TARGET = 4.234022804821794, 2.0832521155408212

    def test_bound(self, capsys):
        rc, out, _ = run_cli(capsys, "bound", f"--parent={self.PARENT!r}",
                             f"--target={self.TARGET!r}")
        assert rc == 0
        flags = _echoed_flags(out)
        assert (float(flags["--parent"]), float(flags["--target"])) == (self.PARENT, self.TARGET)
        fields = dict(_fields(out))
        assert float(fields["bound"]) == cli._cutoff_upper(self.PARENT, self.TARGET)
        # floor_2pi is 2 pi to 12 significant digits
        assert abs(float(fields["floor_2pi"]) - 2 * math.pi) <= 5e-12 * 2 * math.pi
        assert set(fields) == {"command", "bound", "floor_2pi", "elapsed_ms"}

    @pytest.mark.parametrize("meridian, longitude, target, fudge", (
        (complex(10.236478896057733, 0), 50j, TARGET, 0.0),
        (complex(0.5, 1.3228756555322954), complex(2, 0), 2.848, 0.010000000000000002),
        (complex(1.0000000000000002, 0.30000000000000004), complex(-0.1, 3.3), 2.848, 0.01),
    ))
    def test_enumerate(self, capsys, meridian, longitude, target, fudge):
        rc, out, _ = run_cli(capsys, "enumerate",
                             f"--meridian={meridian.real!r},{meridian.imag!r}",
                             f"--longitude={longitude.real!r},{longitude.imag!r}",
                             f"--parent={self.PARENT!r}", f"--target={target!r}",
                             f"--fudge={fudge!r}")
        assert rc == 0
        flags = _echoed_flags(out)
        assert complex(*map(float, flags["--meridian"].split(","))) == meridian
        assert complex(*map(float, flags["--longitude"].split(","))) == longitude
        assert float(flags["--parent"]) == self.PARENT
        assert (float(flags["--target"]), float(flags["--fudge"])) == (target, fudge)
        fields = _fields(out)
        values = dict(fields)
        cusp = smallvol.filling.CuspData(meridian, longitude, self.PARENT)
        slopes = smallvol.filling.enumerate_slopes(cusp, target, fudge)
        assert float(values["bound"]) == cli._cutoff_upper(self.PARENT, target)
        assert float(values["cutoff"]) == cli._cutoff_upper(self.PARENT, target, fudge)
        pairs = [v.split() for k, v in fields if k == "pair"]
        assert int(values["pairs"]) == len(pairs) == len(slopes.pairs) > 0
        m = [Fraction(x) for x in (meridian.real, meridian.imag)]
        l = [Fraction(x) for x in (longitude.real, longitude.imag)]
        for (p, q, text), (p0, q0, length) in zip(pairs, slopes.pairs):
            p, q = int(p), int(q)
            assert (p, q) == (p0, q0)
            exact_sq = (p * m[0] + q * l[0]) ** 2 + (p * m[1] + q * l[1]) ** 2
            assert Fraction(text) ** 2 >= exact_sq
            assert float(text) <= length + 4 * math.ulp(length)

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
        ("tets 1000000000000\n", "need shapes 0..999999999999, got []"),
        ("tets 1\ntets 1\nshape 0 0.5 0.8660254037844386\neq 3 ; 0 ; 1\n",
         "line 2: duplicate 'tets' line"),
        ("tets 1\nshape 0 0.5 0.8660254037844386\nshape 0 0.5 0.8660254037844386\n"
         "eq 3 ; 0 ; 1\n", "line 3: duplicate 'shape 0' line"),
    ), ids=("huge-count", "second-tets", "repeated-shape"))
    def test_count_and_duplicates_are_malformed(self, capsys, tmp_path, text, message):
        # The count is compared before anything of its size is built, and
        # a second line never replaces the first.
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_gluing(text)
        p = tmp_path / "bad.gluing"
        p.write_text(text)
        rc, out, err = run_cli(capsys, "certify", str(p))
        assert rc == 2 and out == "" and message in err

    def test_le_is_decided_for_the_typed_decimal(self, capsys, fig8_file):
        # volume_hi is the double 2.02988321282003347789..., which the
        # typed value, below it, rounds to.
        rc, out, _ = run_cli(capsys, "volume", fig8_file,
                             "--le", "2.029883212820033467896686236")
        assert rc == 1
        assert "volume_hi: 2.0298832128200335\n" in out
        assert "le_claim: 2.0298832128200335 unproven\n" in out
        assert "verdict: inconclusive\n" in out
        # The shortest repr of volume_hi lies above it, and proves.
        rc, out, _ = run_cli(capsys, "volume", fig8_file, "--le", "2.0298832128200335")
        assert rc == 0 and "le_claim: 2.0298832128200335 proven\n" in out

    def test_at_most_is_exact(self):
        rng = random.Random(1616)
        cases = [(0.0, "-0"), (0.0, "1e-400"), (0.0, "-1e-400"), (5e-324, "3e-324"),
                 (5e-324, "2.4703282292062328e-324"), (1.0, "+1_0e-1"), (-0.5, "-.5"),
                 (2.0, " 2. "), (1e308, "1E308")]
        for _ in range(2000):
            x = rng.choice((rng.uniform(-4, 4),
                            math.ldexp(rng.random(), rng.randint(-1074, 1023))))
            digits = f"{x:.{rng.randint(15, 40)}e}"
            cases.append((float(digits), digits))
            cases.append((x, repr(x)))
        for x, text in cases:
            bound = cli._typed_flag(text)
            assert float(bound) == float(text) and bound.text == text
            exact = Fraction(text.strip().replace("_", ""))
            for y in (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)):
                assert cli._at_most(y, bound) is (Fraction(y) <= exact), (y, text)

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
            cli.build_parser.cache_clear()
            rc, out, err = run_cli(capsys, *argv)
            first[argv] = (rc, body(out), err)
        assert "gt_claim: 2.0 proven" in first[runs[0]][1]
        assert not any(l.startswith(("gt_claim", "le_claim")) for l in first[runs[1]][1])
        assert "within depth 3" in "\n".join(first[runs[2]][1])
        assert "note: verified a8 = 1 (4 insertions)" in first[runs[3]][1]

        cli.build_parser.cache_clear()
        for argv in runs:
            rc, out, err = run_cli(capsys, *argv)
            assert (rc, body(out), err) == first[argv]
        assert cli.build_parser.cache_info().misses == 1

    def test_parser_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(smallvol.__file__)))
        code = ("import sys, smallvol.cli; "
                "sys.exit(smallvol.cli.build_parser.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=src)
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# Standard modules a command should not load: dataclasses brings inspect,
# and fractions brings decimal and numbers.
WATCHED = ("smallvol", "dataclasses", "fractions", "decimal")


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
          "fractions", "decimal")),
        (["enumerate", "--meridian", "0.5,1.3228756555322954", "--longitude", "2,0",
          "--parent", "5.33349"], ("smallvol.certify", "smallvol.geometry",
                                   "smallvol.formats", "smallvol.grouptool",
                                   "smallvol.jets", "smallvol.points", "dataclasses")),
        (["volume", FIG8, "--gt", "2"],
         ("smallvol.grouptool", "smallvol.filling", "fractions", "decimal")),
        # The Krawczyk test runs on the point layer alone.
        (["certify", FIG8], ("smallvol.grouptool", "smallvol.filling", "smallvol.jets",
                             "smallvol.geometry", "fractions", "decimal")),
        (["nonhyp", "--rel", "a3b2"], ("smallvol.certify", "smallvol.geometry",
                                       "smallvol.filling", "smallvol.jets",
                                       "smallvol.points", "fractions", "decimal")),
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
        (["volume", FIG8, "--gt", "2", "--le", "2.029883212820033467896686236"],
         {"smallvol.certify", "smallvol.geometry", "smallvol.jets", "smallvol.points"}),
    ))
    def test_command_loads_the_modules_it_runs(self, argv, present):
        loaded = _loaded_after(
            "import contextlib, io\nfrom smallvol import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    cli.main({argv!r})")
        assert present <= loaded
        assert not loaded & {"fractions", "decimal"}

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

    def test_script_corpus_member(self, capsys, tmp_path):
        pres = tmp_path / "g.pres"
        script = tmp_path / "g.script"
        pres.write_text(presentation_text("p44_01"))
        script.write_text(script_text("p44_01"))
        rc, out, _ = run_cli(capsys, "nonhyp", str(pres),
                             "--script", str(script))
        assert rc == 0 and "verdict: nonhyperbolic" in out

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
    def test_gluing_round_trip(self):
        sys_ = parse_gluing(figure_eight_text())
        again = parse_gluing(serialize_gluing(sys_))
        assert again == sys_

    @pytest.mark.parametrize("name", CORPUS)
    def test_presentation_round_trip(self, name):
        p = parse_presentation(presentation_text(name))
        assert parse_presentation(serialize_presentation(p)) == p

    @pytest.mark.parametrize("name", CORPUS)
    def test_script_round_trip(self, name):
        s = parse_script(script_text(name))
        assert parse_script(serialize_script(s)).steps == s.steps

    def test_report_determinism(self, capsys, fig8_file):
        _, out1, _ = run_cli(capsys, "volume", fig8_file, "--gt", "0.943")
        _, out2, _ = run_cli(capsys, "volume", fig8_file, "--gt", "0.943")
        assert body(out1) == body(out2)
