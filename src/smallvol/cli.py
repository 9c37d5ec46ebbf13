"""Command-line interface.

Subcommands: ``bound``, ``enumerate``, ``certify``, ``volume``,
``nonhyp`` and ``selftest``.  Reports are machine-parseable: one
``key: value`` pair per line, the first (``command``) echoing the
arguments the command ran on and the wall-clock line (``elapsed_ms``)
always last, so the rest of the report is byte-identical across runs.

Exit codes: 0 the claim was verified, 1 the computation was
inconclusive (never an assertion of the negative), 2 malformed input.

Each subcommand loads only the modules it runs: ``bound`` and
``enumerate`` load ``filling``, ``certify`` loads ``formats``,
``certify`` and the point layer ``points``, ``volume`` loads these and
``geometry`` and ``jets`` too, and ``nonhyp`` loads ``formats`` and
``grouptool``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

# Importing the package loads only lobachevsky and rounding; every other
# submodule loads on first access through ``smallvol.<module>`` (the
# package's PEP 562 ``__getattr__``).  So each command loads just the
# modules it runs, and from its second call on a lookup costs one
# attribute access.
import smallvol
from .rounding import JetDomainError, _up

OK, UNDECIDED, BAD_INPUT = 0, 1, 2


class Report:
    """Ordered ``key: value`` lines, the wall-clock line last."""

    def __init__(self, command: str):
        self.lines = [("command", command)]
        self.t0 = time.perf_counter()

    def add(self, key, value):
        self.lines.append((key, value))

    def emit(self):
        for key, value in self.lines:
            print(f"{key}: {value}")
        ms = int(round(1000 * (time.perf_counter() - self.t0)))
        print(f"elapsed_ms: {ms}")


def _cutoff_upper(parent: float, target: float, fudge: float = 0.0) -> float:
    """A float whose repr is >= 2 pi (1 + fudge) / sqrt(1 - (target /
    parent)^(2/3)), read as a decimal.  Rounding up the square root of
    filling's certified upper square gives a float above the cutoff; one
    more step up keeps the repr, which may lie up to half an ulp below
    its float, above it too."""
    c2_hi = smallvol.filling._cutoff_squared(parent, target, fudge)[1]
    return _up(_up(math.sqrt(c2_hi)))


def _pair_lines(cusp, pairs):
    """``p q length`` for each pair, the length printed as the repr of a
    float at or above |p * meridian + q * longitude|.  The four parts are
    integers over one power of two, so the squared length is an integer
    sq >= 1 over its square; isqrt(sq - 1) + 1 is the ceiling of its
    square root, and two steps up cover the division and the repr, as in
    ``_cutoff_upper``."""
    parts = [x.as_integer_ratio() for x in (cusp.meridian.real, cusp.meridian.imag,
                                            cusp.longitude.real, cusp.longitude.imag)]
    den = max(d for _, d in parts)
    mr, mi, lr, li = (n * (den // d) for n, d in parts)
    for p, q, _ in pairs:
        root = math.isqrt((p * mr + q * lr) ** 2 + (p * mi + q * li) ** 2 - 1) + 1
        yield f"{p} {q} {_up(_up(root / den))!r}"


def _complex_flag(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected re,im (e.g. 0.5,1.32), got {text!r}"
        ) from exc


def _finite_flag(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


class _Typed(float):
    """A finite float flag that keeps the text it was read from."""

    __slots__ = ("text",)


def _typed_flag(text: str) -> _Typed:
    x = _Typed(_finite_flag(text))
    x.text = text
    return x


def _at_most(x: float, bound: _Typed) -> bool:
    """x <= T for the decimal T typed as ``bound``.  float(T) is the
    double nearest T, so x < float(T) implies x < T, and x > float(T)
    implies x > T.  Only x == float(T) is settled on T itself, as the
    integer ratios num * 10^exp and x.as_integer_ratio()."""
    if x != bound:
        return x < bound
    mant, _, tail = bound.text.strip().replace("_", "").lower().partition("e")
    whole, _, frac = mant.partition(".")
    num, exp = int(whole + frac), int(tail or 0) - len(frac)
    if not x:
        return num >= 0
    # T rounds to x != 0, so 10^|exp| has at most the digits of the text
    # plus 324.
    n, d = x.as_integer_ratio()
    if exp >= 0:
        return n <= num * 10 ** exp * d
    return n * 10 ** -exp <= num * d


def _delta_flag(text: str) -> float:
    x = _finite_flag(text)
    if x < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return x


def _tol_flag(text: str) -> float:
    x = _finite_flag(text)
    if x <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return x


def _depth_flag(text: str) -> int:
    d = int(text)  # argparse reports a ValueError as a bad value
    if d < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return d


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 is malformed input."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise smallvol.formats.FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def cmd_bound(args, rep) -> int:
    smallvol.filling.slope_length_bound(args.parent, args.target)  # checks the volumes
    rep.add("bound", repr(_cutoff_upper(args.parent, args.target)))
    rep.add("floor_2pi", f"{2 * math.pi:.12g}")
    return OK


def cmd_enumerate(args, rep) -> int:
    filling = smallvol.filling
    cusp = filling.CuspData(args.meridian, args.longitude, args.parent)
    slopes = filling.enumerate_slopes(cusp, args.target, args.fudge)
    rep.add("bound", repr(_cutoff_upper(args.parent, args.target)))
    rep.add("cutoff", repr(_cutoff_upper(args.parent, args.target, args.fudge)))
    rep.add("pairs", len(slopes.pairs))
    for line in _pair_lines(cusp, slopes.pairs):
        rep.add("pair", line)
    return OK


def _load_system(path: str):
    return smallvol.formats.parse_gluing(_read_text(path))


def _certify_into(rep: Report, sys_):
    certify = smallvol.certify
    try:
        cert = certify.krawczyk_certify(sys_)
    except (certify.InconclusiveError, certify.CertifyError, JetDomainError) as exc:
        rep.add("certified", "no")
        rep.add("reason", str(exc))
        return None
    rep.add("certified", "yes")
    rep.add("delta", repr(cert.delta))
    rep.add("box_radius", repr(cert.box_radius))
    rep.add("selected", " ".join(str(i + 1) for i in cert.selected))
    for i, z in enumerate(cert.refined_center):
        rep.add("center", f"{i} {z.real!r} {z.imag!r}")
    rep.add("residual_max", repr(max(cert.residual_norms)))
    return cert


def cmd_certify(args, rep) -> int:
    cert = _certify_into(rep, _load_system(args.file))
    return OK if cert is not None else UNDECIDED


def cmd_volume(args, rep) -> int:
    sys_ = _load_system(args.file)
    if args.delta is None:
        cert = _certify_into(rep, sys_)
        if cert is None:
            rep.add("verdict", "inconclusive")
            return UNDECIDED

    geometry = smallvol.geometry
    try:
        if args.delta is None:
            assignment = cert.shape_assignment()
        else:
            assignment = geometry.ShapeAssignment(sys_.shapes, args.delta)
        iv = geometry.certified_volume(assignment, tol=1e-12 if args.tol is None else args.tol)
    except (geometry.OrientationError, ValueError, JetDomainError) as exc:
        rep.add("volume", "inconclusive")
        rep.add("reason", str(exc))
        rep.add("verdict", "inconclusive")
        return UNDECIDED
    rep.add("volume_lo", repr(iv.lo))
    rep.add("volume_hi", repr(iv.hi))

    claims = []
    if args.gt is not None:
        claims.append(iv.lo > args.gt)
        rep.add("gt_claim", f"{args.gt!r} {'proven' if claims[-1] else 'unproven'}")
    if args.le is not None:
        claims.append(_at_most(iv.hi, args.le))
        rep.add("le_claim", f"{args.le!r} {'proven' if claims[-1] else 'unproven'}")
    # With --delta nothing certified that a solution exists within delta,
    # so a claim that holds on the interval is assumed-delta, not proven.
    if claims:
        if not all(claims):
            verdict = "inconclusive"
        else:
            verdict = "proven" if args.delta is None else "assumed-delta"
        rep.add("verdict", verdict)
        return OK if verdict == "proven" else UNDECIDED
    rep.add("verdict", "certified" if args.delta is None else "assumed-delta")
    return OK


def cmd_nonhyp(args, rep) -> int:
    if args.file is None and args.rel is None:
        raise ValueError("nonhyp needs a presentation file or --rel")
    if args.file is not None and args.rel is not None:
        raise ValueError("nonhyp takes a presentation file or --rel, not both")
    formats, grouptool = smallvol.formats, smallvol.grouptool
    if args.rel is not None:
        gens = sorted({c for c in args.rel if c.isalpha()})
        pres = grouptool.Presentation.from_strings(gens, [args.rel])
    else:
        pres = formats.parse_presentation(_read_text(args.file))

    if args.script is not None:
        script = formats.parse_script(_read_text(args.script))
        depth = grouptool.search.DEFAULT_DEPTH if args.depth is None else args.depth
        verdict = grouptool.verify_script(pres, script, depth=depth)
        rep.add("mode", "script")
    else:
        verdict = grouptool.detect_power_relator(pres)
        rep.add("mode", "pattern")
    rep.add("verdict", verdict.status)
    rep.add("reason", verdict.reason)
    for line in verdict.log:
        rep.add("note", line)
    return OK if verdict.nonhyperbolic else UNDECIDED


def cmd_selftest(args, rep) -> int:
    failures = 0
    certify, data, filling = smallvol.certify, smallvol.data, smallvol.filling
    formats, geometry, grouptool = smallvol.formats, smallvol.geometry, smallvol.grouptool

    def check(name, ok):
        nonlocal failures
        rep.add("check", f"{name} {'pass' if ok else 'FAIL'}")
        if not ok:
            failures += 1

    # Every volume and residual enclosure assumes libm's log/atan error is
    # within the charge of points._libm_err; check that on this platform first.
    for fn in ("log", "atan"):
        check(f"libm-{fn}", smallvol.points.libm_covered(fn))

    b = filling.slope_length_bound(5.33349, 2.848)
    check("slope-length-bound", 10.74 <= b <= 10.76)

    cusp = filling.CuspData(complex(0.5, math.sqrt(7) / 2), 2.0, 5.33349)
    slopes = filling.enumerate_slopes(cusp, 2.848, 0.01)
    check("s776-enumeration-46", len(slopes.pairs) == 46)

    sys_ = formats.parse_gluing(data.figure_eight_text())
    try:
        cert = certify.krawczyk_certify(sys_)
        check("figure-eight-certified", cert.delta < 1e-8)
        iv = geometry.certified_volume(cert.shape_assignment())
        check("figure-eight-volume",
              iv.lo <= 2.0298832128193072 <= iv.hi and iv.width() < 1e-5)
        check("figure-eight-gt-0.943", iv.lo > 0.943)
        check("figure-eight-le-2.848", iv.hi <= 2.848)
    except (certify.CertifyError, certify.InconclusiveError):
        check("figure-eight-certified", False)

    tet = geometry.ShapeAssignment((complex(0.5, math.sqrt(3) / 2),), 0.0)
    iv = geometry.certified_volume(tet)
    check("regular-tetrahedron-volume",
          iv.lo <= 1.0149416064096536 <= iv.hi and iv.width() < 1e-6)

    for name in data.CORPUS:
        pres = formats.parse_presentation(data.presentation_text(name))
        script = formats.parse_script(data.script_text(name))
        check(f"script-{name}", grouptool.verify_script(pres, script).nonhyperbolic)

    pres = formats.parse_presentation("gens a b\nrel a3b2\n")
    check("detect-a3b2", grouptool.detect_power_relator(pres).nonhyperbolic)

    rep.add("failures", failures)
    return OK if failures == 0 else UNDECIDED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every
    ``main`` call in the process; each call parses into a fresh
    Namespace, so nothing carries over between calls."""
    ap = argparse.ArgumentParser(
        prog="smallvol",
        description="verified computation for small-volume hyperbolic "
                    "3-manifolds",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bound", help="slope-length bound from volumes")
    p.add_argument("--parent", type=_finite_flag, required=True)
    p.add_argument("--target", type=_finite_flag, default=2.848)
    p.set_defaults(fn=cmd_bound, echo=("--parent", "--target"))

    p = sub.add_parser("enumerate", help="enumerate candidate filling slopes")
    p.add_argument("--meridian", type=_complex_flag, required=True)
    p.add_argument("--longitude", type=_complex_flag, required=True)
    p.add_argument("--parent", type=_finite_flag, required=True)
    p.add_argument("--target", type=_finite_flag, default=2.848)
    p.add_argument("--fudge", type=_finite_flag, default=0.01)
    p.set_defaults(fn=cmd_enumerate, echo=("--meridian", "--longitude", "--parent",
                                           "--target", "--fudge"))

    p = sub.add_parser("certify", help="certify a gluing-equation solution")
    p.add_argument("file")
    p.set_defaults(fn=cmd_certify, echo=("file",))

    p = sub.add_parser("volume", help="certified volume interval")
    p.add_argument("file")
    p.add_argument("--delta", type=_delta_flag, default=None,
                   help="assume this solution-distance bound instead of "
                        "running certification (verdict: assumed-delta; "
                        "a claim is then never proven and exits 1)")
    p.add_argument("--tol", type=_tol_flag, default=None,
                   help="Lobachevsky series truncation tolerance (> 0, "
                        "default 1e-12)")
    p.add_argument("--gt", type=_finite_flag, default=None,
                   help="prove volume strictly greater than this")
    p.add_argument("--le", type=_typed_flag, default=None,
                   help="prove volume at most this")
    p.set_defaults(fn=cmd_volume, echo=("file", "--delta", "--tol", "--gt", "--le"))

    p = sub.add_parser("nonhyp", help="check a non-hyperbolicity claim")
    p.add_argument("file", nargs="?", default=None,
                   help="presentation file")
    p.add_argument("--rel", default=None,
                   help="inline single relator, e.g. a3b2")
    p.add_argument("--script", default=None, help="proof script file")
    p.add_argument("--depth", type=_depth_flag, default=None,
                   help="search depth for direct-calculation steps")
    p.set_defaults(fn=cmd_nonhyp, echo=("file", "--rel", "--script", "--depth"))

    p = sub.add_parser("selftest", help="run the embedded fixture suite")
    p.set_defaults(fn=cmd_selftest, echo=())
    return ap


def _echo(args) -> str:
    """The ``command:`` line: the subcommand and each of its echoed
    arguments that is set, positionals bare and options as ``--flag
    value``, numbers by ``repr`` and complex numbers as ``re,im``.  A
    value holding a line break would split the line: malformed input."""
    out = [args.cmd]
    for name in args.echo:
        value = getattr(args, name.lstrip("-"))
        if value is None:
            continue
        if isinstance(value, complex):
            value = f"{value.real!r},{value.imag!r}"
        elif not isinstance(value, str):
            value = repr(value)
        elif "".join(value.splitlines()) != value:
            raise ValueError(f"{name} holds a line break: {value!r}")
        out += [name, value] if name.startswith("--") else [value]
    return " ".join(out)


def main(argv=None) -> int:
    """Run one subcommand and print its report.  A command only adds
    report lines; an ``OSError`` or ``ValueError`` that escapes it or the
    ``command:`` echo is malformed input, reported on stderr with nothing
    on stdout."""
    args = build_parser().parse_args(argv)
    try:
        rep = Report(_echo(args))
        code = args.fn(args, rep)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    rep.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
