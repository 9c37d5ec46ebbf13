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
``geometry``, and ``jets`` too unless ``--delta 0`` makes the shapes
exact, and ``nonhyp`` loads ``formats`` and ``grouptool``.  ``--tol``
bounds the series truncation on the jet path only: exact shapes are
summed to full precision.  A claim is made about the decimals typed:
``--gt`` and ``--le`` are compared with them exactly (``_compare``),
``--parent`` is rounded down and ``--target`` up, and the meridian and
longitude parts are read as exact ratios (``_decimal``).

The command line is read in one pass over the table ``COMMANDS``, with
no argparse: each flag as ``--flag value`` or ``--flag=value``, spelled
in full or by a unique prefix, its value taken whatever it starts with
(``--meridian -0.5,1.32``), the last of a repeated flag winning, and
``-h`` printing the help.
"""

from __future__ import annotations

import math
import os
import sys
import time

# Importing the package loads only lobachevsky and rounding; every other
# submodule loads on first access through ``smallvol.<module>`` (the
# package's PEP 562 ``__getattr__``).  So each command loads just the
# modules it runs, and from its second call on a lookup costs one
# attribute access.
import smallvol
from .rounding import JetDomainError

OK, UNDECIDED, BAD_INPUT = 0, 1, 2


class Report:
    """Ordered ``key: value`` lines, the wall-clock line last."""

    def __init__(self, command: str):
        self.lines = [("command", command)]
        self.t0 = time.perf_counter()

    def add(self, key, value):
        self.lines.append((key, value))

    def emit(self):
        text = "".join([f"{key}: {value}\n" for key, value in self.lines])
        ms = int(round(1000 * (time.perf_counter() - self.t0)))
        sys.stdout.write(f"{text}elapsed_ms: {ms}\n")


class _TypedPair(complex):
    """A finite ``re,im`` flag that keeps the texts of its two parts."""

    __slots__ = ("texts",)


def _complex_flag(text: str) -> _TypedPair:
    try:
        re_s, im_s = text.split(",")
        z = _TypedPair(_finite_flag(re_s), _finite_flag(im_s))
    except ValueError as exc:
        raise ValueError(
            f"expected re,im (e.g. 0.5,1.32), got {text!r}"
        ) from exc
    z.texts = (re_s, im_s)
    return z


def _finite_flag(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


class _Typed(float):
    """A finite float flag that keeps the text it was read from."""

    __slots__ = ("text",)


def _typed_flag(text: str) -> _Typed:
    x = _Typed(_finite_flag(text))
    x.text = text
    return x


# Significant digits that ``_decimal`` keeps, and the least integer
# with one more.
_DIGITS = 800
_DIGITS_END = 10 ** _DIGITS


def _decimal(text: str) -> tuple:
    """(num, exp) with num * 10^exp the decimal that ``text``, a text
    float() reads as finite, spells.  Digits past the 800th significant
    one become one sticky 1 in the 801st place when any is nonzero: a
    double within a factor 2 of the decimal has at most 767 significant
    digits, none past its 800th, so it lies on the same side of the
    result as of the decimal."""
    text = text.strip()
    if not text.isascii():  # float() reads every Unicode decimal digit
        text = "".join(c if c.isascii() else str(int(c)) for c in text)
    mant, _, tail = text.replace("_", "").lower().partition("e")
    whole, _, frac = mant.lstrip("+-").partition(".")
    digits = (whole + frac).lstrip("0")
    head = digits[:_DIGITS] + ("1" if digits[_DIGITS:].strip("0") else "")
    num = -int(head or 0) if mant.startswith("-") else int(head or 0)
    # A finite value's exponent has a few digits once its leading zeros
    # are dropped; a longer one comes only with a value that float()
    # reads as 0, whose sign alone is used, and is cut to 20 digits.
    exp = int(tail.lstrip("+-").lstrip("0")[:20] or 0)
    exp = (-exp if tail.startswith("-") else exp) - len(frac)
    return num, exp + len(digits) - len(head)


def _compare(x: float, bound: _Typed) -> int:
    """The sign of x - T for the decimal T typed as ``bound``.  float(T)
    is the double nearest T, so x < float(T) implies x < T, and x >
    float(T) implies x > T.  Only x == float(T) is settled on T itself,
    as the integer ratios num * 10^exp and x.as_integer_ratio()."""
    if x != bound:
        return 1 if x > bound else -1
    num, exp = _decimal(bound.text)
    if not x:
        return (num < 0) - (num > 0)
    n, d = x.as_integer_ratio()
    a, b = (n, num * 10 ** exp * d) if exp >= 0 else (n * 10 ** -exp, num * d)
    return (a > b) - (a < b)


def _rounded(x: _Typed, up: bool) -> float:
    """The double next to the decimal typed as ``x``: the nearest one at
    or above it when ``up``, else at or below it."""
    side = _compare(x, x)
    if side == 0 or (side > 0) is up:
        return float(x)
    return math.nextafter(x, math.inf if up else -math.inf)


def _ratio(text: str) -> tuple:
    """(n, d) with n / d exactly the decimal that ``text`` spells; a text
    of more than 800 significant digits, or of a magnitude far out of
    the float range, is malformed."""
    num, exp = _decimal(text)
    if not num:
        return 0, 1
    if abs(num) >= _DIGITS_END or abs(exp) > 2000:
        raise ValueError(f"{text.strip()!r} has too many digits to read exactly")
    return (num * 10 ** exp, 1) if exp >= 0 else (num, 10 ** -exp)


def _delta_flag(text: str) -> float:
    x = _finite_flag(text)
    if x < 0.0:
        raise ValueError(f"must be >= 0, got {text!r}")
    return x


def _tol_flag(text: str) -> float:
    x = _finite_flag(text)
    if x <= 0.0:
        raise ValueError(f"must be > 0, got {text!r}")
    return x


def _depth_flag(text: str) -> int:
    d = int(text)  # its ValueError names the bad value
    if d < 0:
        raise ValueError(f"must be >= 0, got {text!r}")
    return d


def _read_text(path: str) -> str:
    """The file's text; a file that is not UTF-8 is malformed input."""
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as exc:
            raise smallvol.formats.FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _volumes(args) -> tuple:
    """The parent volume rounded down and the target rounded up from the
    decimals typed, so that every bound and list covers the typed ones."""
    return _rounded(args.parent, up=False), _rounded(args.target, up=True)


def cmd_bound(args, rep) -> int:
    rep.add("bound", repr(smallvol.filling.slope_length_bound(*_volumes(args))))
    rep.add("floor_2pi", f"{2 * math.pi:.12g}")
    return OK


def cmd_enumerate(args, rep) -> int:
    filling = smallvol.filling
    parent, target = _volumes(args)
    parts = [_ratio(t) for z in (args.meridian, args.longitude) for t in z.texts]
    cusp = filling.CuspData(args.meridian, args.longitude, parent)
    slopes = filling.enumerate_slopes(cusp, target, args.fudge, parts)
    rep.add("bound", repr(filling.slope_length_bound(parent, target)))
    rep.add("cutoff", repr(slopes.cutoff))
    rep.add("pairs", len(slopes.pairs))
    for p, q, length in slopes.pairs:
        rep.add("pair", f"{p} {q} {length!r}")
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
    except ValueError as exc:  # OrientationError and JetDomainError among them
        rep.add("volume", "inconclusive")
        rep.add("reason", str(exc))
        rep.add("verdict", "inconclusive")
        return UNDECIDED
    rep.add("volume_lo", repr(iv.lo))
    rep.add("volume_hi", repr(iv.hi))

    claims = []
    if args.gt is not None:
        claims.append(_compare(iv.lo, args.gt) > 0)
        rep.add("gt_claim", f"{args.gt!r} {'proven' if claims[-1] else 'unproven'}")
    if args.le is not None:
        claims.append(_compare(iv.hi, args.le) <= 0)
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


# The command table: each subcommand's handler, help line and arguments
# {name: (converter, default, help)}, positionals bare and flags with
# ``--``.  Positionals are filled in table order; a converter of None
# keeps the text, and a default of REQUIRED makes the argument required.
# The ``command:`` line echoes the arguments in table order.
REQUIRED = object()
COMMANDS = {
    "bound": (cmd_bound, "slope-length bound from volumes", {
        "--parent": (_typed_flag, REQUIRED, None),
        "--target": (_typed_flag, _typed_flag("2.848"), None),
    }),
    "enumerate": (cmd_enumerate, "enumerate candidate filling slopes", {
        "--meridian": (_complex_flag, REQUIRED, None),
        "--longitude": (_complex_flag, REQUIRED, None),
        "--parent": (_typed_flag, REQUIRED, None),
        "--target": (_typed_flag, _typed_flag("2.848"), None),
        "--fudge": (_finite_flag, 0.01, None),
    }),
    "certify": (cmd_certify, "certify a gluing-equation solution", {
        "file": (None, REQUIRED, None),
    }),
    "volume": (cmd_volume, "certified volume interval", {
        "file": (None, REQUIRED, None),
        "--delta": (_delta_flag, None,
                    "assume this solution-distance bound instead of running "
                    "certification (verdict: assumed-delta; a claim is then "
                    "never proven and exits 1)"),
        "--tol": (_tol_flag, None,
                  "Lobachevsky series truncation tolerance (> 0, default "
                  "1e-12); exact shapes (--delta 0) are summed to full "
                  "precision"),
        "--gt": (_typed_flag, None, "prove volume strictly greater than this"),
        "--le": (_typed_flag, None, "prove volume at most this"),
    }),
    "nonhyp": (cmd_nonhyp, "check a non-hyperbolicity claim", {
        "file": (None, None, "presentation file"),
        "--rel": (None, None, "inline single relator, e.g. a3b2"),
        "--script": (None, None, "proof script file"),
        "--depth": (_depth_flag, None, "search depth for direct-calculation steps"),
    }),
    "selftest": (cmd_selftest, "run the embedded fixture suite", {}),
}
HELP = ("-h", "--help")


class _Args:
    """The parsed command line: ``cmd`` and each of its arguments by
    name (``--tol`` as ``tol``)."""


def _spelled(name: str) -> str:
    return name if name[0] != "-" else f"{name} {name[2:].upper()}"


def _usage(cmd=None) -> str:
    if cmd is None:
        return f"usage: smallvol [-h] {{{','.join(COMMANDS)}}} ..."
    words = [_spelled(name) if default is REQUIRED else f"[{_spelled(name)}]"
             for name, (_, default, _) in COMMANDS[cmd][2].items()]
    return " ".join(["usage: smallvol", cmd, "[-h]", *words])


def _help(cmd=None) -> str:
    if cmd is None:
        return (f"{_usage()}\n\nverified computation for small-volume hyperbolic "
                "3-manifolds\n\ncommands:\n"
                + "".join(f"  {name:<11} {entry[1]}\n" for name, entry in COMMANDS.items()))
    _, text, spec = COMMANDS[cmd]
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(_spelled(name), help or "") for name, (_, _, help) in spec.items()]
    width = max(len(name) for name, _ in rows)
    return f"{_usage(cmd)}\n\n{text}\n\narguments:\n" + "".join(
        f"  {name:<{width}}  {help}".rstrip() + "\n" for name, help in rows)


def _fail(cmd, message):
    """Report a malformed command line: the usage line and the message
    on stderr, nothing on stdout, exit code 2."""
    prog = "smallvol" if cmd is None else f"smallvol {cmd}"
    sys.stderr.write(f"{_usage(cmd)}\n{prog}: error: {message}\n")
    raise SystemExit(BAD_INPUT)


def _lookup(cmd, name, spec):
    """The flag ``name`` spells: itself, or the one flag (``--help``
    among them) of which it is a prefix; None for no flag."""
    if name in spec or name in HELP:
        return name
    if not name.startswith("--"):
        return None
    found = [flag for flag in ("--help", *spec) if flag.startswith(name)]
    if len(found) > 1:
        _fail(cmd, f"ambiguous option: {name} could match {', '.join(found)}")
    return found[0] if found else None


def parse_args(argv) -> _Args:
    """``argv`` read against the command table in one pass.  A token that
    starts with ``-`` names a flag, spelled in full or by a unique prefix,
    as ``--flag value`` or ``--flag=value``; the token after such a flag
    is its value whatever it starts with.  A repeated flag keeps its last
    value, and after ``--`` every token is a positional.  ``-h`` prints
    the help and exits 0; a malformed command line exits 2."""
    if not argv:
        _fail(None, "the following arguments are required: cmd")
    cmd = argv[0]
    if cmd not in COMMANDS:
        if cmd != "--" and _lookup(None, cmd, {}) in HELP:
            sys.stdout.write(_help())
            raise SystemExit(OK)
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument cmd: invalid choice: {cmd!r} (choose from {choices})")
    spec = COMMANDS[cmd][2]
    slots = [name for name in spec if name[0] != "-"]
    values, extras = {}, []
    flags_end = False
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if flags_end or token[:1] != "-" or token == "-":
            if slots:
                values[slots.pop(0)] = token
            else:
                extras.append(token)
            continue
        if token == "--":
            flags_end = True
            continue
        name, eq, value = token.partition("=")
        flag = _lookup(cmd, name, spec)
        if flag is None:
            extras.append(token)
            continue
        if flag in HELP:
            if eq:
                _fail(cmd, f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_help(cmd))
            raise SystemExit(OK)
        if not eq:
            if i == n:
                _fail(cmd, f"argument {flag}: expected one argument")
            value = argv[i]
            i += 1
        convert = spec[flag][0]
        if convert is not None:
            try:
                value = convert(value)
            except ValueError as exc:
                _fail(cmd, f"argument {flag}: {exc}")
        values[flag] = value

    args = _Args()
    args.cmd = cmd
    missing = []
    for name, (_, default, _) in spec.items():
        value = values.get(name, default)
        if value is REQUIRED:
            missing.append(name)
        setattr(args, name.lstrip("-"), value)
    if missing:
        _fail(cmd, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return args


def _echo(args) -> str:
    """The ``command:`` line: the subcommand and each of its echoed
    arguments that is set, positionals bare and options as ``--flag
    value``, numbers by ``repr`` and complex numbers as ``re,im``.  A
    value holding a line break would split the line: malformed input."""
    out = [args.cmd]
    for name in COMMANDS[args.cmd][2]:
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
    on stdout.  A closed stdout does not change the exit code, and
    writes nothing to stderr."""
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        rep = Report(_echo(args))
        code = COMMANDS[args.cmd][0](args, rep)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    try:
        rep.emit()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head -1``): the verdict stands.
        # What is left unwritten goes to the null device, so the
        # interpreter's flush at exit neither fails nor prints.
        _stdout_to_devnull()
    return code


def _stdout_to_devnull() -> None:
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # a stream with no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
