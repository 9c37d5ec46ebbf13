"""Line-oriented text formats for gluing systems, presentations and scripts.

All three formats are UTF-8, with ``#`` comments and blank lines dropped
by one line reader (``_content_lines``).  Gluing files:

    tets N                         (once)
    shape <idx> <re> <im>          (once per tetrahedron)
    eq a_1 .. a_n ; b_1 .. b_n ; c (any number, at least N)

Presentation files:

    gens a b c
    rel <word>                     (word syntax: ab-1a-2b-1ab2)

Script files hold one proof step per line, read here as its tokens; the
grouptool engine's step grammar says what each token must be and reads
it when the step runs.  Each serializer emits a canonical form whose
reparse is identical to the original parse.
"""

from __future__ import annotations

# Each parser loads the module it builds for, certify or grouptool, on
# its first call (``smallvol.<module>`` resolves through the package's
# ``__getattr__``), so reading one format never loads the other's engine.
import smallvol


class FormatError(ValueError):
    """Malformed input file."""


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_gluing(text: str) -> smallvol.certify.GluingSystem:
    certify = smallvol.certify
    n = None
    shapes = {}
    equations = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        try:
            if parts[0] == "tets":
                if n is not None:
                    raise FormatError(f"line {lineno}: duplicate 'tets' line")
                n = int(parts[1])
            elif parts[0] == "shape":
                idx = int(parts[1])
                if idx in shapes:
                    raise FormatError(f"line {lineno}: duplicate 'shape {idx}' line")
                shapes[idx] = complex(float(parts[2]), float(parts[3]))
            elif parts[0] == "eq":
                body = " ".join(parts[1:])
                a_s, b_s, c_s = (seg.strip() for seg in body.split(";"))
                equations.append(certify.GluingEquation(
                    tuple(int(x) for x in a_s.split()),
                    tuple(int(x) for x in b_s.split()),
                    int(c_s),
                ))
            else:
                raise FormatError(f"line {lineno}: unknown directive {parts[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, FormatError):
                raise
            raise FormatError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise FormatError("missing 'tets' line")
    # The count is untrusted: compare it with the shape lines read before
    # building anything of its size.
    if len(shapes) != max(n, 0) or not all(0 <= i < n for i in shapes):
        raise FormatError(f"need shapes 0..{n - 1}, got {sorted(shapes)}")
    try:
        return certify.GluingSystem(tuple(equations), tuple(shapes[i] for i in range(n)))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def serialize_gluing(sys: smallvol.certify.GluingSystem) -> str:
    out = [f"tets {sys.n}"]
    for i, z in enumerate(sys.shapes):
        out.append(f"shape {i} {z.real!r} {z.imag!r}")
    for eq in sys.equations:
        out.append("eq " + " ".join(str(x) for x in eq.a)
                   + " ; " + " ".join(str(x) for x in eq.b)
                   + f" ; {eq.c}")
    return "\n".join(out) + "\n"


def parse_presentation(text: str) -> smallvol.grouptool.Presentation:
    gens = None
    rel_texts = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        if parts[0] == "gens":
            if gens is not None:
                raise FormatError(f"line {lineno}: duplicate 'gens' line")
            gens = tuple(parts[1:])
        elif parts[0] == "rel":
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: 'rel' takes one word")
            rel_texts.append(parts[1])
        else:
            raise FormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    if gens is None:
        raise FormatError("missing 'gens' line")
    try:
        return smallvol.grouptool.Presentation.from_strings(gens, rel_texts)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def serialize_presentation(p: smallvol.grouptool.Presentation) -> str:
    out = ["gens " + " ".join(p.generators)]
    for r in p.relators:
        out.append("rel " + p.word_text(r))
    return "\n".join(out) + "\n"


def parse_script(text: str) -> smallvol.grouptool.ProofScript:
    return smallvol.grouptool.ProofScript(
        tuple(tuple(line.split()) for _, line in _content_lines(text)))


def serialize_script(script: smallvol.grouptool.ProofScript) -> str:
    return "\n".join(" ".join(step) for step in script.steps) + "\n"
