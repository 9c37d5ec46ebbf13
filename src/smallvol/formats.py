"""Line-oriented text formats for gluing systems, presentations and scripts.

All three formats are UTF-8, with ``#`` comments and blank lines dropped
by one line reader (``_content_lines``).  Gluing files:

    tets N                         (once, N <= MAX_TETS)
    shape <idx> <re> <im>          (once per tetrahedron)
    eq a_1 .. a_n ; b_1 .. b_n ; c (any number, at least N)

Presentation files:

    gens a b c
    rel <word>                     (word syntax: ab-1a-2b-1ab2; the words
                                    spell at most MAX_PRESENTATION_LETTERS
                                    letters in all, counted by exponents)

Script files hold one proof step per line, read here as its tokens; the
grouptool engine's step grammar says what each token must be and reads
it when the step runs.
"""

from __future__ import annotations

# Each parser loads the module it builds for, certify or grouptool, on
# its first call (``smallvol.<module>`` resolves through the package's
# ``__getattr__``), so reading one format never loads the other's engine.
import smallvol


# Gluing files name at most this many tetrahedra (certify is cubic in them).
MAX_TETS = 256


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
                if len(parts) != 2:
                    raise FormatError(f"line {lineno}: 'tets' takes one count")
                n = int(parts[1])
                if n > MAX_TETS:
                    raise FormatError(f"line {lineno}: tets {n} exceeds the cap of {MAX_TETS}")
            elif parts[0] == "shape":
                if len(parts) != 4:
                    raise FormatError(
                        f"line {lineno}: 'shape' takes an index and two numbers")
                idx = int(parts[1])
                if idx in shapes:
                    raise FormatError(f"line {lineno}: duplicate 'shape {idx}' line")
                shapes[idx] = complex(float(parts[2]), float(parts[3]))
            elif parts[0] == "eq":
                segs = [seg.split() for seg in line[2:].split(";")]
                if len(segs) != 3 or len(segs[2]) != 1:
                    raise FormatError(
                        f"line {lineno}: 'eq' takes a_1 .. a_n ; b_1 .. b_n ; c")
                a_s, b_s, (c_s,) = segs
                equations.append(certify.GluingEquation(
                    tuple(int(x) for x in a_s), tuple(int(x) for x in b_s), int(c_s)))
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


def parse_script(text: str) -> smallvol.grouptool.ProofScript:
    return smallvol.grouptool.ProofScript(
        tuple(tuple(line.split()) for _, line in _content_lines(text)))
