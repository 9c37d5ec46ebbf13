"""Finitely presented groups and their abelianizations."""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from . import words

# Letters the relator texts of one presentation may spell out in all,
# counted before free reduction.  Each text is charged from its exponents
# before it is expanded, so a small file cannot make the parser build
# millions of letters; a word alone is capped at ``words.MAX_WORD_LENGTH``.
MAX_PRESENTATION_LETTERS = 10**5


class Presentation(namedtuple("Presentation", "generators relators")):
    """Generators (single-letter names) and cyclically reduced relators."""

    __slots__ = ()

    def __new__(cls, generators, relators):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generator names")
        for name in generators:
            if len(name) != 1 or not name.isalpha():
                raise ValueError(f"generator names are single letters, got {name!r}")
        reduced = []
        n = len(generators)
        for r in relators:
            w = words.cyclic_reduce(r)
            if not w:
                raise ValueError("trivial relator")
            if any(abs(x) > n for x in w):
                raise ValueError("relator uses an unknown generator")
            reduced.append(w)
        return super().__new__(cls, generators, tuple(reduced))

    @classmethod
    def from_strings(cls, generators, relator_texts) -> "Presentation":
        gens = tuple(generators)
        rels, left = [], MAX_PRESENTATION_LETTERS
        for t in relator_texts:
            letters = words.spell(t, gens, left)
            if letters is None:
                raise ValueError(f"relators exceed the {MAX_PRESENTATION_LETTERS}"
                                 "-letter presentation cap")
            left -= len(letters)
            rels.append(letters)
        return cls(gens, rels)

    def exponent_matrix(self) -> list:
        """Relator exponent sums, one row per relator."""
        return [_exponent_sums(r, len(self.generators)) for r in self.relators]


def _exponent_sums(word, n: int) -> list:
    """The exponent sum of each of the n generators in ``word``."""
    row = [0] * n
    for x in word:
        row[abs(x) - 1] += 1 if x > 0 else -1
    return row


def smith_normal_form(matrix) -> list:
    """Diagonal of the Smith normal form of an integer matrix (exact).

    Returns d_1, ..., d_r (nonnegative, each dividing the next) for the
    min(m, n) diagonal slots.
    """
    a = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    top = 0
    left = 0
    while top < m and left < n:
        # find a nonzero pivot
        pr, pc = None, None
        best = None
        for i in range(top, m):
            for j in range(left, n):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    best, pr, pc = v, i, j
        if pr is None:
            break
        a[top], a[pr] = a[pr], a[top]
        for row in a:
            row[left], row[pc] = row[pc], row[left]
        # clear the pivot row and column by euclidean steps
        while True:
            dirty = False
            for i in range(top + 1, m):
                if a[i][left]:
                    q = a[i][left] // a[top][left]
                    for j in range(left, n):
                        a[i][j] -= q * a[top][j]
                    if a[i][left]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
            for j in range(left + 1, n):
                if a[top][j]:
                    q = a[top][j] // a[top][left]
                    for i in range(top, m):
                        a[i][j] -= q * a[i][left]
                    if a[top][j]:
                        for i in range(top, m):
                            a[i][left], a[i][j] = a[i][j], a[i][left]
                        dirty = True
            if not dirty:
                break
        diag.append(abs(a[top][left]))
        top += 1
        left += 1
    # enforce the divisibility chain
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[i] and diag[j] % diag[i] != 0:
                g = gcd(diag[i], diag[j])
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
            elif diag[i] == 0 and diag[j] != 0:
                diag[i], diag[j] = diag[j], diag[i]
    return diag


def abelianization(p: Presentation) -> tuple:
    """Invariant factors of the abelianized group, padded with zeros to one
    entry per generator (0 means a free Z factor)."""
    rows = p.exponent_matrix()
    if not rows:
        return (0,) * len(p.generators)
    diag = smith_normal_form(rows)
    out = list(diag) + [0] * (len(p.generators) - len(diag))
    return tuple(out)


def abelian_invariants(p: Presentation) -> tuple:
    """Canonical form for isomorphism comparison: 1-entries dropped, sorted."""
    return tuple(sorted(d for d in abelianization(p) if d != 1))


def nontrivial_in_abelianization(p: Presentation, w) -> bool:
    """True if the word is provably nontrivial already in the abelianization,
    i.e. its exponent vector lies outside the relator lattice."""
    target = _exponent_sums(w, len(p.generators))
    if not any(target):
        return False
    rows = p.exponent_matrix()
    # Solve: is target in the Z-span of rows?  Stack and compare Smith forms
    # of the lattice with and without the target row.
    base = smith_normal_form(rows) if rows else []
    ext = smith_normal_form(rows + [target])
    base = [d for d in base if d]
    ext = [d for d in ext if d]
    return base != ext
