"""Free-group words over indexed generators.

A word is a tuple of nonzero ints: +k is generator k-1, -k its inverse
(generators are 0-indexed externally, letters 1-indexed internally so
negation works).  All public helpers return freely reduced tuples
(``insert`` returns None for a word past its length bound, ``junction``
and ``junctions`` only the cuts and lengths of insertions, and ``spell``
the unreduced letters of a word's text).
"""

from __future__ import annotations

import math

# Longest word that ``power``, ``parse_word`` or ``substitute`` will build,
# and that the proof-script checker stores, in letters.  Exponents and
# rewriting steps come from untrusted scripts and presentations; the cap
# keeps one line of input from demanding unbounded time or memory.
# ``power`` is quadratic in its exponent, so the cap also bounds one call:
# at the cap, ``power((1,), 10**4)`` takes about 2 s, and a script step
# ``power a 10000 b 10000`` about 3.5 s (Python 3.11, x86-64 Xeon).
MAX_WORD_LENGTH = 10**4


def free_reduce(letters) -> tuple:
    letters = tuple(letters)
    if 0 in letters:
        raise ValueError("zero letter in word")
    return concat(letters)


def concat(*words) -> tuple:
    """The freely reduced product of the words: one cancellation loop,
    which every reduction outside the search's ``insert`` goes through.

    ``undo`` caches the letter that would cancel ``out[-1]`` (None, which
    equals no letter, while ``out`` is empty), so each letter costs one
    comparison."""
    out = []
    push, pop = out.append, out.pop
    undo = None
    for w in words:
        for x in w:
            if x == undo:
                pop()
                undo = -out[-1] if out else None
            else:
                push(x)
                undo = -x
    return tuple(out)


def junction(word, pos: int, v) -> tuple:
    """(length, a, i, j, b) with ``concat(word[:pos], v, word[pos:]) ==
    word[:a] + v[i:j] + word[b:]``, of ``length`` letters, for freely
    reduced ``word`` and ``v``: the one cancellation kernel of the
    search.

    Precondition, not checked: both inputs are freely reduced.  Then
    only the two junctions can cancel: the tail of ``word[:pos]``
    against the head of ``v``, the tail of ``v`` against the head of
    ``word[pos:]``, and, once ``v`` is used up, the two parts of
    ``word`` against each other.  The cancellation counts give the cuts
    and the length without building the word.
    """
    m, n = len(v), len(word)
    k, top = 0, m if m < pos else pos
    while k < top and word[pos - 1 - k] == -v[k]:
        k += 1
    j, top = 0, m - k if m - k < n - pos else n - pos
    while j < top and word[pos + j] == -v[~j]:  # v[~j] is v[m - 1 - j]
        j += 1
    if k + j < m:
        return n + m - 2 * (k + j), pos - k, k, m - j, pos + j
    # v cancelled completely: join what is left of the two parts of word.
    left, right = pos - k, pos + j
    while left > 0 and right < n and word[left - 1] == -word[right]:
        left -= 1
        right += 1
    return left + n - right, left, 0, 0, right


def junctions(word, pos: int, variants) -> list:
    """The length of ``concat(word[:pos], v, word[pos:])`` for each v of
    ``variants``, for freely reduced ``word`` and v, by ``junction``.

    A variant longer than two letters whose cancellation on each side
    stops by its second letter is settled by comparing those letters
    alone, with no call."""
    n = len(word)
    x1 = -word[pos - 1] if pos else 0  # 0 matches no letter
    x2 = -word[pos - 2] if pos > 1 else 0
    y1 = -word[pos] if pos < n else 0
    y2 = -word[pos + 1] if pos + 1 < n else 0
    lengths = []
    length = lengths.append
    for v in variants:
        m = len(v)
        if m > 2:
            if v[0] == x1:
                if v[1] != x2:
                    if v[-1] != y1:
                        length(n + m - 2)
                        continue
                    if v[-2] != y2:
                        length(n + m - 4)
                        continue
            elif v[-1] != y1:
                length(n + m)
                continue
            elif v[-2] != y2:
                length(n + m - 2)
                continue
        length(junction(word, pos, v)[0])
    return lengths


def insert(word, pos: int, v, max_len: float = math.inf):
    """``concat(word[:pos], v, word[pos:])`` for freely reduced ``word``
    and ``v``, or None when that word is longer than ``max_len``.

    The cuts of ``junction`` give the length, so a word too long is
    never built; one that fits is built from three tuple slices, with
    no pass over the letters that stay.
    """
    length, a, i, j, b = junction(word, pos, v)
    if length > max_len:
        return None
    return word[:a] + v[i:j] + word[b:]


def invert(word) -> tuple:
    return tuple(-x for x in reversed(word))


def power(word, n: int) -> tuple:
    """word^n; raises ValueError when the expansion could exceed
    MAX_WORD_LENGTH letters (an empty word counts as one letter)."""
    if abs(n) * max(1, len(word)) > MAX_WORD_LENGTH:
        raise ValueError(
            f"power of exponent {n} exceeds the {MAX_WORD_LENGTH}-letter word cap"
        )
    if n == 0:
        return ()
    base = word if n > 0 else invert(word)
    out = ()
    for _ in range(abs(n)):
        out = concat(out, base)
    return out


def commutator(x, y) -> tuple:
    return concat(x, y, invert(x), invert(y))


def cyclic_reduce(word) -> tuple:
    """The freely reduced word with its cancelling end pairs stripped:
    linear time, one slice however many pairs cancel."""
    w = free_reduce(word)
    i, j = 0, len(w) - 1
    while i < j and w[i] == -w[j]:
        i += 1
        j -= 1
    return w[i:j + 1]


def rotate(word, k: int) -> tuple:
    if not word:
        return ()
    k %= len(word)
    return word[k:] + word[:k]


def rotations(word):
    """All cyclic rotations of a (cyclically reduced) word."""
    return [rotate(word, k) for k in range(max(1, len(word)))]


def _spelled(word) -> str:
    """The letters as comma-delimited text: a substring that starts and
    ends with a comma is a run of whole letters."""
    return "," + ",".join(map(str, word)) + ","


def is_rotation(word, other) -> bool:
    """True when ``other`` is a cyclic rotation of ``word``: equal lengths,
    and ``other`` occurs in ``word + word``.  Linear time and memory, where
    comparing against every rotation is quadratic."""
    return len(word) == len(other) and _spelled(other) in _spelled(word + word)


def normal_form(word) -> tuple:
    """Canonical representative among a reduced word and its inverse."""
    w = free_reduce(word)
    wi = invert(w)
    return min(w, wi)


def syllables(word):
    """Run-length view [(letter index >0, signed exponent), ...]."""
    out = []
    for x in word:
        g = abs(x)
        e = 1 if x > 0 else -1
        if out and out[-1][0] == g:
            out[-1] = (g, out[-1][1] + e)
        else:
            out.append((g, e))
    return [(g, e) for g, e in out if e != 0]


def substitute(word, gen: int, replacement) -> tuple:
    """Replace every occurrence of generator ``gen`` (1-indexed letter) by
    ``replacement`` (and inverses by the inverse), then reduce.  Raises
    ValueError, before building anything, when the unreduced result would
    exceed MAX_WORD_LENGTH letters."""
    hits = sum(1 for x in word if x == gen or x == -gen)
    if len(word) + hits * (len(replacement) - 1) > MAX_WORD_LENGTH:
        raise ValueError(
            f"substitution exceeds the {MAX_WORD_LENGTH}-letter word cap"
        )
    rep_inv = invert(replacement)
    return concat(*(replacement if x == gen else rep_inv if x == -gen else (x,)
                    for x in word))


# -- text syntax -------------------------------------------------------------
#
# Generator letters with optional signed integer exponents, concatenated:
# "ab-1a-2b-1ab2" means a b^-1 a^-2 b^-1 a b^2.

def spell(text: str, gen_names, budget: float = math.inf):
    """The letters of the word ``text`` before free reduction, as a list,
    or None when they would exceed ``budget``.  Each exponent is checked
    against MAX_WORD_LENGTH (a ValueError) and ``budget`` before it is
    expanded."""
    index = {name: i + 1 for i, name in enumerate(gen_names)}
    out = []
    i = 0
    text = text.strip()
    if text in ("1", ""):
        return out
    while i < len(text):
        ch = text[i]
        if ch not in index:
            raise ValueError(f"unknown generator {ch!r} in word {text!r}")
        i += 1
        j = i
        if j < len(text) and text[j] == "-":
            j += 1
        while j < len(text) and text[j].isdigit():
            j += 1
        exp = int(text[i:j]) if j > i and text[i:j] != "-" else 1
        if j > i and text[i:j] == "-":
            raise ValueError(f"dangling sign in word {text!r}")
        i = j
        if exp == 0:
            continue
        if len(out) + abs(exp) > MAX_WORD_LENGTH:
            raise ValueError(
                f"word {text!r} exceeds the {MAX_WORD_LENGTH}-letter word cap"
            )
        if len(out) + abs(exp) > budget:
            return None
        letter = index[ch] if exp > 0 else -index[ch]
        out.extend([letter] * abs(exp))
    return out


def parse_word(text: str, gen_names) -> tuple:
    return free_reduce(spell(text, gen_names))


def format_word(word, gen_names) -> str:
    if not word:
        return "1"
    parts = []
    for g, e in syllables(word):
        name = gen_names[g - 1]
        parts.append(name if e == 1 else f"{name}{e}")
    return "".join(parts)
