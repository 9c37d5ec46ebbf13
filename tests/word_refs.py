"""The free-reduction loop as it was before ``words.concat`` cached the
letter that cancels the last one: a reference that tests hold the library
to, result for result.  The other references are the library's word
operations with this loop in place of ``words.concat``; they keep no word
cap, so tests call them on small words only.
"""

from smallvol.grouptool.words import invert


def concat(*words) -> tuple:
    out = []
    for w in words:
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
    return tuple(out)


def free_reduce(letters) -> tuple:
    letters = tuple(letters)
    if 0 in letters:
        raise ValueError("zero letter in word")
    return concat(letters)


def power(word, n: int) -> tuple:
    base = word if n > 0 else invert(word)
    out = ()
    for _ in range(abs(n)):
        out = concat(out, base)
    return out


def commutator(x, y) -> tuple:
    return concat(x, y, invert(x), invert(y))


def substitute(word, gen: int, replacement) -> tuple:
    rep_inv = invert(replacement)
    return concat(*(replacement if x == gen else rep_inv if x == -gen else (x,)
                    for x in word))


def normal_form(word) -> tuple:
    w = free_reduce(word)
    return min(w, invert(w))
