"""Bounded search for trivial words, with replayable certificates.

A word is trivial in a presentation exactly when it can be carried to
the empty word by inserting conjugates of relators and freely reducing.
The search inserts cyclic rotations of the relators and their inverses
(rotations realize exactly the conjugates that cancel against the
surrounding text) and explores shortest-word-first under an iteratively
deepened insertion-count bound.  Only insertions that cancel against a
neighbouring letter are expanded; free-floating insertions never help
the short direct calculations this tool is for.

The insertion count and popped nodes are bounded by ``depth`` and
``node_budget``, and the work by ``MAX_SEARCH_LETTERS``: every word the
search builds is charged its letters before free reduction, and one
``search_trivial`` call gives up once that budget is spent.  Each node
can spawn many successors of its own length, so the node budget alone
leaves the work quadratic in the word length.  The rotations are charged
to the same budget first: spelling them out takes 2 len(r)^2 letters for
a relator r, the search runs on what is left, and a search whose
relators need more than the whole budget for that stops before building
any.

Insertions reduce only at the two junctions (``words.insert``): the
word and the inserted rotation are both freely reduced, so only the end
of the text before the insertion point, the inserted word and the start
of the text after it can cancel, and the new word is joined from tuple
slices with no pass over the letters that stay.  Its length follows from
the cancellation counts, so a successor longer than the length bound is
dropped before it is built.  The letter charge is unchanged: each
successor is still charged the letters of the word and of the rotation,
as if spelled out before free reduction, so every budget and every
``stopped_by`` is what a full re-reduction would give.

The search runs over doubled letters (2x for the letter x), so that no
word it stores holds the letter -1: CPython hashes -1 like -2, and words
that differ only by swapping those two would all collide in its dicts.
Doubling keeps signs, so cancellation, the successor order and hence
every derivation are those of the undoubled search.

A failed search can say which limit ended it (``stopped_by``): the
depth (every word within the depth and length bounds was explored), the
node budget, or the letter budget.

Success yields a ``Derivation`` that replays mechanically with no trust
in the search: each step names the inserted variant and its position,
and replaying the insertions through free reduction (``words.concat``,
not the search's junction kernel) must end at the empty word.  Failure
is just failure; the word problem is undecidable in general.
"""

from __future__ import annotations

import heapq
from collections import namedtuple

from . import words

DEFAULT_DEPTH = 8
DEFAULT_NODE_BUDGET = 3000
# Letters one ``search_trivial`` call may build, over all its deepening
# rounds: about a second of work.  Searches in proof scripts build far
# fewer (well under 10^6).
MAX_SEARCH_LETTERS = 10**7


# ``inserted`` is the relator-conjugate word, spelled out.
Insertion = namedtuple("Insertion", "position inserted")


class Derivation(namedtuple("Derivation", "start steps")):
    """Insertion sequence carrying ``start`` to the empty word."""

    __slots__ = ()

    def replay(self) -> bool:
        w = words.free_reduce(self.start)
        for step in self.steps:
            if not 0 <= step.position <= len(w):
                return False
            w = words.concat(w[: step.position], step.inserted, w[step.position:])
        return w == ()


def _variants(relators):
    """All distinct rotations of every (cyclically reduced, nonempty)
    relator and its inverse."""
    out = []
    seen = set()
    for r in relators:
        for base in (r, words.invert(r)):
            for k in range(len(base)):
                v = words.rotate(base, k)
                if v not in seen:
                    seen.add(v)
                    out.append(v)
    return out


# The limits that can end a failed search, as ``stopped_by`` reports them.
DEPTH, NODES, LETTERS = "depth", "nodes", "letters"


def search_trivial(word, relators, depth: int = DEFAULT_DEPTH,
                   node_budget: int = DEFAULT_NODE_BUDGET, stopped_by=None):
    """Find a derivation of triviality for ``word``, or None.

    ``relators`` may include derived facts (words already known to be
    trivial in the group at hand); soundness of the result rests only on
    that guarantee, never on the search order.  When the search fails and
    ``stopped_by`` is a list, the limit that ended it is appended: DEPTH
    when the last deepening round explored every word within the depth
    and length bounds, NODES when it popped ``node_budget`` nodes first,
    LETTERS when the ``MAX_SEARCH_LETTERS`` budget ran out.
    """
    start = words.free_reduce(word)
    if start == ():
        return Derivation(start, ())
    rels = [_doubled(r) for r in map(words.cyclic_reduce, relators) if r]
    stop = DEPTH  # also when no relator is left, or depth 0 allows no round
    letters = MAX_SEARCH_LETTERS - 2 * sum(len(r) ** 2 for r in rels)
    if letters < 0:
        rels, stop = [], LETTERS
    by_first = {}
    by_last = {}
    for v in _variants(rels):
        by_first.setdefault(v[0], []).append(v)
        by_last.setdefault(v[-1], []).append(v)
    max_len = len(start) + max(map(len, rels), default=0) + 4

    root = _doubled(start)
    limit = 1
    while rels and limit <= depth:
        if letters <= 0:
            stop = LETTERS
            break
        found, letters, stop = _best_first(root, by_first, by_last, limit,
                                           max_len, node_budget, letters)
        if found is not None:
            return found
        limit = min(limit * 2, depth) if limit < depth else depth + 1
    if stopped_by is not None:
        stopped_by.append(stop)
    return None


def _doubled(w) -> tuple:
    return tuple(2 * x for x in w)


def _halved(w) -> tuple:
    return tuple(x // 2 for x in w)


def _successors(w, by_first, by_last):
    """(position, variant) pairs whose insertion cancels at a junction,
    generated one at a time so that each is charged before the next."""
    n = len(w)
    for pos in range(n + 1):
        if pos > 0:
            for v in by_first.get(-w[pos - 1], ()):
                yield pos, v
        if pos < n:
            for v in by_last.get(-w[pos], ()):
                # avoid double-listing insertions that cancel on both sides
                if not (pos > 0 and v[0] == -w[pos - 1]):
                    yield pos, v


def _best_first(start, by_first, by_last, limit, max_len, node_budget, letters):
    """(derivation or None, letters left of the budget ``letters``, and
    for a failure the limit that ended the round: DEPTH when the queue
    ran dry, else NODES or LETTERS).  Every word here, ``start`` and
    the variants among them, is in doubled letters."""
    counter = 0
    heap = [(len(start), 0, counter, start)]
    # word -> (insertion depth, parent word, position, variant)
    nodes = {start: (0, None, 0, None)}
    popped = 0
    insert = words.insert
    while heap:
        if popped >= node_budget:
            return None, letters, NODES
        _, d, _, w = heapq.heappop(heap)
        popped += 1
        if d != nodes[w][0]:
            continue  # stale queue entry
        if d >= limit:
            continue
        nd = d + 1
        for pos, variant in _successors(w, by_first, by_last):
            letters -= len(w) + len(variant)
            if letters < 0:
                return None, letters, LETTERS
            # A successor past max_len is charged but never built.
            new = insert(w, pos, variant, max_len)
            if new is None:
                continue
            seen = nodes.get(new)
            if seen is not None and seen[0] <= nd:
                continue
            nodes[new] = (nd, w, pos, variant)
            if new == ():
                return _unwind(nodes, start), letters, None
            if nd < limit:
                counter += 1
                heapq.heappush(heap, (len(new), nd, counter, new))
    return None, letters, DEPTH


def _unwind(nodes, start):
    """The derivation recorded in ``nodes``, mapped back from doubled
    letters."""
    steps = []
    _, w, pos, variant = nodes[()]
    while w is not None:
        steps.append(Insertion(pos, _halved(variant)))
        _, w, pos, variant = nodes[w]
    steps.reverse()
    deriv = Derivation(_halved(start), tuple(steps))
    assert deriv.replay(), "internal error: derivation does not replay"
    return deriv
