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
``node_budget``, and the work by ``MAX_SEARCH_LETTERS``: every successor
the search generates is charged its letters before free reduction,
whether or not it is ever built, and one ``search_trivial`` call gives
up once that budget is spent.  Each node can spawn many successors of
its own length, so the node budget alone leaves the work quadratic in
the word length.  The rotations are charged to the same budget first:
spelling them out takes 2 len(r)^2 letters for a relator r, the search
runs on what is left, and a search whose relators need more than the
whole budget for that stops before building any.

A relator set is reduced, charged and spelled once per process and
reused: keyed by the relators as passed, in their order, the module
keeps their cyclically reduced forms, charge and rotation tables
(``_tables``), with the ``_between`` memo that every search over them
shares.  This pays where one process searches the same relators again,
as a caller checking several words in one group does; a proof script
adds a fact or a trivial word before each search, so its searches never
meet a set twice.  Every call is still charged the 2 len(r)^2 letters
of each relator r, and checks that they fit its budget, before it
searches, so what it returns does not depend on what searches ran
before; a set that does not fit is neither built nor kept.  The kept
sets stay for the life of the process, within a tenth of one search's
letter budget, counted in machine words: their letters and the
headers and slots of the tuples, lists and dicts that hold them
(``_footprint``).  The least recently used go first.

Insertions reduce only at the two junctions (``words.junction``): the
word and the inserted rotation are both freely reduced, so only the end
of the text before the insertion point, the inserted word and the start
of the text after it can cancel, and the cancellation counts give the
successor's length without building it.  The successors of a word are
sized one insertion point at a time (``words.junctions``, which settles
most of them by comparing two letters on each side), and queued as one
block: bucketed by length, in generation order within each bucket, with
only the block's next entry on the heap (length, depth, counter, parent
word, block, bucket); popping it queues the one after.  A successor
longer than the length bound is never queued.  An entry is built, by
``words.insert`` from tuple slices, only when it is popped: partial
expansion in the sense of Yoshizumi, Miura and Ishida (AAAI 2000), and
one heap entry for a whole set of successors as in enhanced partial
expansion (Felner et al., AAAI 2012).  A found search pops a few
entries of the hundreds it sizes, so it builds and hashes a few words.

Each round returns what building every successor as it is generated
would return (the eager round): the same derivation, letters left and
``stopped_by``.  The eager round queues a word only where no earlier
successor reached it at no greater depth, and skips its queue entry as
stale when a later one reached it at a smaller depth first.  Entries of
one word share its length, so they pop in (depth, counter) order, and
both cases are settled at pop time from the (depth, counter) of the
word's entries popped so far: an entry that an earlier one at no
greater depth covers is one the eager round never queued and is skipped
without being counted; a stale entry still counts against
``node_budget``.  The eager round records a word when it queues it, and
this round when it expands it; ``_unwind`` says why the two records
agree along every derivation.

A round succeeds only at the empty word, and the words one insertion
carries to it can be written down: w is one of them only if its middle
is a variant and the letters around it cancel in pairs (``_may_vanish``).
A word that fails this test, at any depth, has its successors charged
in one step (``_charge``), and at the last depth of a round that is all
it needs; a word that passes it, or whose charge would overdraw the
budget, has them charged one at a time, and the one of length 0 is the
empty word.  No successor at the last depth is queued or built.

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
from bisect import bisect_right
from collections import defaultdict, namedtuple

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

    The relator sets it prepares are kept in a module-level cache with
    no lock, so it is not meant to be called from several threads at
    once.
    """
    start = words.free_reduce(word)
    if start == ():
        return Derivation(start, ())
    key = tuple(map(tuple, relators))
    rels, charge, longest, tables, held = _prepared.get(key) or _reduced(key)
    found, stop = None, DEPTH  # also when no relator is left, or depth 0 allows no round
    letters = MAX_SEARCH_LETTERS - charge
    if letters < 0:
        stop = LETTERS
    elif rels:
        if tables is None:
            tables = _tables(rels)
        by_first, by_last, leaves = tables
        root, max_len, limit = _doubled(start), len(start) + longest + 4, 1
        try:
            while limit <= depth:
                if letters <= 0:
                    stop = LETTERS
                    break
                found, letters, stop = _best_first(root, by_first, by_last, limit,
                                                   max_len, node_budget, letters, leaves)
                if found is not None:
                    break
                limit = min(limit * 2, depth) if limit < depth else depth + 1
        finally:  # the memo may have grown, whatever ended the search
            _keep(key, (rels, charge, longest, tables), held)
    if found is None and stopped_by is not None:
        stopped_by.append(stop)
    return found


# The relators of a search as passed -> the entry ``search_trivial``
# prepares from them: the relators cyclically reduced and doubled, their
# charge 2 sum len(r)^2, the longest one's length, their ``_tables``,
# whose ``_between`` memo every search over them shares, and the words
# ``_footprint`` counted the entry at when it was last kept.  Least
# recently used first; ``_held`` is the sum of those counts, at most
# MAX_SEARCH_LETTERS // 10 after each search.
_prepared = {}
_held = 0


def _reduced(key):
    """A new entry for the relators ``key``, its tables not yet built."""
    rels = [_doubled(r) for r in map(words.cyclic_reduce, key) if r]
    return rels, 2 * sum(len(r) ** 2 for r in rels), max(map(len, rels), default=0), None, 0


def _footprint(key, charge, tables) -> int:
    """The machine words that an entry for the relators ``key``, with
    the charge ``charge`` and the tables ``tables``, holds: no less than
    CPython takes for them, counted from sizes alone.  A tuple of n
    letters takes n + 5 words with its header, and one more for the
    slot that holds it: so are the relators as passed and reduced
    counted.  The variants take at most the letters of the charge, which
    spells them, and 16 words each for their headers and their slots in
    the variants dict and the letter tables; each list of the letter
    tables takes 24 words with its slot; each ``_between`` memo entry 40
    (its key, its value and its dict slot) and one for each variant, all
    of which its list may name; the entry's own dicts and tuples 200."""
    by_first, by_last, (variants, _, around) = tables
    return (2 * (sum(map(len, key)) + 6 * len(key)) + charge + 16 * len(variants)
            + 24 * (len(by_first) + len(by_last)) + (40 + len(variants)) * len(around)
            + 200)


def _keep(key, entry, held):
    """Keep ``entry`` for the relators ``key`` as the most recently used,
    counted at what it holds now (``_footprint``) in place of the ``held``
    words it was last kept at (0 when it is new), then evict the least
    recently used entries while the cache holds more than a tenth of
    MAX_SEARCH_LETTERS."""
    global _held
    rels, charge, longest, tables = entry
    now = _footprint(key, charge, tables)
    _prepared.pop(key, None)  # to be put back last
    _prepared[key] = rels, charge, longest, tables, now
    _held += now - held
    while _held > MAX_SEARCH_LETTERS // 10:
        _held -= _prepared.pop(next(iter(_prepared)))[4]


def _doubled(w) -> tuple:
    return tuple(2 * x for x in w)


def _halved(w) -> tuple:
    return tuple(x // 2 for x in w)


def _tables(rels):
    """The tables of ``_best_first`` over the variants, the distinct
    rotations of every (cyclically reduced, nonempty) relator in ``rels``
    and of its inverse: ``by_first`` and ``by_last``, the variants by
    first and by last letter; the set of variants (a dict, in the order
    they are spelled); their lengths, longest first; and an empty memo
    for ``_between``.

    One pass spells each variant once: the rotations of a word that is
    already listed are all listed (two words have the same rotations or
    none in common), and those of a proper power u^p repeat after the
    first len(u)."""
    variants, by_first, by_last = {}, defaultdict(list), defaultdict(list)
    for r in rels:
        for base in (r, words.invert(r)):
            if base in variants:
                continue
            m, twice = len(base), base + base
            for k in range(m):
                v = twice[k:k + m]
                if k and v == base:
                    break
                variants[v] = None
                by_first[v[0]].append(v)
                by_last[v[-1]].append(v)
    lengths = sorted(set(map(len, variants)), reverse=True)
    return by_first, by_last, (variants, lengths, {})


def _between(key, by_first, by_last, around) -> tuple:
    """(variants, count, total length) for the letters ``key`` = (x, y)
    of a word, 0 standing for its end: the variants whose insertion
    between x and y cancels at a junction, in generation order (first
    those that cancel against x, then those that cancel against y
    alone), memoized in ``around``."""
    x, y = -key[0], -key[1]
    here = by_first.get(x, []) + [v for v in by_last.get(y, ()) if v[0] != x]
    around[key] = entry = here, len(here), sum(map(len, here))
    return entry


def _may_vanish(w, variants, lengths) -> bool:
    """False when no single insertion of a variant into the freely
    reduced ``w`` gives the empty word.

    Such an insertion must cancel the variant v completely, against a
    block of w that is a rotation of v^-1 (itself a variant), and the
    parts of w around the block must then cancel each other: the block
    is the middle w[t:n-t], with t = (n - len(v)) / 2, and w[:t] is the
    inverse of w[n-t:].  True means only that such a block exists."""
    n = len(w)
    c = 0  # w[:t] inverts w[n-t:] exactly for t <= c
    while c < n and w[c] == -w[n - 1 - c]:
        c += 1
    for m in lengths:  # longest first: t grows
        t, odd = divmod(n - m, 2)
        if t > c:
            break
        if t >= 0 and not odd and w[t:n - t] in variants:
            return True
    return False


def _charge(w, by_first, by_last, around) -> int:
    """The letters that the successors of ``w`` are charged in all,
    len(w) + len(v) for each insertion of a variant v, one junction
    position at a time (``_between``)."""
    n, spent = len(w), 0
    for key in zip((0, *w), (*w, 0)):
        _, count, total = around.get(key) or _between(key, by_first, by_last, around)
        spent += n * count + total
    return spent


def _best_first(start, by_first, by_last, limit, max_len, node_budget, letters,
                leaves):
    """(derivation or None, letters left of the budget ``letters``, and
    for a failure the limit that ended the round: DEPTH when the queue
    ran dry, else NODES or LETTERS).  Every word here, ``start`` and
    the variants among them, is in doubled letters.

    Successors are queued unbuilt and built when popped; the popped
    entries of each word settle, as the module docstring says, which
    entries the eager round never queued and which it skips as stale.
    Where ``_may_vanish`` rules out the empty word among a word's
    successors, they are all charged in one step (``_charge``), and a
    word at the depth ``limit`` is then done with.  Where the test
    passes, or the charge would overdraw the letter budget, they are
    charged one at a time in generation order, each once it is sized.  The successors of a word below the depth ``limit`` are
    sized one junction position at a time (``words.junctions``) and
    queued as one block."""
    variants, lengths, around = leaves
    # (length, insertion depth, counter, parent word, block, bucket);
    # the start is the entry with no parent.  A block is one word's
    # successors: their lengths, variants and the index of the first at
    # each position, the counter of the first, and the lengths that fit
    # max_len in increasing order, one bucket each.  Its entries pop by
    # (length, index); the heap holds the next one alone, and an entry's
    # counter is the block's plus its index.
    heap = [(len(start), 0, 0, None, None, 0)]
    counter = 1
    # popped word -> [(insertion depth, counter)] of its entries the
    # eager round queued; expanded word -> (insertion depth, parent
    # word, position, variant) of its last expansion
    marks, nodes = {}, {}
    popped = 0
    insert, junctions = words.insert, words.junctions
    heappop, heappush = heapq.heappop, heapq.heappush
    while heap:
        size, d, c, parent, block, bucket = heappop(heap)
        if parent is None:
            w, pos, variant = start, 0, start
        else:
            sizes, vs, starts, base, fits = block
            i = c - base
            pos, variant = bisect_right(starts, i) - 1, vs[i]
            after = sizes.index(size, i + 1)
            if after >= len(vs):  # the bucket is done: on to the next one
                bucket += 1
                after = sizes.index(fits[bucket]) if bucket < len(fits) else -1
            if after >= 0:
                heappush(heap, (sizes[after], d, base + after, parent, block, bucket))
            w = insert(parent, pos, variant, size)
        seen = marks.setdefault(w, [])
        if any(sd <= d and sc < c for sd, sc in seen):
            continue  # reached earlier at no greater depth: never queued
        if popped >= node_budget:
            return None, letters, NODES
        popped += 1
        stale = any(sd < d for sd, _ in seen)
        seen.append((d, c))
        if stale:
            continue  # reached at a smaller depth since it was queued
        nodes[w] = (d, parent, pos, variant)
        nd = d + 1
        bulk = False
        if not _may_vanish(w, variants, lengths):
            spent = _charge(w, by_first, by_last, around)
            if spent <= letters:
                letters -= spent
                if nd == limit:
                    continue
                bulk = True
        n = len(w)
        sizes, vs, starts = [], [], []
        for pos, key in enumerate(zip((0, *w), (*w, 0))):
            here = (around.get(key) or _between(key, by_first, by_last, around))[0]
            got = junctions(w, pos, here)
            if not bulk:
                for size, variant in zip(got, here):
                    letters -= n + len(variant)
                    if letters < 0:
                        return None, letters, LETTERS
                    if size == 0:
                        nodes[()] = (nd, w, pos, variant)
                        return _unwind(nodes, start), letters, None
            starts.append(len(sizes))
            sizes += got
            vs += here
        if nd < limit:
            # A successor past max_len is charged but never queued.
            fits = sorted(size for size in set(sizes) if size <= max_len)
            if fits:
                i = sizes.index(fits[0])
                sizes += fits  # ends each bucket's scan past the successors
                heappush(heap, (fits[0], nd, counter + i, w,
                                (sizes, vs, starts, counter, fits), 0))
            counter += len(vs)
    return None, letters, DEPTH


def _unwind(nodes, start):
    """The derivation recorded in ``nodes``, mapped back from doubled
    letters.

    ``nodes`` holds each word's last expansion, and the eager round
    holds its last queued entry.  They differ for a word u on the path
    only if an entry E of u, at a smaller depth than u's last
    expansion, is still queued; take the last such u on the path.  Its
    path below it is deeper than E, and from u's last expansion on some
    entry of it is queued at every moment.  Each of those popped after
    the first ancestor Q of E that was queued at u's last expansion is
    shorter than u: one popped while E waits, as E has u's length, and
    one popped earlier by induction, as it waits for an ancestor of E
    that is no longer than a later path entry.  Q pops while a path
    entry waits, so Q is no longer than it, hence shorter than u; but u
    popped while Q waited, at a greater depth, so Q is longer than u.
    So the records agree, and the path is the eager round's."""
    steps = []
    _, w, pos, variant = nodes[()]
    while w is not None:
        steps.append(Insertion(pos, _halved(variant)))
        _, w, pos, variant = nodes[w]
    steps.reverse()
    deriv = Derivation(_halved(start), tuple(steps))
    assert deriv.replay(), "internal error: derivation does not replay"
    return deriv
