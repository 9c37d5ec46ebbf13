"""The round of the word search as it was before ``search._best_first``
settled its last depth by a membership test and queued its successors
unbuilt: the eager-building round, which builds every successor of every
popped word as it generates it, looks it up and compares it with the
empty word.  Tests hold the library's rounds to this one, result for
result.  Unlike ``oracles``, it runs on the library's own junction
kernel and unwinding; ``successors`` defines the generation order that
the library's ``search._between`` lists one position at a time.
"""

import heapq

from smallvol.grouptool import words
from smallvol.grouptool.search import DEPTH, LETTERS, NODES, _unwind


def successors(w, by_first, by_last):
    """(position, variant) pairs whose insertion cancels at a junction, in
    the order the search charges and counts them: by position, first
    those that cancel against the letter before it, then those that
    cancel against the letter after it alone."""
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


def best_first(start, by_first, by_last, limit, max_len, node_budget, letters,
               events=None):
    """(derivation or None, letters left, stop), with the arguments and
    results of ``search._best_first`` less its last-level tables.

    When ``events`` is a dict, it counts what the round met:
    "duplicate", a successor that an earlier one reached at no greater
    depth; "start again", a successor equal to the start word;
    "re-reached", a word reached at a smaller depth after it was
    expanded; "stale", a stale entry popped; and "nodes among stale", a
    node-budget stop after stale entries of the round were counted
    against the budget."""
    events = {} if events is None else events

    def note(event):
        events[event] = events.get(event, 0) + 1
    counter = 0
    heap = [(len(start), 0, counter, start)]
    # word -> (insertion depth, parent word, position, variant)
    nodes = {start: (0, None, 0, None)}
    expanded = set()
    popped = stale = 0
    insert = words.insert
    while heap:
        if popped >= node_budget:
            if stale:
                note("nodes among stale")
            return None, letters, NODES
        _, d, _, w = heapq.heappop(heap)
        popped += 1
        if d != nodes[w][0]:
            stale += 1
            note("stale")
            continue  # stale queue entry
        if d >= limit:
            continue
        expanded.add(w)
        nd = d + 1
        for pos, variant in successors(w, by_first, by_last):
            letters -= len(w) + len(variant)
            if letters < 0:
                return None, letters, LETTERS
            # A successor past max_len is charged but never built.
            new = insert(w, pos, variant, max_len)
            if new is None:
                continue
            if new == start:
                note("start again")
            seen = nodes.get(new)
            if seen is not None and seen[0] <= nd:
                note("duplicate")
                continue
            if new in expanded:
                note("re-reached")
            nodes[new] = (nd, w, pos, variant)
            if new == ():
                return _unwind(nodes, start), letters, None
            if nd < limit:
                counter += 1
                heapq.heappush(heap, (len(new), nd, counter, new))
    return None, letters, DEPTH
