import heapq
import random
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smallvol.data import CORPUS, PROP43, PROP44, presentation_text, script_text
from smallvol.formats import parse_presentation, parse_script
from smallvol.grouptool import (
    INCONCLUSIVE,
    NONHYPERBOLIC,
    Presentation,
    ProofScript,
    abelian_invariants,
    abelianization,
    detect_power_relator,
    nontrivial_in_abelianization,
    search_trivial,
    smith_normal_form,
    verify_script,
    words,
)
from smallvol.grouptool import engine, search
from smallvol.grouptool.engine import _State, _run_step

import word_refs
from oracles import derivation_replays
import search_refs
from search_refs import best_first as reference_best_first


class TestWords:
    def test_free_reduce(self):
        gens = ("a", "b")
        assert words.parse_word("aa-1b", gens) == (2,)

    def test_cyclic_reduce(self):
        gens = ("a", "b")
        w = words.parse_word("b-1ab", gens)
        assert words.cyclic_reduce(w) == (1,)

    def test_cyclic_reduce_matches_pair_by_pair_stripping(self):
        def stripped(word):
            w = list(words.free_reduce(word))
            while len(w) >= 2 and w[0] == -w[-1]:
                w = w[1:-1]
            return tuple(w)

        rng = random.Random(23)
        for _ in range(3000):
            core = [rng.choice((1, -1, 2, -2, 3)) for _ in range(rng.randint(0, 6))]
            conj = [rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, 6))]
            w = conj + core + [-x for x in reversed(conj)]
            assert words.cyclic_reduce(w) == stripped(w)

    def test_cyclic_reduce_is_linear(self):
        import time

        n = 50_000  # a 10^5-letter conjugate, one slice instead of n copies
        w = (1,) * n + (2,) + (-1,) * n
        start = time.perf_counter()
        assert words.cyclic_reduce(w) == (2,)
        assert time.perf_counter() - start < 1.0

    def test_commutator(self):
        gens = ("a", "b")
        c = words.commutator((1,), (2,))
        assert words.format_word(c, gens) == "aba-1b-1"

    def test_parse_format_round_trip(self):
        gens = ("a", "b", "c")
        for text in ("ab-1a-2b-1ab2", "a3b2", "c-5", "abc", "1"):
            w = words.parse_word(text, gens)
            assert words.parse_word(words.format_word(w, gens), gens) == w

    def test_exponent_over_the_cap_rejected(self):
        cap = words.MAX_WORD_LENGTH
        with pytest.raises(ValueError):
            words.power((1,), cap + 1)
        with pytest.raises(ValueError):
            words.power((), -(cap + 1))
        with pytest.raises(ValueError):
            words.parse_word(f"a{cap + 1}", ("a",))
        with pytest.raises(ValueError):
            words.parse_word(f"a{cap // 2}b{cap // 2 + 1}", ("a", "b"))

    @pytest.mark.parametrize("step", ("trivial a2 -1", "commutes a b -1"))
    def test_script_negative_depth_is_malformed(self, step):
        pres = Presentation.from_strings(("a", "b"), ["a2", "aba-1b-1"])
        v = verify_script(pres, parse_script(f"{step}\nconclude abelian\n"))
        assert v.status == INCONCLUSIVE and v.failed_step == 0
        assert "step 1 malformed: search depth -1 is negative" in v.reason

    def test_script_exponent_over_the_cap_is_malformed(self):
        pres = Presentation.from_strings(("a", "b"), ["aba-1b-1"])
        big = words.MAX_WORD_LENGTH + 1
        script = parse_script(f"power a {big} b 1\nconclude abelian\n")
        v = verify_script(pres, script)
        assert v.status == INCONCLUSIVE and "step 1 malformed" in v.reason

    @given(st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_reduce_involution_properties(self, letters):
        w = words.free_reduce(letters)
        assert words.free_reduce(w) == w
        assert words.concat(w, words.invert(w)) == ()
        assert words.invert(words.invert(w)) == w

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_concat_associative(self, u, v):
        u = words.free_reduce(u)
        v = words.free_reduce(v)
        assert words.concat(u, v) == words.free_reduce(tuple(u) + tuple(v))


# Unreduced letters, 0 among them, and lists of any number of such words.
_RAW_WORDS = st.lists(st.sampled_from([0, 1, -1, 2, -2, 3, -3]), max_size=12).map(tuple)


def _result(fn, *args):
    """fn(*args), or the type of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


class TestConcatLoop:
    """``words.concat`` against the loop it replaced (``word_refs``), and
    every word operation built on it against the same operation on that
    loop, over unreduced words with 0 letters."""

    @given(st.lists(_RAW_WORDS, max_size=6))
    @example([])
    @example([(), ()])
    @example([(0,), (0,)])
    @example([(0, 1, -1, 0), (2,), (-2, 0)])
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_concat(self, ws):
        assert words.concat(*ws) == word_refs.concat(*ws)

    @given(_RAW_WORDS, _RAW_WORDS, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
    @example((), (), 0, 1)
    @example((0, 0), (0,), -2, 1)
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_word_operations(self, u, v, n, gen):
        for name, args in (("free_reduce", (u,)), ("power", (u, n)),
                           ("commutator", (u, v)), ("substitute", (u, gen, v)),
                           ("normal_form", (u,))):
            got = _result(getattr(words, name), *args)
            assert got == _result(getattr(word_refs, name), *args), name


_LETTERS = st.sampled_from([1, -1, 2, -2, 3, -3])


@st.composite
def _insertions(draw):
    """A reduced word w, a position in it and a reduced v built to cancel
    up to k letters into w[:pos] and j into w[pos:] (either may be 0)
    around a free middle part; every letter doubled, as the search spells
    them, half of the time."""
    w = words.free_reduce(draw(st.lists(_LETTERS, max_size=12)))
    pos = draw(st.integers(0, len(w)))
    k = draw(st.integers(0, pos))
    j = draw(st.integers(0, len(w) - pos))
    middle = tuple(draw(st.lists(_LETTERS, max_size=4)))
    v = words.free_reduce(words.invert(w[pos - k:pos]) + middle
                          + words.invert(w[pos:pos + j]))
    scale = draw(st.sampled_from([1, 2]))
    return tuple(scale * x for x in w), pos, tuple(scale * x for x in v)


@st.composite
def _near_a_variant(draw):
    """Cyclically reduced relators, and a word L x L^-1 where x is a
    rotation of one of them or of its inverse, with one of its letters
    changed a third of the time, or any word another third."""
    relator = st.lists(_LETTERS, min_size=1, max_size=6).map(words.cyclic_reduce)
    rels = draw(st.lists(relator.filter(len), min_size=1, max_size=2))
    r = draw(st.sampled_from(rels))
    x = words.rotate(draw(st.sampled_from((r, words.invert(r)))),
                     draw(st.integers(0, len(r) - 1)))
    kind = draw(st.sampled_from(("variant", "changed", "any")))
    if kind == "changed":
        i = draw(st.integers(0, len(x) - 1))
        x = x[:i] + (draw(_LETTERS),) + x[i + 1:]
    elif kind == "any":
        x = tuple(draw(st.lists(_LETTERS, max_size=8)))
    left = tuple(draw(st.lists(_LETTERS, max_size=4)))
    return rels, words.concat(left, x, words.invert(left))


@st.composite
def _insertion_lists(draw):
    """A reduced word w, a position in it and reduced words v, each built
    as in ``_insertions`` to cancel up to k letters into w[:pos] and j
    into w[pos:], several at one position as ``words.junctions`` takes
    them; every letter doubled half of the time."""
    w = words.free_reduce(draw(st.lists(_LETTERS, max_size=12)))
    pos = draw(st.integers(0, len(w)))
    vs = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(0, pos))
        j = draw(st.integers(0, len(w) - pos))
        middle = tuple(draw(st.lists(_LETTERS, max_size=4)))
        vs.append(words.free_reduce(words.invert(w[pos - k:pos]) + middle
                                    + words.invert(w[pos:pos + j])))
    scale = draw(st.sampled_from([1, 2]))
    return (tuple(scale * x for x in w), pos,
            [tuple(scale * x for x in v) for v in vs])


@st.composite
def _searches(draw):
    """(word, relators, search options, letter budget) for
    ``search_trivial``: relators of one letter, proper powers u^p or any
    cyclically reduced word; a product of conjugated relators, whose
    successors include insertions that cancel a whole variant, or any
    word; and either the full letter budget or the relator rotations'
    cost plus up to 800 letters, which can run out at any depth."""
    def relator():
        kind = draw(st.sampled_from(("letter", "power", "any")))
        if kind == "letter":
            return (draw(_LETTERS),)
        if kind == "power":
            u = words.cyclic_reduce(draw(st.lists(_LETTERS, min_size=1, max_size=3)))
            return words.power(u or (1,), draw(st.integers(2, 3)))
        return words.cyclic_reduce(draw(st.lists(_LETTERS, min_size=1, max_size=6))) or (2,)

    rels = [relator() for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        parts = []
        for _ in range(draw(st.integers(1, 2))):
            c = tuple(draw(st.lists(_LETTERS, max_size=2)))
            r = draw(st.sampled_from(rels))
            parts += [c, words.invert(r) if draw(st.booleans()) else r, words.invert(c)]
        word = words.concat(*parts)
    else:
        word = words.free_reduce(draw(st.lists(_LETTERS, max_size=8)))
    options = {"depth": draw(st.integers(1, 4)), "node_budget": draw(st.integers(1, 200))}
    letters = search.MAX_SEARCH_LETTERS
    if draw(st.booleans()):
        letters = 2 * sum(len(r) ** 2 for r in rels) + draw(st.integers(0, 800))
    return word, rels, options, letters


class TestInsert:
    @given(_insertions())
    @example(((), 0, (1, 2)))             # the empty word
    @example(((1, 2), 2, (-2,)))          # v cancels into the left part only
    @example(((1, 2, -1), 2, (-2,)))      # ... and the parts then meet
    @example(((1, 2), 0, (-1,)))          # into the right part, at pos 0
    @example(((1, 2, 3), 1, (-1, -2)))    # into both parts
    @example(((2, 4, -2), 2, (-4,)))      # doubled letters
    @example(((2, 4, 6), 3, (-6, -4, 2)))  # doubled, at pos len(w)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_insert_is_the_reduced_concatenation(self, case):
        w, pos, v = case
        assert words.insert(w, pos, v) == words.concat(w[:pos], v, w[pos:])
        # and at every other position too, where v cancels less or not at all
        for p in range(len(w) + 1):
            assert words.insert(w, p, v) == words.concat(w[:p], v, w[p:])

    @given(_insertions())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_length_bound_drops_exactly_the_longer_words(self, case):
        w, pos, v = case
        for p in range(len(w) + 1):
            new = words.concat(w[:p], v, w[p:])
            for max_len in (len(new) - 1, len(new)):
                want = new if len(new) <= max_len else None
                assert words.insert(w, p, v, max_len) == want

    @given(_insertion_lists())
    @example(((1, 2, 3), 2, [(-2, 3, 1), (-2, 3, -3), (3, 1, -3), (3, 2, 1)]))  # k, j <= 1
    @example(((1, 2, 3), 2, [(-2, -1, 2, -3)]))   # k = 2 reaches the word's start
    @example(((1, 2, 3, 1), 2, [(2, 2, -1, -3)]))  # j = 2 reaches its end
    @example(((1, 2, 3), 2, [(-2,), (-3,), (3, -2)]))  # one and two letters
    @example(((1, 2, 3, -1), 2, [(-2, -3)]))       # v used up (k + j = m), parts meet
    @example(((1, 2, 3, 4, -1), 2, [(-2, -4, -3)]))  # ... past two letters
    @example(((2, 4, 6), 3, [(-6, -4, 2), (4, -6)]))  # doubled, at pos len(w)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_junctions_are_the_reduced_lengths(self, case):
        w, pos, vs = case
        lengths = words.junctions(w, pos, vs)
        assert lengths == [len(words.concat(w[:pos], v, w[pos:])) for v in vs]
        assert lengths == [words.junction(w, pos, v)[0] for v in vs]


class TestSmithNormalForm:
    def test_free_group(self):
        p = Presentation.from_strings(("a", "b"), [])
        assert abelianization(p) == (0, 0)

    def test_cyclic(self):
        p = Presentation.from_strings(("a",), ["a5"])
        assert abelianization(p) == (5,)

    def test_a3b2(self):
        p = Presentation.from_strings(("a", "b"), ["a3b2"])
        assert abelianization(p) == (1, 0)

    def test_divisibility_chain_random(self):
        rng = random.Random(6)
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            diag = smith_normal_form(mat)
            nz = [d for d in diag if d]
            for i in range(len(nz) - 1):
                assert nz[i + 1] % nz[i] == 0

    def test_nontrivial_in_abelianization(self):
        p = Presentation.from_strings(("a", "b", "c"), ["a2cb-1cb", "b2c2"])
        assert nontrivial_in_abelianization(p, words.parse_word("c", p.generators))
        assert not nontrivial_in_abelianization(p, words.parse_word("aba-1b-1", p.generators))


class TestDetectPowerRelator:
    def test_power_relator_a3b2(self):
        p = Presentation.from_strings(("a", "b"), ["a3b2"])
        v = detect_power_relator(p)
        assert v.nonhyperbolic and v.reason == "power-relator"

    def test_four_syllable_pattern(self):
        p = Presentation.from_strings(("a", "b"), ["a2b2a-1b2"])
        v = detect_power_relator(p)
        assert v.nonhyperbolic and v.reason == "relator-pattern"
        assert "(2,2,1)" in v.log[0]

    def test_non_matching_inconclusive(self):
        p = Presentation.from_strings(("a", "b"), ["abab-1a-1ba-1b-1"])
        assert detect_power_relator(p).status == INCONCLUSIVE

    def test_wrong_shape_inconclusive(self):
        p3 = Presentation.from_strings(("a", "b", "c"), ["a3b2"])
        assert detect_power_relator(p3).status == INCONCLUSIVE
        p2 = Presentation.from_strings(("a", "b"), ["a3b2", "ab"])
        assert detect_power_relator(p2).status == INCONCLUSIVE

    def test_invariance_rotation_inversion_renaming(self):
        rng = random.Random(8)
        base = Presentation.from_strings(("a", "b"), ["a2b3a-1b3"])
        expect = detect_power_relator(base).status
        rel = base.relators[0]
        for _ in range(40):
            w = rel
            if rng.random() < 0.5:
                w = words.invert(w)
            w = words.rotate(w, rng.randrange(len(w)))
            if rng.random() < 0.5:  # swap generator names
                w = tuple((2 if abs(x) == 1 else 1) * (1 if x > 0 else -1)
                          for x in w)
            v = detect_power_relator(Presentation(("a", "b"), (w,)))
            assert v.status == expect == NONHYPERBOLIC

    def test_degenerate_pattern_not_claimed(self):
        # n + k = 0 gives a proper power; the pattern rule must not fire
        p = Presentation.from_strings(("a", "b"), ["a2b3a2b3"])
        v = detect_power_relator(p)
        assert v.status == INCONCLUSIVE


class TestSearch:
    def test_relator_itself(self):
        rel = words.parse_word("ab-1a-2b-1ab2", ("a", "b"))
        d = search_trivial(rel, [rel], depth=2)
        assert d is not None and len(d.steps) == 1 and d.replay()

    def test_nested_commutator_calculation(self):
        gens = ("a", "b")
        rel = words.parse_word("ab-1a-2b-1ab2", gens)
        w = words.commutator(
            words.commutator(words.parse_word("ab", gens), (2,)),
            words.parse_word("ab", gens),
        )
        d = search_trivial(w, [rel], depth=8)
        assert d is not None and d.replay()

    def test_lemma_instance_property(self):
        """[a^{n+k}, b^m] is trivial in <a,b | a^n b^m a^-k b^m> for all
        1 <= n,m,k <= 3, with replayable certificates at depth <= 6."""
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for k in (1, 2, 3):
                    rel = words.concat(
                        words.power((1,), n), words.power((2,), m),
                        words.power((-1,), k), words.power((2,), m),
                    )
                    target = words.commutator(
                        words.power((1,), n + k), words.power((2,), m)
                    )
                    d = search_trivial(target, [rel], depth=6)
                    assert d is not None, (n, m, k)
                    assert d.replay()
                    assert len(d.steps) <= 6

    def test_negative_search_returns_none(self):
        rel = words.power(words.parse_word("ab", ("a", "b")), 3)
        assert search_trivial(words.commutator((1,), (2,)), [rel], depth=4) is None

    def test_derivations_replay_only_by_insertion(self):
        # replay() is pure free reduction over the recorded insertions
        rel = words.parse_word("ab-3ab2a2b2", ("a", "b"))
        w = words.commutator(words.power((2,), 3), words.parse_word("ab2a", ("a", "b")))
        d = search_trivial(w, [rel], depth=6)
        assert d is not None
        replayed = words.free_reduce(d.start)
        for step in d.steps:
            replayed = words.concat(
                replayed[: step.position], step.inserted, replayed[step.position:]
            )
        assert replayed == ()


def _corpus_groups():
    """Each corpus presentation's relators and its highest generator."""
    for name in CORPUS:
        rels = parse_presentation(presentation_text(name)).relators
        yield rels, max(abs(x) for r in rels for x in r)


def _random_word(rng, g, length):
    return words.free_reduce(rng.choice((1, -1)) * rng.randint(1, g)
                             for _ in range(length))


def _equivalence_cases():
    """(word, relators, search options, letter budget) over the corpus
    groups: seeded products of two conjugated relators (trivial) at the
    default budgets and at a letter budget small enough to run out, and
    seeded random words at depth 2 / 20 nodes."""
    rng = random.Random(15)
    cases = []
    for rels, g in _corpus_groups():
        for letters in (search.MAX_SEARCH_LETTERS, 20000):
            c = _random_word(rng, g, rng.randint(0, 2))
            d = _random_word(rng, g, rng.randint(0, 2))
            r, s = rng.choice(rels), words.invert(rng.choice(rels))
            word = words.concat(c, r, words.invert(c), d, s, words.invert(d))
            cases.append((word, rels, {}, letters))
        for _ in range(2):
            cases.append((_random_word(rng, g, rng.randint(1, 10)), rels,
                          {"depth": 2, "node_budget": 20}, search.MAX_SEARCH_LETTERS))
    return cases


def _deep_cases():
    """Seeded random words over the corpus groups at depth 3 and 60
    nodes: searches whose inner levels build words up to max_len."""
    rng = random.Random(3)
    return [(_random_word(rng, g, rng.randint(1, 6)), rels,
             {"depth": 3, "node_budget": 60}, search.MAX_SEARCH_LETTERS)
            for rels, g in _corpus_groups() for _ in range(3)]


def _root_charge(word, rels):
    """The letters the search charges for all successors of ``word``,
    counted one successor at a time, and the letters its relator
    rotations take first."""
    rels = [search._doubled(r) for r in map(words.cyclic_reduce, rels) if r]
    by_first, by_last, _ = search._tables(rels)
    w = search._doubled(word)
    return (sum(len(w) + len(v) for _, v in search_refs.successors(w, by_first, by_last)),
            2 * sum(len(r) ** 2 for r in rels))


def _last_depth_cases():
    """Seeded searches over the corpus groups that settle their last
    depth each way, at depth 1 (the start word is the only word whose
    successors are at the limit) and depth 3:
    - "pass": L x L^-1 for a rotation x of a relator or of its inverse,
      which passes the membership test;
    - "miss": the same with one letter of x changed, which misses it
      by one letter;
    - "overdraw": a random word at depth 1 with a letter budget that
      runs out among its successors."""
    rng = random.Random(35)
    cases = []
    for rels, g in _corpus_groups():
        for _ in range(2):
            r = rng.choice(rels)
            x = words.rotate(rng.choice((r, words.invert(r))), rng.randrange(len(r)))
            i = rng.randrange(len(x))
            other = rng.choice([y for y in range(-g, g + 1) if y not in (0, x[i])])
            changed = x[:i] + (other,) + x[i + 1:]
            left = _random_word(rng, g, rng.randint(0, 3))
            for kind, middle in (("pass", x), ("miss", changed)):
                word = words.concat(left, middle, words.invert(left))
                for options in ({"depth": 1}, {"depth": 3, "node_budget": 60}):
                    cases.append((kind, (word, rels, options, search.MAX_SEARCH_LETTERS)))
            charge = 0
            while not charge:
                word = _random_word(rng, g, rng.randint(3, 10))
                charge, rotations = _root_charge(word, rels)
            cases.append(("overdraw", (word, rels, {"depth": 1},
                                       rotations + 1 + rng.randrange(charge - 1))))
    return cases


# Searches that meet each case ``_best_first`` settles when it pops an
# entry, with the event by which ``search_refs.best_first`` shows it: a
# word re-reached at a smaller depth after it was expanded, found or not;
# node-budget stops that fall among stale entries; successors equal to
# the start word; and duplicates the eager round never queued, counted
# against the budget or not.
POP_RULE_CASES = (
    ("re-reached", (-1,), [(-1, -1, -2, -1)], {"depth": 8, "node_budget": 100}),
    ("re-reached", (2, 2, 2), [(-2, -2, 1, 2, -1), (-1, 2)], {}),
    ("nodes among stale", (-1, 2, 2), [(1, 1, 2)], {"depth": 8, "node_budget": 100}),
    ("nodes among stale", (2, 1, 2), [(1, -2, -2)], {"depth": 8, "node_budget": 70}),
    ("start again", (1,), [(1, 1)], {"depth": 8, "node_budget": 100}),
    ("start again", (1,), [(-1, -2), (2,)], {}),
    ("start again", (1,), [(-2, -2, -1), (2, 1)], {"depth": 8, "node_budget": 100}),
    ("duplicate", (-1,), [(-1, -2, -2)], {"depth": 8, "node_budget": 183}),
    ("duplicate", (2,), [(-1, -2, -1)], {"depth": 4, "node_budget": 30}),
)


def _reference_events(monkeypatch, word, rels, options):
    """The events ``search_refs.best_first`` counts over the rounds of
    one search."""
    events = {}
    monkeypatch.setattr(search, "_best_first", lambda *args: reference_best_first(
        *args[:7], events=events))
    search_trivial(word, rels, **options)
    return events


def _search_outcomes(monkeypatch, cases):
    """Each case's derivation and ``stopped_by``, and each deepening
    round's result with the letters it left of the budget."""
    rounds = []
    best_first = search._best_first

    def recording(*args):
        out = best_first(*args)
        rounds.append(out)
        return out
    monkeypatch.setattr(search, "_best_first", recording)
    outcomes = []
    for word, rels, options, letters in cases:
        monkeypatch.setattr(search, "MAX_SEARCH_LETTERS", letters)
        stopped_by = []
        outcomes.append((search_trivial(word, rels, stopped_by=stopped_by, **options),
                         stopped_by))
    monkeypatch.setattr(search, "_best_first", best_first)
    return outcomes, rounds


def _outcome(case, best_first):
    """The derivation, ``stopped_by`` and rounds of one ``search_trivial``
    call whose rounds run ``best_first``: each round's depth limit and
    result with the letters it left.  Patches and restores by hand, as
    hypothesis runs many cases per test call."""
    word, rels, options, letters = case
    rounds = []

    def recording(*args):
        out = best_first(*args)
        rounds.append((args[3], out))
        return out
    saved = search._best_first, search.MAX_SEARCH_LETTERS
    search._best_first, search.MAX_SEARCH_LETTERS = recording, letters
    try:
        stopped_by = []
        return search_trivial(word, rels, stopped_by=stopped_by, **options), stopped_by, rounds
    finally:
        search._best_first, search.MAX_SEARCH_LETTERS = saved


def _reference_round(*args):
    return reference_best_first(*args[:7])


def _in_an_empty_cache(fn):
    """``fn()`` run with no relators prepared (``search._prepared``);
    the process's own cache is put back after it.  Patches and restores
    by hand, as hypothesis runs many cases per test call."""
    saved = search._prepared, search._held
    search._prepared, search._held = {}, 0
    try:
        return fn()
    finally:
        search._prepared, search._held = saved


def _held_footprint():
    """The words the prepared entries hold, counted afresh; ``_keep``
    keeps each entry's count and ``search._held``, their sum, equal to
    it."""
    counts = [(entry[4], search._footprint(key, entry[1], entry[3]))
              for key, entry in search._prepared.items()]
    assert all(kept == fresh for kept, fresh in counts)
    return sum(fresh for _, fresh in counts)


@pytest.fixture
def empty_cache(monkeypatch):
    monkeypatch.setattr(search, "_prepared", {})
    monkeypatch.setattr(search, "_held", 0)


def _counting_tables(monkeypatch):
    """The relator lists ``search._tables`` is called with from now on."""
    built, tables = [], search._tables

    def counting(rels):
        built.append(rels)
        return tables(rels)
    monkeypatch.setattr(search, "_tables", counting)
    return built


# Searches that meet what the round does differently from the eager
# round, each with its feature: a one-letter relator, whose rotations
# and inverse are single letters; a proper power, whose rotations
# repeat; a successor that uses up its variant and joins the word's two
# parts (the empty word here); a failed search over a proper power; and a
# letter budget that the root's charge overdraws at an inner depth (the
# rotations take 50 letters, the root's successors 162 in each round).
SEARCH_FEATURE_CASES = (
    ("one letter", ((2, 1, 1, -2, 3, 1, -3), [(1,)], {"depth": 4}, search.MAX_SEARCH_LETTERS)),
    ("proper power", ((3, 1, 2, 1, 2, -3), [(1, 2, 1, 2)], {}, search.MAX_SEARCH_LETTERS)),
    ("whole variant", ((3, 1, 2, -1, -2, -2, -3), [(1, 2, -1, -2, -2)], {},
                       search.MAX_SEARCH_LETTERS)),
    ("fails", ((2, 1), [(1, 2, 1, 2)], {"depth": 4, "node_budget": 100},
               search.MAX_SEARCH_LETTERS)),
    ("inner overdraw", ((2, 1, 1, 2), [(1, 2, -1, -2, -2)], {"depth": 4, "node_budget": 100},
                        50 + 162 + 81)),
)


class TestJunctionKernel:
    """The search builds its words with ``words.insert``; the certificate
    check replays them with ``words.concat``."""

    def test_search_matches_the_concat_kernel(self, monkeypatch):
        cases = _equivalence_cases()
        fast = _search_outcomes(monkeypatch, cases)

        def concat_kernel(w, pos, v, max_len):
            new = words.concat(w[:pos], v, w[pos:])
            return new if len(new) <= max_len else None

        monkeypatch.setattr(words, "insert", concat_kernel)
        slow = _search_outcomes(monkeypatch, cases)
        assert fast == slow
        outcomes, rounds = fast
        assert sum(d is not None and len(d.steps) > 1 for d, _ in outcomes) >= 10
        assert {tuple(s) for _, s in outcomes} == {
            (), (search.DEPTH,), (search.NODES,), (search.LETTERS,)}
        assert len({letters for _, letters, _ in rounds}) > len(cases)

    def test_search_builds_no_word_past_its_length_bound(self, monkeypatch):
        # A successor longer than the search's max_len is charged but never
        # built: words.junctions finds it too long, and every word
        # words.insert builds fits the bound of its round.
        bounds, built, too_long = [], [], set()
        best_first, insert, junctions = search._best_first, words.insert, words.junctions

        def bounded(start, by_first, by_last, limit, max_len, *rest):
            bounds.append(max_len)
            return best_first(start, by_first, by_last, limit, max_len, *rest)

        def recording_junctions(w, pos, variants):
            sizes = junctions(w, pos, variants)
            too_long.update((w, pos, v, bounds[-1])
                            for v, size in zip(variants, sizes) if size > bounds[-1])
            return sizes

        def recording_insert(w, pos, v, max_len):
            new = insert(w, pos, v, max_len)
            built.append(((w, pos, v, bounds[-1]), len(new)))
            return new

        monkeypatch.setattr(search, "_best_first", bounded)
        monkeypatch.setattr(words, "junctions", recording_junctions)
        monkeypatch.setattr(words, "insert", recording_insert)
        for word, rels, options, letters in _equivalence_cases() + _deep_cases():
            monkeypatch.setattr(search, "MAX_SEARCH_LETTERS", letters)
            search_trivial(word, rels, **options)
        assert built and all(n <= key[3] for key, n in built)
        assert any(n == key[3] for key, n in built)
        # Some successors were too long, and insert built none of them.
        assert too_long and not too_long & {key for key, _ in built}

    def test_replay_does_not_use_the_kernel(self, monkeypatch):
        rel = words.parse_word("a2b3a-1b3", ("a", "b"))
        w = words.commutator(words.power((1,), 3), words.power((2,), 3))
        d = search_trivial(w, [rel], depth=6)

        def refuse(*args):
            raise AssertionError("replay called words.insert")
        monkeypatch.setattr(words, "insert", refuse)
        assert len(d.steps) == 2 and d.replay()
        with pytest.raises(AssertionError, match="replay called"):
            search_trivial(w, [rel], depth=6)


class TestLastDepth:
    """``_best_first`` settles the words whose successors lie at the
    depth limit by a membership test and one bulk charge; every round
    returns what building each successor returns (``search_refs``)."""

    def test_rounds_match_the_reference(self, monkeypatch):
        kinds, last_depth = zip(*_last_depth_cases())
        pop_rules = [(word, rels, options, search.MAX_SEARCH_LETTERS)
                     for _, word, rels, options in POP_RULE_CASES]
        cases = _equivalence_cases() + _deep_cases() + pop_rules + list(last_depth)
        tested = []
        may_vanish = search._may_vanish

        def recording(w, *tables):
            tested.append(may_vanish(w, *tables))
            return tested[-1]
        monkeypatch.setattr(search, "_may_vanish", recording)
        fast = _search_outcomes(monkeypatch, cases)
        monkeypatch.setattr(search, "_best_first",
                            lambda *args: reference_best_first(*args[:7]))
        assert fast == _search_outcomes(monkeypatch, cases)
        assert True in tested and False in tested
        outcomes = fast[0][-len(last_depth):]
        for kind, case, (d, stopped_by) in zip(kinds, last_depth, outcomes):
            word, rels, options, _ = case
            root = search._doubled(word)
            variants, lengths, _ = search._tables(
                [search._doubled(words.cyclic_reduce(r)) for r in rels])[2]
            if kind == "pass":
                assert may_vanish(root, variants, lengths)
                if options["depth"] == 1:
                    assert d is not None and len(d.steps) == 1
            elif kind == "overdraw":
                assert not may_vanish(root, variants, lengths)
                assert stopped_by == [search.LETTERS]
        assert sum(kind == "miss" and d is None for kind, (d, _) in zip(kinds, outcomes)) >= 10

    @given(_searches())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_searches_match_the_reference(self, case):
        assert _outcome(case, search._best_first) == _outcome(case, _reference_round)

    @pytest.mark.parametrize("feature, case", SEARCH_FEATURE_CASES,
                             ids=[feature for feature, _ in SEARCH_FEATURE_CASES])
    def test_feature_cases_match_the_reference(self, feature, case):
        got = _outcome(case, search._best_first)
        assert got == _outcome(case, _reference_round)
        d, stopped_by, rounds = got
        word, rels, _, letters = case
        if feature == "one letter":
            assert d is not None and len(d.steps) > 1
        elif feature == "proper power":
            r, = rels
            assert len(set(words.rotations(r))) < len(r) and d is not None
        elif feature == "whole variant":
            assert d is not None and len(d.steps) == 1
        elif feature == "fails":
            assert d is None and stopped_by == [search.DEPTH]
        else:
            (first, (_, left, stop)), (second, (_, _, last)) = rounds
            root = search._doubled(word)
            by_first, by_last, (_, _, around) = search._tables(
                [search._doubled(r) for r in rels])
            charge = search._charge(root, by_first, by_last, around)
            assert (first, stop, second, last) == (1, search.DEPTH, 2, search.LETTERS)
            assert letters - 50 - charge == left < charge

    @pytest.mark.parametrize("event, word, rels, options", POP_RULE_CASES)
    def test_pop_rule_cases_meet_their_event(self, monkeypatch, event, word, rels,
                                             options):
        assert event in _reference_events(monkeypatch, word, rels, options)

    def test_a_found_search_builds_only_what_it_pops(self, monkeypatch):
        # Successors are queued unbuilt: a found search builds each word it
        # pops once, and no successor at the last depth.
        counts = {"pops": 0, "builds": 0}
        insert, heappop = words.insert, heapq.heappop

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped
        monkeypatch.setattr(words, "insert", counting("builds", insert))
        monkeypatch.setattr(search, "heapq", types.SimpleNamespace(
            heappop=counting("pops", heappop), heappush=heapq.heappush))
        deep = 0
        for word, rels, options, _ in _equivalence_cases():
            counts.update(pops=0, builds=0)
            d = search_trivial(word, rels, **options)
            if d is not None:
                assert counts["builds"] <= counts["pops"], (word, counts)
                deep += len(d.steps) > 1
        assert deep >= 10

    @given(_searches())
    @example(((), [(1, 2, -1, -2), (2, 1, -2, -1)], {}, 0))  # one is the other's inverse
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_tables_list_each_rotation_once(self, case):
        rels = [search._doubled(r) for r in case[1]]
        by_first, by_last, (variants, lengths, _) = search._tables(rels)
        spelled = dict.fromkeys(v for r in rels for base in (r, words.invert(r))
                                for v in words.rotations(base))
        assert list(variants) == list(spelled)
        assert lengths == sorted({len(v) for v in spelled}, reverse=True)
        for table, end in ((by_first, 0), (by_last, -1)):
            assert {x: list(vs) for x, vs in table.items()} == {
                x: [v for v in spelled if v[end] == x] for x in {v[end] for v in spelled}}

    @given(_near_a_variant())
    @example(([(1, 2, -1, -2)], (3, 2, 1, -2, -1, -3)))  # L x L^-1
    @example(([(1, 2, -1, -2)], (3, 2, 1, -2, 1, -3)))   # ... missed by one letter
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_membership_test_and_charge(self, case):
        rels, word = case
        by_first, by_last, (variants, lengths, around) = search._tables(
            [search._doubled(r) for r in rels])
        w = search._doubled(word)
        successors = list(search_refs.successors(w, by_first, by_last))
        charge = sum(len(w) + len(v) for _, v in successors)
        assert search._charge(w, by_first, by_last, around) == charge
        if not search._may_vanish(w, variants, lengths):
            assert all(words.concat(w[:pos], v, w[pos:]) != () for pos, v in successors)
        d = search_trivial(word, rels, depth=3, node_budget=200)
        assert d is None or derivation_replays(d, rels)


class TestPreparedRelators:
    """``search_trivial`` reduces, charges and spells each relator set once
    per process and shares the result, ``_between`` memo included, with
    every later search over the same relators; a search on a warm cache
    returns what it returns on a cold one, letters left included."""

    @given(_searches())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_searches_repeat_on_a_warm_cache(self, case):
        cold, warm = _in_an_empty_cache(
            lambda: [_outcome(case, search._best_first) for _ in range(2)])
        assert cold == warm == _outcome(case, _reference_round)

    def test_reference_cases_repeat_on_a_warm_cache(self, monkeypatch, empty_cache):
        # Every case held to the eager round elsewhere, each alone in an
        # empty cache, then all of them in one cache, where a small letter
        # budget evicts what a larger one kept; then those at the full
        # budget again, on a cache warm for all but their first relators.
        pop_rules = [(word, rels, options, search.MAX_SEARCH_LETTERS)
                     for _, word, rels, options in POP_RULE_CASES]
        cases = (_equivalence_cases() + _deep_cases() + pop_rules
                 + [case for _, case in _last_depth_cases()]
                 + [case for _, case in SEARCH_FEATURE_CASES])
        cold = [_in_an_empty_cache(lambda: _outcome(case, search._best_first))
                for case in cases]
        assert [_outcome(case, search._best_first) for case in cases] == cold
        full = [i for i, case in enumerate(cases) if case[3] == search.MAX_SEARCH_LETTERS]
        keys = {tuple(map(tuple, cases[i][1])) for i in full}
        built = _counting_tables(monkeypatch)
        assert [_outcome(cases[i], search._best_first) for i in full] == [cold[i] for i in full]
        assert len(built) <= len(keys) < len(full) // 2
        assert search._held == _held_footprint() <= search.MAX_SEARCH_LETTERS // 10

    def test_relators_in_another_order_get_their_own_entry(self, empty_cache):
        # The order of the relators is the order of the variants at each
        # insertion point, and so of the charges: the one-letter relator
        # first finds (1) = 1 three letters sooner.
        outcomes = []
        for rels in ([(1,), (1, 1)], [(1, 1), (1,)]):
            case = ((1,), rels, {}, search.MAX_SEARCH_LETTERS)
            outcomes.append(_outcome(case, search._best_first))
            assert outcomes[-1] == _outcome(case, _reference_round)
        (d, _, [(_, (_, left, _))]), (d2, _, [(_, (_, left2, _))]) = outcomes
        assert d == d2 and left == left2 + 3
        assert list(search._prepared) == [((1,), (1, 1)), ((1, 1), (1,))]

    def test_relators_as_lists_share_the_tuples_entry(self, empty_cache):
        rels = [words.parse_word("a2b3a-1b3", ("a", "b"))]
        w = words.commutator(words.power((1,), 3), words.power((2,), 3))
        d = search_trivial(w, rels, depth=6)
        assert search_trivial(list(w), [list(r) for r in rels], depth=6) == d
        assert len(d.steps) == 2 and list(search._prepared) == [tuple(rels)]

    def test_shared_tables_stay_as_built(self, empty_cache):
        # After many searches, each entry still holds what preparing its
        # relators afresh gives, and its memo what _between lists afresh.
        for word, rels, options, _ in _equivalence_cases() + _deep_cases():
            search_trivial(word, rels, **options)
        assert len(search._prepared) == len(CORPUS)
        for key, (rels, charge, longest, tables, _) in search._prepared.items():
            fresh = search._reduced(key)
            assert (rels, charge, longest) == fresh[:3]
            by_first, by_last, (variants, lengths, around) = search._tables(rels)
            assert tables[:2] == (by_first, by_last)
            assert tables[2][:2] == (variants, lengths) and tables[2][2]
            for pair, entry in tables[2][2].items():
                assert entry == search._between(pair, by_first, by_last, around)

    def test_a_repeated_search_prepares_its_relators_once(self, monkeypatch, empty_cache):
        built = _counting_tables(monkeypatch)
        rels = parse_presentation(presentation_text(CORPUS[0])).relators
        for word in [(1, -1, 2), (1, 2), (1, 2)]:
            search_trivial(word, rels, depth=2, node_budget=20)
        assert len(built) == 1


class TestWorkBounds:
    """Hostile scripts cannot make the checker build or store unbounded
    words, or spend time superlinear in a stored word."""

    def test_is_rotation_matches_rotations(self):
        rng = random.Random(8)
        for _ in range(2000):
            r = words.cyclic_reduce(rng.choice((1, -1, 2, -2, 3)) for _ in range(rng.randint(0, 8)))
            w = (words.rotate(r, rng.randint(0, 9)) if rng.random() < 0.5 else
                 tuple(rng.choice((1, -1, 2, -2, 3)) for _ in range(rng.randint(0, 8))))
            assert words.is_rotation(r, w) == (len(w) == len(r) and w in words.rotations(r))

    def test_has_trivial_is_linear_in_the_relator(self):
        import tracemalloc

        # Comparing against all rotations of this relator would hold about
        # 10^8 letters (0.8 GB); a linear check needs well under 8 MB.
        rng = random.Random(9)
        r = tuple(rng.choice((1, 2)) for _ in range(words.MAX_WORD_LENGTH))
        st_ = _State(names=["a", "b"], active=[1, 2], relators=[r])
        rotated = words.rotate(r, 4321)
        flipped = rotated[:-1] + (3 - rotated[-1],)  # one letter count differs
        tracemalloc.start()
        try:
            assert st_.has_trivial(rotated)
            assert st_.has_trivial(words.invert(words.rotate(r, 17)))
            assert not st_.has_trivial(flipped)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_search_stops_when_its_letter_budget_is_spent(self, monkeypatch):
        # [a^3, b^3] in <a, b | a^2 b^3 a^-1 b^3>: the relator rotations
        # (2 * 9^2 = 162 letters), then two deepening rounds that build 1785
        # and 1803 letters, the last word being the empty one.
        rel = words.parse_word("a2b3a-1b3", ("a", "b"))
        w = words.commutator(words.power((1,), 3), words.power((2,), 3))
        monkeypatch.setattr(search, "MAX_SEARCH_LETTERS", 3750)
        assert len(search_trivial(w, [rel], depth=6).steps) == 2
        monkeypatch.setattr(search, "MAX_SEARCH_LETTERS", 3749)
        assert search_trivial(w, [rel], depth=6) is None

    def test_long_relator_search_stops_before_building_its_rotations(self):
        import tracemalloc

        # The rotations of a^2000 b^2000 and its inverse spell 3.2 * 10^7
        # letters, more than the whole letter budget.  Building them first
        # took 52 s and 329 MB before the search could give up.
        rel = words.concat(words.power((1,), 2000), words.power((2,), 2000))
        stopped_by = []
        tracemalloc.start()
        try:
            assert search_trivial((1, 2), [rel], stopped_by=stopped_by) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stopped_by == [search.LETTERS]
        assert peak < 2**20
        pres = Presentation.from_strings(("a", "b"), ["a2000b2000"])
        v = verify_script(pres, parse_script("trivial ab\nconclude abelian\n"))
        assert v.reason == ("step 1 failed: could not derive ab = 1 within "
                            "the 10000000-letter search budget (depth 8)")

    def test_prepared_relators_stay_within_the_letter_budget(self, monkeypatch,
                                                            empty_cache):
        # Distinct relator sets whose charges sum past the budget, each
        # searched after the first set is searched again: after every
        # search the cache holds at most a tenth of MAX_SEARCH_LETTERS,
        # and it evicts the least recently used sets, never the first one.
        monkeypatch.setattr(search, "MAX_SEARCH_LETTERS", 200000)
        built = _counting_tables(monkeypatch)
        charges, keys, most = 0, [], 0
        for k in range(2, 71):
            rel = words.concat(words.power((1,), k), (2, -1, -2))
            keys.append((rel,))
            charges += 2 * len(rel) ** 2
            for key in dict.fromkeys((keys[0], keys[-1])):
                search_trivial((1, 2, -1), key, depth=2, node_budget=20)
            assert search._held == _held_footprint() <= search.MAX_SEARCH_LETTERS // 10
            kept = list(search._prepared)
            assert kept == keys[len(keys) - len(kept) + 1:-1] + [keys[0], keys[-1]][-len(keys):]
            most = max(most, len(kept))
        assert charges > search.MAX_SEARCH_LETTERS
        assert built == [[search._doubled(rel)] for rel, in keys]
        assert len(kept) < most < len(keys)

    def test_prepared_relators_are_counted_at_no_less_than_their_bytes(
            self, empty_cache):
        import struct
        import tracemalloc

        # What clearing the cache frees, against its count in machine
        # words: one-letter relators over 2000 generators (a list for
        # each variant in both letter tables), a corpus presentation, one
        # long relator, and relators a b_i from a word a^-1 b_2 a^-1 b_3
        # ... whose 300 insertion points each list hundreds of variants
        # in the _between memo.
        word_bytes = struct.calcsize("P")
        corpus = parse_presentation(presentation_text(CORPUS[7])).relators
        shared = [[1, g] for g in range(2, 302)]
        for rels, word in (([[g] for g in range(1, 2001)], (1, 2, -1)),
                           ([list(r) for r in corpus], (1, 2, -1)),
                           ([[1] * 200 + [2] * 200], (1, 2, -1)),
                           (shared, tuple(x for g in range(2, 152) for x in (-1, g)))):
            tracemalloc.start()
            try:
                search_trivial(word, rels, depth=3, node_budget=200)
                held, kept = search._held, len(search._prepared)
                before = tracemalloc.get_traced_memory()[0]
                search._prepared.clear()
                freed = before - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            search._held = 0
            assert kept == 1 and 0 < freed <= word_bytes * held

    def test_a_relator_set_over_the_budget_is_never_stored(self, monkeypatch,
                                                           empty_cache):
        built = _counting_tables(monkeypatch)
        long_rel = words.concat(words.power((1,), 2000), words.power((2,), 2000))
        stopped_by = []
        assert search_trivial((1, 2), [long_rel], stopped_by=stopped_by) is None
        assert stopped_by == [search.LETTERS] and not search._prepared
        # a2b3a-1b3 spells 162 letters of rotations: one letter over the
        # budget, it is neither built nor stored; within it, it is kept.
        rel = words.parse_word("a2b3a-1b3", ("a", "b"))
        w = words.commutator(words.power((1,), 3), words.power((2,), 3))
        full = search.MAX_SEARCH_LETTERS
        monkeypatch.setattr(search, "MAX_SEARCH_LETTERS", 161)
        assert search_trivial(w, [rel], depth=6) is None
        assert not built and not search._prepared and search._held == 0
        monkeypatch.setattr(search, "MAX_SEARCH_LETTERS", full)
        assert search_trivial(w, [rel], depth=6) is not None
        assert len(built) == 1 and list(search._prepared) == [(rel,)]

    def test_derivations_are_spelled_in_the_callers_letters(self):
        # The letters -1 and -2 (a^-1 and b^-1) hash alike in CPython, so
        # the search runs over doubled letters; its derivations come back
        # in the caller's letters, and renaming a to c changes nothing else.
        rel = words.parse_word("a-2b-3ab-3", ("a", "b"))
        w = words.commutator(words.power((-1,), 3), words.power((-2,), 3))
        d = search_trivial(w, [rel], depth=6)
        assert d is not None and d.replay() and d.start == w and len(d.steps) == 2
        assert all(set(map(abs, step.inserted)) <= {1, 2} for step in d.steps)
        renamed = {1: 3, -1: -3, 2: 2, -2: -2}
        d3 = search_trivial(tuple(renamed[x] for x in w),
                            [tuple(renamed[x] for x in rel)], depth=6)
        assert [(s.position, tuple(renamed[x] for x in s.inserted)) for s in d.steps] == \
            [(s.position, s.inserted) for s in d3.steps]

    def test_failed_search_names_the_depth(self):
        # a18 = 1 needs nine insertions of a2; depth 8 explores every word.
        stopped_by = []
        assert search_trivial((1,) * 18, [(1, 1)], stopped_by=stopped_by) is None
        assert stopped_by == [search.DEPTH]
        pres = Presentation.from_strings(("a",), ["a2"])
        v = verify_script(pres, parse_script("trivial a18\n"))
        assert v.reason == "step 1 failed: could not derive a18 = 1 within depth 8"
        assert search_trivial((1,) * 16, [(1, 1)]) is not None

    def test_failed_search_names_the_node_budget(self, monkeypatch):
        stopped_by = []
        assert search_trivial((1,) * 8, [(1, 1)], node_budget=2,
                              stopped_by=stopped_by) is None
        assert stopped_by == [search.NODES]
        pres = Presentation.from_strings(("a", "b"), ["a2", "b2"])
        monkeypatch.setattr(search, "DEFAULT_NODE_BUDGET", 2)
        v = verify_script(pres, parse_script("commutes a4 b 3\n"))
        assert v.reason == ("step 1 failed: could not derive [a4,b] = 1 within "
                            "the 2-node search budget (depth 3)")

    def test_failed_search_names_the_letter_budget(self, monkeypatch):
        monkeypatch.setattr(search, "MAX_SEARCH_LETTERS", 3749)
        rel = words.parse_word("a2b3a-1b3", ("a", "b"))
        w = words.commutator(words.power((1,), 3), words.power((2,), 3))
        stopped_by = []
        assert search_trivial(w, [rel], depth=6, stopped_by=stopped_by) is None
        assert stopped_by == [search.LETTERS]
        pres = Presentation.from_strings(("a", "b"), ["a2b3a-1b3"])
        v = verify_script(pres, parse_script("commutes a3 b3 6\n"))
        assert v.reason == ("step 1 failed: could not derive [a3,b3] = 1 within "
                            "the 3749-letter search budget (depth 6)")

    def test_long_commutator_search_gives_up(self):
        # At the node budget alone this search built about 10^9 letters.
        pres = Presentation.from_strings(("a", "b"), ["aba-1b-1"])
        v = verify_script(pres, parse_script("trivial a40b40a-40b-40\nconclude abelian\n"))
        assert v.status == INCONCLUSIVE and v.failed_step == 0
        assert "within the 10000000-letter search budget (depth 8)" in v.reason

    def test_rewritten_relators_are_capped(self):
        # Alternating substitutions grow the relators like Fibonacci numbers.
        pres = Presentation.from_strings(("a", "b"), ["ab", "ba2"])
        steps = ["subst 1 0 2 0 0", "subst 2 0 1 0 0"] * 20
        v = verify_script(pres, parse_script("\n".join(steps)))
        assert v.status == INCONCLUSIVE and v.failed_step == 16
        assert "step 17 malformed" in v.reason and "word cap" in v.reason

    def test_introduce_over_the_cap_is_malformed(self):
        pres = Presentation.from_strings(("a", "b"), ["aba-1b-1"])
        text = f"introduce c a{words.MAX_WORD_LENGTH}\nconclude abelian\n"
        v = verify_script(pres, parse_script(text))
        assert v.status == INCONCLUSIVE and "step 1 malformed" in v.reason

    def test_substitute_refuses_before_building(self):
        cap = words.MAX_WORD_LENGTH
        with pytest.raises(ValueError):
            words.substitute((1,) * cap, 1, (2, 2))
        # The bound counts occurrences, not |word| * |replacement|.
        assert len(words.substitute((1,) + (2,) * 5000, 1, (3,) * 3000)) == 8000
        pres = Presentation.from_strings(("a", "b", "c"), ["a-1c1000", "a20b"])
        v = verify_script(pres, parse_script("eliminate a 1\nconclude abelian\n"))
        assert v.status == INCONCLUSIVE and "step 1 malformed" in v.reason


def _corpus_pair(name):
    pres = parse_presentation(presentation_text(name))
    script = parse_script(script_text(name))
    return pres, script


class TestCorpus:
    @pytest.mark.parametrize("name", PROP43)
    def test_prop43_scripts(self, name):
        pres, script = _corpus_pair(name)
        v = verify_script(pres, script)
        assert v.nonhyperbolic, (name, v.reason)

    @pytest.mark.parametrize("name", PROP44)
    def test_prop44_scripts(self, name):
        pres, script = _corpus_pair(name)
        v = verify_script(pres, script)
        assert v.nonhyperbolic, (name, v.reason)

    def test_last_prop44_is_swapped_first(self):
        """The ninth closed-case group is the first one with the roles of
        the generators exchanged (up to rotating the relators)."""
        p1, _ = _corpus_pair("p44_01")
        p9, _ = _corpus_pair("p44_09")
        swap = {1: 2, -1: -2, 2: 1, -2: -1}
        swapped = [tuple(swap[x] for x in r) for r in p1.relators]
        for w in swapped:
            w = words.cyclic_reduce(w)
            assert any(len(w) == len(r) and w in words.rotations(r)
                       for r in p9.relators)

    @pytest.mark.parametrize("name", CORPUS)
    def test_tietze_abelianization_invariance(self, name):
        """Invariant factors never change across presentation-rewriting
        steps of any shipped script."""
        pres, script = _corpus_pair(name)
        st_ = _State(
            names=list(pres.generators),
            active=list(range(1, len(pres.generators) + 1)),
            relators=list(pres.relators),
        )
        before = abelian_invariants(st_.snapshot())
        for i, step in enumerate(script.steps):
            if step[0] == "branch":
                break  # assumption steps legitimately change the group
            out = _run_step(st_, step, 8)
            if step[0] in ("rotate", "subst", "introduce", "eliminate", "change"):
                assert abelian_invariants(st_.snapshot()) == before, (name, i)
            if out is not None:
                break


class TestMutations:
    """Corrupted scripts must come back inconclusive, never nonhyperbolic."""

    def _verify_mutated(self, name, mutate):
        pres, script = _corpus_pair(name)
        steps = [list(s) for s in script.steps]
        mutate(steps)
        mutated = ProofScript(tuple(tuple(s) for s in steps))
        return verify_script(pres, mutated)

    def test_corrupt_power_exponent(self):
        v = self._verify_mutated("p43_02", lambda s: s[1].__setitem__(2, "4"))
        assert v.status == INCONCLUSIVE and v.failed_step is not None

    def test_corrupt_subst_position(self):
        def mutate(steps):
            for s in steps:
                if s[0] == "subst":
                    s[2] = str(int(s[2]) + 1)
                    return
        v = self._verify_mutated("p44_01", mutate)
        assert v.status == INCONCLUSIVE

    def test_corrupt_grouplem_params(self):
        def mutate(steps):
            for s in steps:
                if s[0] == "grouplem":
                    s[3] = str(int(s[3]) + 1)
                    return
        v = self._verify_mutated("p44_06", mutate)
        assert v.status == INCONCLUSIVE

    def test_drop_required_fact(self):
        v = self._verify_mutated("p43_01", lambda s: s.pop(0))
        assert v.status == INCONCLUSIVE

    def test_premature_conclude(self):
        def mutate(steps):
            del steps[:-1]  # keep only the conclude
        v = self._verify_mutated("p43_04", mutate)
        assert v.status == INCONCLUSIVE

    def test_unknown_step_kind(self):
        def mutate(steps):
            steps.insert(0, ["frobnicate", "a"])
        v = self._verify_mutated("p43_09", mutate)
        assert v.status == INCONCLUSIVE

    @pytest.mark.parametrize("pres_text, steps_text", [
        *((presentation_text(n), script_text(n)) for n in CORPUS),
        ("gens a b\nrel a\n", "trivial a\nconclude trivial-gen a\n"),
        ("gens a b\nrel a3\n", "trivial a3 2\nconclude torsion a 3\n"),
    ], ids=[*CORPUS, "trivial-gen", "torsion"])
    def test_an_extra_token_makes_any_step_malformed(self, pres_text, steps_text):
        # Every step kind, and both depth forms of trivial and commutes
        # (a step without its optional depth gets the default depth 8
        # first): trailing tokens used to be ignored, so "conclude abelian
        # please" proved.
        pres = parse_presentation(pres_text)
        steps = parse_script(steps_text).steps
        assert verify_script(pres, ProofScript(steps)).nonhyperbolic
        short = {"trivial": 2, "commutes": 3}
        for i, step in enumerate(steps):
            step += ("8",) * (short.get(step[0]) == len(step)) + ("9",)
            v = verify_script(pres, ProofScript(steps[:i] + (step,) + steps[i + 1:]))
            assert v.failed_step == i, (step, v.reason)
            assert v.reason.startswith(f"step {i + 1} malformed: '{step[0]}"), v.reason

    def test_bare_conclude_names_the_missing_mode(self):
        # It used to read "step 1 malformed: tuple index out of range".
        pres = parse_presentation("gens a b\nrel aba-1b-1\n")
        for text, i in (("conclude\n", 0), ("commutes a b 2\nconclude\n", 1)):
            v = verify_script(pres, parse_script(text))
            assert v.status == INCONCLUSIVE and v.failed_step == i
            assert v.reason == (f"step {i + 1} malformed: conclude needs a mode: "
                                "abelian, trivial-gen or torsion")

    def test_eliminate_with_two_occurrences(self):
        pres = parse_presentation("gens a b\nrel abab\n")
        script = parse_script("eliminate a 1\nconclude abelian\n")
        v = verify_script(pres, script)
        assert v.status == INCONCLUSIVE

    def test_branch_without_power_fact(self):
        pres = parse_presentation("gens a b\nrel a3b2\n")
        script = parse_script("branch ab 2\nconclude abelian\n")
        v = verify_script(pres, script)
        assert v.status == INCONCLUSIVE and v.failed_step == 0

    def test_hub_requires_nontrivial_hub(self):
        # all pairs commute with c, but c dies in the abelianization:
        # the hub argument must refuse
        pres = parse_presentation("gens a b c\nrel c\n")
        script = parse_script(
            "commutes a c 2\ncommutes b c 2\nconclude abelian\n"
        )
        v = verify_script(pres, script)
        assert v.status == INCONCLUSIVE


# Per signature letter, a token every kind reads over <a, b>, and one it
# cannot read (``t`` reads any token).
_READABLE = {"w": "a", "g": "a", "i": "1", "t": "c", "d": "2"}
_UNREADABLE = {"w": "z", "g": "z", "i": "x", "d": "x"}


class TestSignatures:
    """Every step reads its arguments through one signature table."""

    @pytest.mark.parametrize("kind, position", [
        (kind, k) for kind, sig in engine._SIGNATURES.items()
        for k, letter in enumerate(sig) if letter in _UNREADABLE
    ])
    def test_an_unreadable_argument_makes_the_step_malformed(self, kind, position):
        sig = engine._SIGNATURES[kind]
        tokens = [_READABLE[letter] for letter in sig]
        tokens[position] = _UNREADABLE[sig[position]]
        pres = Presentation.from_strings(("a", "b"), ["aba-1b-1"])
        v = verify_script(pres, ProofScript((tuple(kind.split()) + tuple(tokens),)))
        assert v.failed_step == 0 and v.status == INCONCLUSIVE
        assert v.reason.startswith("step 1 malformed: "), v.reason

    def test_the_docstring_grammar_declares_each_signature(self):
        doc = engine.__doc__
        grammar = {}
        for line in doc[doc.index("Script text grammar"):].splitlines():
            if not line.startswith("    "):
                continue
            parts = line.split()
            kind = " ".join(p for p in parts if p[0] not in "<[")
            args = [p for p in parts if p[0] in "<["]
            assert all(p.startswith("[") == p.endswith(":d]") for p in args), line
            grammar[kind] = "".join(p[-2] for p in args)
        assert grammar == engine._SIGNATURES
        for kind, sig in engine._SIGNATURES.items():
            readers, counts = engine._STEPS[kind]
            assert len(readers) == len(sig) == max(counts)


class TestOtherConclusions:
    def test_trivial_generator_conclusion(self):
        pres = parse_presentation("gens a b\nrel a\n")
        script = parse_script("trivial a 2\nconclude trivial-gen a\n")
        v = verify_script(pres, script)
        assert v.nonhyperbolic and v.reason == "trivial-generator"

    def test_trivial_gen_needs_remaining_commutation(self):
        pres = parse_presentation("gens a b c\nrel a\n")
        script = parse_script("trivial a 2\nconclude trivial-gen a\n")
        v = verify_script(pres, script)
        assert v.status == INCONCLUSIVE  # (b, c) not proved to commute

    def test_torsion_conclusion(self):
        pres = parse_presentation("gens a b\nrel a3\n")
        script = parse_script("trivial a3 2\nconclude torsion a 3\n")
        v = verify_script(pres, script)
        assert v.nonhyperbolic and v.reason == "torsion"

    def test_torsion_needs_nontrivial_element(self):
        # a itself is a relator, so a^2 = 1 proves nothing about torsion
        pres = parse_presentation("gens a b\nrel a\n")
        script = parse_script("trivial a2 2\nconclude torsion a 2\n")
        v = verify_script(pres, script)
        assert v.status == INCONCLUSIVE
