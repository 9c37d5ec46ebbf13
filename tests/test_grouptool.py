import random

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
        assert nontrivial_in_abelianization(p, p.word("c"))
        assert not nontrivial_in_abelianization(p, p.word("aba-1b-1"))


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


def _equivalence_cases():
    """(word, relators, search options, letter budget) over the corpus
    groups: seeded products of two conjugated relators (trivial) at the
    default budgets and at a letter budget small enough to run out, and
    seeded random words at depth 2 / 20 nodes."""
    rng = random.Random(15)
    cases = []
    for name in CORPUS:
        rels = parse_presentation(presentation_text(name)).relators
        g = max(abs(x) for r in rels for x in r)

        def random_word(length):
            return words.free_reduce(rng.choice((1, -1)) * rng.randint(1, g)
                                     for _ in range(length))
        for letters in (search.MAX_SEARCH_LETTERS, 20000):
            c, d = random_word(rng.randint(0, 2)), random_word(rng.randint(0, 2))
            r, s = rng.choice(rels), words.invert(rng.choice(rels))
            word = words.concat(c, r, words.invert(c), d, s, words.invert(d))
            cases.append((word, rels, {}, letters))
        for _ in range(2):
            cases.append((random_word(rng.randint(1, 10)), rels,
                          {"depth": 2, "node_budget": 20}, search.MAX_SEARCH_LETTERS))
    return cases


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


class TestJunctionKernel:
    """The search builds its words with ``words.insert``; the certificate
    check replays them with ``words.concat``."""

    def test_search_matches_the_concat_kernel(self, monkeypatch):
        cases = _equivalence_cases()
        fast = _search_outcomes(monkeypatch, cases)
        monkeypatch.setattr(words, "insert",
                            lambda w, pos, v: words.concat(w[:pos], v, w[pos:]))
        slow = _search_outcomes(monkeypatch, cases)
        assert fast == slow
        outcomes, rounds = fast
        assert sum(d is not None and len(d.steps) > 1 for d, _ in outcomes) >= 10
        assert {tuple(s) for _, s in outcomes} == {
            (), (search.DEPTH,), (search.NODES,), (search.LETTERS,)}
        assert len({letters for _, letters, _ in rounds}) > len(cases)

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
