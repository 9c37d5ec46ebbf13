"""Checker for non-hyperbolicity proof scripts.

A script is untrusted data: a sequence of steps that rewrite a finitely
presented group and derive commutation facts, ending in a contradiction
with the structure of discrete torsion-free finite-covolume groups.
Every step is verified mechanically; any failure makes the whole run
inconclusive.  The rule base:

* presentation rewriting (rotate / subst / introduce / eliminate /
  change) performs only sound Tietze moves, checked at the word level;
* ``trivial`` and ``commutes`` run the bounded insertion search and
  replay the derivation each search finds;
* ``power`` uses: x^n and y^m commute with n, m nonzero only when x
  and y commute;
* ``conj`` uses: if x commutes with y x^e y^-1 then x commutes with y;
* ``peel`` / ``wrap`` move commuting power factors q^k ( ) q^l across a
  commutation fact (pure group algebra);
* ``grouplem`` uses: a relation x^n y^m x^-k y^m with m != 0 and
  n + k != 0 forces x^{n+k} to commute with y^m;
* ``branch w j`` handles a two-way split: w^j = 1 means either w is a
  nontrivial torsion element (impossible in such a group) or w = 1, so
  the remainder of the script may assume w trivial;
* ``conclude`` closes the contradiction: an abelian (or cyclic-over-a-
  hub, or trivial-generator) group is never the fundamental group of a
  finite-volume hyperbolic 3-manifold, and neither is one with torsion.

Script text grammar (one step per line, ``#`` comments, relator indices
1-based).  Each argument is tagged with its signature letter: ``w`` a
word, ``g`` a generator, ``i`` an integer, ``t`` raw text (a new
generator's name), ``d`` the optional search depth.  A step reads every
argument before it runs; one with more or fewer arguments than shown,
or an argument its letter cannot read, is malformed.

    rotate <r:i> <k:i>
    subst <target:i> <pos:i> <source:i> <rot:i> <inv01:i>
    introduce <name:t> <word:w>
    eliminate <gen:g> <r:i>
    change <old:g> <new:t> <word:w>
    trivial <word:w> [depth:d]
    commutes <x:w> <y:w> [depth:d]
    power <x:w> <n:i> <y:w> <m:i>
    conj <x:w> <y:w> <eps:i>
    peel <q:w> <k:i> <z:w> <l:i>
    wrap <q:w> <k:i> <z:w> <l:i>
    grouplem <x:w> <y:w> <n:i> <m:i> <k:i>
    branch <word:w> <j:i>
    conclude abelian
    conclude trivial-gen <g:g>
    conclude torsion <word:w> <n:i>
"""

from __future__ import annotations

from collections import namedtuple

from . import search, words
from .presentation import Presentation, nontrivial_in_abelianization
from .search import DEFAULT_DEPTH, search_trivial

NONHYPERBOLIC = "nonhyperbolic"
INCONCLUSIVE = "inconclusive"


class StepError(Exception):
    """A script step failed verification."""


class Verdict(namedtuple("Verdict", "status reason failed_step log",
                          defaults=(None, ()))):
    __slots__ = ()

    @property
    def nonhyperbolic(self) -> bool:
        return self.status == NONHYPERBOLIC


# ``steps`` holds (kind, args...) token tuples; formats.parse_script reads them.
ProofScript = namedtuple("ProofScript", "steps")


def _pair(x, y):
    nx, ny = words.normal_form(x), words.normal_form(y)
    return (nx, ny) if nx <= ny else (ny, nx)


def _capped(w):
    """``w`` itself, after checking it against the word cap.  Every step
    that can lengthen a word ``_State`` stores passes it through here or
    through ``words.substitute``, which checks the same cap, so no chain
    of steps grows a stored word beyond it.  An over-cap word makes the
    step malformed."""
    if len(w) > words.MAX_WORD_LENGTH:
        raise ValueError(
            f"a {len(w)}-letter word exceeds the "
            f"{words.MAX_WORD_LENGTH}-letter word cap"
        )
    return w


class _State:
    __slots__ = ("names", "active", "relators", "facts", "trivial", "log")

    def __init__(self, names, active, relators):
        self.names = names        # full alphabet, including introduced gens
        self.active = active      # indices (1-based letters) still present
        self.relators = relators
        self.facts, self.trivial, self.log = set(), set(), []

    def parse(self, text):
        w = words.parse_word(text, self.names)
        if len(self.active) < len(self.names):  # a generator was eliminated
            for x in w:
                if abs(x) not in self.active:
                    raise StepError(f"word {text!r} uses an eliminated generator")
        return w

    def letter(self, name):
        if name not in self.names:
            raise ValueError(f"unknown generator {name!r}")
        idx = self.names.index(name) + 1
        if idx not in self.active:
            raise StepError(f"generator {name!r} was eliminated")
        return idx

    def snapshot(self) -> Presentation:
        """Presentation over the active generators only (reindexed)."""
        remap = {g: i + 1 for i, g in enumerate(self.active)}
        rels = [
            tuple((remap[abs(x)] if x > 0 else -remap[abs(x)]) for x in r)
            for r in self.relators
        ]
        gens = tuple(self.names[g - 1] for g in self.active)
        return Presentation(gens, tuple(rels))

    def add_relator(self, w):
        self.relators.append(_capped(w))

    def add_fact(self, x, y):
        self.facts.add(_pair(_capped(x), _capped(y)))

    def add_trivial(self, w):
        self.trivial.add(words.normal_form(_capped(w)))

    def searchable_relators(self):
        pool = list(self.relators)
        pool.extend(self.trivial)
        for x, y in self.facts:
            pool.append(words.commutator(x, y))
        return pool

    def has_fact(self, x, y) -> bool:
        if words.free_reduce(x) == () or words.free_reduce(y) == ():
            return True  # the identity commutes with everything
        if _pair(x, y) in self.facts:
            return True
        c = words.commutator(x, y)
        if c == ():
            return True
        return words.normal_form(c) in self.trivial

    def has_trivial(self, w) -> bool:
        w = words.free_reduce(w)
        if w == ():
            return True
        if words.normal_form(w) in self.trivial:
            return True
        cyc = words.cyclic_reduce(w)
        return any(words.is_rotation(r, cyc) or words.is_rotation(words.invert(r), cyc)
                   for r in self.relators if len(r) == len(cyc))

    def gen_trivial(self, g) -> bool:
        return words.normal_form((g,)) in self.trivial


def verify_script(pres: Presentation, script: ProofScript,
                  depth: int = DEFAULT_DEPTH) -> Verdict:
    """Check every step of ``script`` against ``pres``.

    Returns NonHyperbolic only when each step verifies and a conclude
    step closes the contradiction; otherwise Inconclusive with the index
    of the failing step.
    """
    st = _State(
        names=list(pres.generators),
        active=list(range(1, len(pres.generators) + 1)),
        relators=list(pres.relators),
    )
    for i, step in enumerate(script.steps):
        try:
            verdict = _run_step(st, step, depth)
        except StepError as exc:
            return Verdict(INCONCLUSIVE, f"step {i + 1} failed: {exc}",
                           failed_step=i, log=tuple(st.log))
        except (ValueError, IndexError) as exc:
            return Verdict(INCONCLUSIVE, f"step {i + 1} malformed: {exc}",
                           failed_step=i, log=tuple(st.log))
        if verdict is not None:
            return verdict
    return Verdict(INCONCLUSIVE, "script ended without a conclusion",
                   failed_step=None, log=tuple(st.log))


def _derive(st: _State, w, text: str, depth: int):
    """A replayed derivation of ``w`` = 1, or StepError naming the limit
    that ended the search: the depth, the node budget or the letter
    budget."""
    node_budget = search.DEFAULT_NODE_BUDGET
    stopped_by = []
    deriv = search_trivial(w, st.searchable_relators(), depth=depth,
                           node_budget=node_budget, stopped_by=stopped_by)
    if deriv is not None and deriv.replay():
        return deriv
    if stopped_by == [search.NODES]:
        limit = f"the {node_budget}-node search budget (depth {depth})"
    elif stopped_by == [search.LETTERS]:
        limit = f"the {search.MAX_SEARCH_LETTERS}-letter search budget (depth {depth})"
    else:
        limit = f"depth {depth}"
    raise StepError(f"could not derive {text} = 1 within {limit}")


def _integer(st, token):
    return int(token)


def _text(st, token):
    return token


def _depth(st, token):
    d = int(token)
    if d < 0:
        raise ValueError(f"search depth {d} is negative")
    return d


# Each step kind's signature, one letter per argument after the kind
# (after the mode for ``conclude``), as the grammar above spells it.
_SIGNATURES = {
    "rotate": "ii", "subst": "iiiii", "introduce": "tw", "eliminate": "gi",
    "change": "gtw", "trivial": "wd", "commutes": "wwd", "power": "wiwi",
    "conj": "wwi", "peel": "wiwi", "wrap": "wiwi", "grouplem": "wwiii",
    "branch": "wi", "conclude abelian": "", "conclude trivial-gen": "g",
    "conclude torsion": "wi",
}
_READERS = {"w": _State.parse, "g": _State.letter, "i": _integer, "t": _text, "d": _depth}
# Per kind: its argument readers, and the argument counts it accepts (a
# trailing depth may be left out).
_STEPS = {
    kind: (tuple(_READERS[c] for c in sig),
           (len(sig) - 1, len(sig)) if sig.endswith("d") else (len(sig),))
    for kind, sig in _SIGNATURES.items()
}


def _run_step(st: _State, step, depth):
    kind = step[0]
    if kind == "conclude" and len(step) == 1:
        raise ValueError("conclude needs a mode: abelian, trivial-gen or torsion")
    name, tokens = (" ".join(step[:2]), step[2:]) if kind == "conclude" else (kind, step[1:])
    entry = _STEPS.get(name)
    if entry is None:
        raise StepError(f"unknown conclusion {step[1]!r}" if kind == "conclude"
                        else f"unknown step kind {kind!r}")
    readers, counts = entry
    if len(tokens) not in counts:
        raise ValueError(f"{name!r} takes {' or '.join(map(str, counts))} "
                         f"arguments, got {len(tokens)}")
    args = [read(st, token) for read, token in zip(readers, tokens)]
    if len(args) < len(readers):
        args.append(depth)
    if kind == "rotate":
        r, k = args
        st.relators[r - 1] = words.rotate(_relator(st, r), k)
        st.log.append(f"rotate relator {r} by {k}")
    elif kind == "subst":
        t, pos, s, rot, inv = args
        if t == s:
            raise StepError("cannot rewrite a relator with itself")
        target = _relator(st, t)
        source = _relator(st, s)
        if not 0 <= pos <= len(target):
            raise StepError(f"position {pos} outside relator {t}")
        rho = words.rotate(words.invert(source) if inv else source, rot)
        new = words.cyclic_reduce(
            words.concat(target[:pos], rho, target[pos:])
        )
        if not new:
            raise StepError("substitution produced a trivial relator")
        st.relators[t - 1] = _capped(new)
        st.log.append(
            f"rewrite relator {t} with a conjugate of relator {s}"
        )
    elif kind == "introduce":
        new_name, w = args
        if new_name in st.names:
            raise StepError(f"generator {new_name!r} already exists")
        if len(new_name) != 1 or not new_name.isalpha():
            raise StepError("generator names are single letters")
        st.names.append(new_name)
        g = len(st.names)
        st.active.append(g)
        st.add_relator(words.cyclic_reduce(words.concat(w, (-g,))))
        st.log.append(f"introduce {new_name} = {step[2]}")
    elif kind == "eliminate":
        g, r = args
        rel = _relator(st, r)
        occurrences = sum(1 for x in rel if abs(x) == g)
        if occurrences != 1:
            raise StepError(
                f"generator {step[1]!r} occurs {occurrences} times in "
                f"relator {r}; elimination needs exactly one"
            )
        idx = next(j for j, x in enumerate(rel) if abs(x) == g)
        rotated = words.rotate(rel, idx)
        w = rotated[1:] if rotated[0] == -g else words.invert(rotated[1:])
        new_relators = []
        for j, other in enumerate(st.relators):
            if j == r - 1:
                continue
            sub = words.cyclic_reduce(words.substitute(other, g, w))
            if sub:
                new_relators.append(sub)
        st.relators = new_relators
        st.active.remove(g)
        st.facts = {_pair(words.substitute(x, g, w), words.substitute(y, g, w))
                    for x, y in st.facts}
        st.facts = {p for p in st.facts if p[0] and p[1]}
        st.trivial = {words.normal_form(words.substitute(x, g, w))
                      for x in st.trivial}
        st.trivial = {x for x in st.trivial if x}
        st.log.append(f"eliminate {step[1]} = {words.format_word(w, tuple(st.names))}")
    elif kind == "change":
        g_old, new_name, w = args
        old, text = step[1], step[3]
        if sum(1 for x in w if abs(x) == g_old) != 1:
            raise StepError("change of generators needs the old generator "
                            "exactly once in the defining word")
        _run_step(st, ("introduce", new_name, text), depth)
        _run_step(st, ("eliminate", old, str(len(st.relators))), depth)
        st.log[-2:] = [f"change generators: {new_name} = {text}, "
                       f"eliminating {old}"]
    elif kind == "trivial":
        w, d = args
        deriv = _derive(st, w, step[1], d)
        st.add_trivial(w)
        st.log.append(f"verified {step[1]} = 1 ({len(deriv.steps)} insertions)")
    elif kind == "commutes":
        x, y, d = args
        c = words.commutator(x, y)
        _derive(st, c, f"[{step[1]},{step[2]}]", d)
        st.add_fact(x, y)
        st.add_trivial(c)
        st.log.append(f"verified [{step[1]},{step[2]}] = 1")
    elif kind == "power":
        x, n, y, m = args
        if n == 0 or m == 0:
            raise StepError("power rule needs nonzero exponents")
        if not st.has_fact(words.power(x, n), words.power(y, m)):
            raise StepError(
                f"missing fact [{step[1]}^{n}, {step[3]}^{m}] = 1"
            )
        st.add_fact(x, y)
        st.log.append(f"[{step[1]},{step[3]}] = 1 by the power rule")
    elif kind == "conj":
        x, y, eps = args
        if eps not in (-1, 1):
            raise StepError("conjugacy rule exponent must be +-1")
        conj = words.concat(y, words.power(x, eps), words.invert(y))
        if not st.has_fact(x, conj):
            raise StepError(
                f"missing fact [{step[1]}, {step[2]} {step[1]}^{eps} "
                f"{step[2]}^-1] = 1"
            )
        st.add_fact(x, y)
        st.log.append(f"[{step[1]},{step[2]}] = 1 by the conjugacy rule")
    elif kind in ("peel", "wrap"):
        q, k, z, l = args
        wrapped = words.concat(words.power(q, k), z, words.power(q, l))
        if kind == "peel":
            if not st.has_fact(wrapped, q):
                raise StepError("missing fact to peel power factors from")
            st.add_fact(z, q)
        else:
            if not st.has_fact(z, q):
                raise StepError("missing fact to wrap power factors around")
            st.add_fact(wrapped, q)
        st.log.append(f"{kind} power factors of {step[1]}")
    elif kind == "grouplem":
        x, y, n, m, k = args
        if m == 0 or n + k == 0:
            raise StepError("relator-pattern rule needs m != 0 and n+k != 0")
        pattern = words.cyclic_reduce(
            words.concat(words.power(x, n), words.power(y, m),
                         words.power(x, -k), words.power(y, m))
        )
        if not pattern or not st.has_trivial(pattern):
            raise StepError(
                "no relator or verified identity matches the pattern "
                f"{step[1]}^{n} {step[2]}^{m} {step[1]}^-{k} {step[2]}^{m}"
            )
        st.add_fact(words.power(x, n + k), words.power(y, m))
        st.log.append(
            f"[{step[1]}^{n + k}, {step[2]}^{m}] = 1 by the relator pattern "
            f"(n={n}, m={m}, k={k})"
        )
    elif kind == "branch":
        w, j = args
        if j < 2:
            raise StepError("branch needs an exponent >= 2")
        if not st.has_trivial(words.power(w, j)):
            raise StepError(f"missing fact {step[1]}^{j} = 1")
        if words.free_reduce(w) == ():
            raise StepError("branch word is freely trivial")
        # Either w is nontrivial, hence a torsion element (impossible in a
        # discrete torsion-free group), or w = 1: assume the latter and
        # carry on.
        st.add_relator(words.cyclic_reduce(w))
        st.add_trivial(w)
        st.log.append(
            f"case split on {step[1]}^{j} = 1: torsion arm is an immediate "
            f"contradiction; continuing with {step[1]} = 1"
        )
    else:
        return _conclude(st, step, args)
    return None


def _relator(st: _State, r: int):
    if not 1 <= r <= len(st.relators):
        raise StepError(f"relator index {r} out of range")
    return st.relators[r - 1]


def _pairs_commute(st: _State, g, h) -> bool:
    if st.gen_trivial(g) or st.gen_trivial(h):
        return True
    return st.has_fact((g,), (h,))


def _unproved_pairs(st: _State, gens) -> str:
    """The pairs of ``gens`` not proved to commute, as "(a,b), (a,c)", or
    "" when every pair is."""
    return ", ".join(f"({st.names[g - 1]},{st.names[h - 1]})"
                     for i, g in enumerate(gens) for h in gens[i + 1:]
                     if not _pairs_commute(st, g, h))


def _conclude(st: _State, step, args):
    mode = step[1]
    names = tuple(st.names)
    if mode == "abelian":
        gens = list(st.active)
        missing = _unproved_pairs(st, gens)
        if not missing:
            st.log.append("all generator pairs commute: the group is abelian, "
                          "contradicting trivial centre")
            return Verdict(NONHYPERBOLIC, "abelian", log=tuple(st.log))
        # hub form: every generator commutes with one provably nontrivial
        # element, so all of them lie in its maximal abelian subgroup
        for hub in gens:
            if all(h == hub or _pairs_commute(st, hub, h) for h in gens):
                if _nontrivial(st, (hub,)):
                    st.log.append(
                        f"every generator commutes with the nontrivial "
                        f"element {names[hub - 1]}: the group is abelian"
                    )
                    return Verdict(
                        NONHYPERBOLIC,
                        "abelian (maximal abelian subgroup argument)",
                        log=tuple(st.log),
                    )
        raise StepError("missing commutation facts for generator pairs " + missing)
    if mode == "trivial-gen":
        (g,) = args
        if not st.gen_trivial(g):
            raise StepError(f"generator {step[2]!r} not proved trivial")
        bad = _unproved_pairs(st, [h for h in st.active if h != g])
        if bad:
            raise StepError("remaining generators not proved to commute: " + bad)
        st.log.append(f"generator {step[2]} is trivial and the rest commute")
        return Verdict(NONHYPERBOLIC, "trivial-generator", log=tuple(st.log))
    w, n = args  # torsion
    if n < 2:
        raise StepError("torsion conclusion needs an exponent >= 2")
    if not st.has_trivial(words.power(w, n)):
        raise StepError(f"missing fact {step[2]}^{n} = 1")
    if not _nontrivial(st, w):
        raise StepError(
            f"{step[2]} not provably nontrivial, torsion not established"
        )
    st.log.append(f"{step[2]} is a nontrivial element with "
                  f"{step[2]}^{n} = 1: torsion")
    return Verdict(NONHYPERBOLIC, "torsion", log=tuple(st.log))


def _nontrivial(st: _State, w) -> bool:
    """Is the word provably nontrivial in the current abelianization?"""
    snap = st.snapshot()
    remap = {g: idx + 1 for idx, g in enumerate(st.active)}
    ww = tuple((remap[abs(x)] if x > 0 else -remap[abs(x)]) for x in w)
    return nontrivial_in_abelianization(snap, ww)


# ---------------------------------------------------------------------------
# Relator pattern detection
# ---------------------------------------------------------------------------

def _cyclic_syllables(w):
    syl = words.syllables(w)
    if len(syl) >= 2 and syl[0][0] == syl[-1][0]:
        g, e = syl[0]
        syl = [(g, e + syl[-1][1])] + syl[1:-1]
        syl = [(g, e) for g, e in syl if e != 0]
    return syl


def detect_power_relator(pres: Presentation) -> Verdict:
    """Match a two-generator one-relator presentation against the two
    non-hyperbolic relator shapes.

    The first shape, g^n h^m (up to rotation, inversion and swapping the
    generators), forces torsion or a nontrivial centre.  The second,
    g^n h^m g^-k h^m with m != 0 and n + k != 0, forces
    [g^{n+k}, h^m] = 1 and hence an abelian group.  Anything else is
    inconclusive.
    """
    if len(pres.generators) != 2 or len(pres.relators) != 1:
        return Verdict(INCONCLUSIVE,
                       "detector needs exactly two generators and one relator")
    relator = pres.relators[0]
    for w in (relator, words.invert(relator)):
        syl = _cyclic_syllables(w)
        gens = {g for g, _ in syl}
        if len(syl) == 1 or (len(syl) == 2 and len(gens) == 2):
            if len(syl) == 1:
                (g, e) = syl[0]
                n, m = e, 0
            else:
                (g, n), (_, m) = syl
            return Verdict(
                NONHYPERBOLIC,
                "power-relator",
                log=(f"relator is a product of powers (n={n}, m={m}): "
                     "the group has torsion or a non-trivial centre",),
            )
        if len(syl) == 4 and len(gens) == 2:
            for rot in range(4):
                s = syl[rot:] + syl[:rot]
                (g1, e1), (g2, e2), (g3, e3), (g4, e4) = s
                if g1 == g3 and g2 == g4 and g1 != g2 and e2 == e4:
                    n, m, k = e1, e2, -e3
                    if m != 0 and n + k != 0:
                        return Verdict(
                            NONHYPERBOLIC,
                            "relator-pattern",
                            log=(f"relator matches g^n h^m g^-k h^m with "
                                 f"(n,m,k)=({n},{m},{k}); the group is "
                                 "abelian by the commutation lemmas",),
                        )
    return Verdict(INCONCLUSIVE, "relator matches no known pattern")
