"""nonhyp-check: checking non-hyperbolicity proof scripts.

A round of 50 items mixes five kinds:

* the 20 corpus presentation/script pairs through ``smallvol nonhyp``
  (correct verdict: nonhyperbolic);
* 10 ``search_trivial`` calls at the default budget on the product of two
  conjugated relators of a corpus group (known trivial; the certificate
  must replay);
* 6 ``search_trivial`` calls at depth 2 and 20 nodes on short words that
  are nontrivial in the abelianization (correct outcome: no certificate);
* 6 ``smallvol nonhyp --rel`` calls on two-generator relators, two each
  of the shapes g^n h^m and g^n h^m g^-k h^m (nonhyperbolic) and of
  alternating words of six or more syllables (inconclusive);
* 8 hostile scripts ``power a N b M`` with N spread evenly over
  1000..2500 and M in 500..1000,
  which must come back inconclusive (exit 1), or rejected as malformed
  input (exit 2), and never proven.

Only grouptool, formats and the command line run here.  The hostile
items cost the most while ``words.power`` is quadratic, and they are 16 %
of each round, so p90 lands among them on every seed.
"""

from __future__ import annotations

import os

from smallvol import cli, data, formats
from smallvol.grouptool import search

from . import reference
from .common import Check, report_fields, round_rng, run_cli

NAME = "nonhyp-check"

TRIVIAL, FAILING, REL_EACH, HOSTILE = 10, 6, 2, 8
FAIL_DEPTH, FAIL_BUDGET = 2, 20


def _random_word(rng, generators, length):
    letters = [g for g in range(1, generators + 1)]
    letters += [-g for g in letters]
    w = []
    while len(w) < length:
        x = rng.choice(letters)
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


def _syllable_text(gens_exps):
    return "".join(g + ("" if e == 1 else str(e)) for g, e in gens_exps)


def _exponent(rng, top):
    return rng.choice((1, -1)) * rng.randint(1, top)


class CliItem:
    """One ``smallvol nonhyp`` call with its expected exit codes."""

    def __init__(self, argv, expected_rcs, verdict):
        self.argv, self.expected_rcs, self.verdict = argv, expected_rcs, verdict

    def run(self):
        return run_cli(cli, self.argv)

    def check(self, outcome, _refs) -> Check:
        rc, out = outcome
        ok = rc in self.expected_rcs and (
            rc == 2 or report_fields(out).get("verdict") == self.verdict)
        return Check(ok, "" if ok else f"expected {self.verdict}, got exit {rc}")


class SearchItem:
    """One ``search_trivial`` call on a word with a known answer."""

    def __init__(self, word, relators, trivial, depth=None, budget=None):
        self.word, self.relators, self.trivial = word, relators, trivial
        self.kwargs = {} if depth is None else {"depth": depth, "node_budget": budget}

    def run(self):
        return search.search_trivial(self.word, self.relators, **self.kwargs)

    def check(self, outcome, _refs) -> Check:
        if not self.trivial:
            ok = outcome is None
            return Check(ok, "" if ok else "certificate for a nontrivial word")
        if outcome is None:
            return Check(False, "no certificate for a trivial word")
        steps = [(s.position, s.inserted) for s in outcome.steps]
        ok = reference.replays_to_identity(self.word, steps, self.relators)
        return Check(ok, "" if ok else "certificate does not replay")


def _write(path, text):
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    return path


def make_round(seed: int, index: int, workdir: str) -> list:
    rng = round_rng(NAME, seed, index)
    items = []
    for name in data.CORPUS:
        pres = _write(os.path.join(workdir, f"{name}.pres"), data.presentation_text(name))
        script = _write(os.path.join(workdir, f"{name}.script"), data.script_text(name))
        items.append(CliItem(["nonhyp", pres, "--script", script], (0,), "nonhyperbolic"))
    groups = [formats.parse_presentation(data.presentation_text(n)) for n in data.CORPUS]

    for _ in range(TRIVIAL):
        p = rng.choice(groups)
        g = len(p.generators)
        parts = []
        for _ in range(2):
            conj = _random_word(rng, g, rng.randint(0, 2))
            rel = rng.choice(p.relators)
            if rng.random() < 0.5:
                rel = reference.inverse(rel)
            parts += [conj, rel, reference.inverse(conj)]
        word = reference.reduce_word(sum(parts, ()))
        items.append(SearchItem(word, p.relators, True))

    # Words leave the rational span of the relators only where the
    # abelianization has a free part.
    free = [p for p in groups
            if reference.rational_rank([reference.exponent_vector(r, len(p.generators))
                                        for r in p.relators]) < len(p.generators)]
    for _ in range(FAILING):
        p = rng.choice(free)
        g = len(p.generators)
        while True:
            word = reference.reduce_word(_random_word(rng, g, rng.randint(1, 3)))
            if word and reference.nontrivial_in_homology(word, p.relators, g):
                break
        items.append(SearchItem(word, p.relators, False, FAIL_DEPTH, FAIL_BUDGET))

    rels = []
    for _ in range(REL_EACH):
        g, h = rng.sample("ab", 2)
        rels.append((_syllable_text([(g, _exponent(rng, 9)), (h, _exponent(rng, 9))]),
                     "nonhyperbolic"))
        n, m = _exponent(rng, 6), _exponent(rng, 6)
        k = _exponent(rng, 6)
        while n + k == 0:
            k = _exponent(rng, 6)
        rels.append((_syllable_text([(g, n), (h, m), (g, -k), (h, m)]), "nonhyperbolic"))
        syllables = 2 * rng.randint(3, 4)
        rels.append((_syllable_text([("ab"[i % 2], _exponent(rng, 4))
                                     for i in range(syllables)]), "inconclusive"))
    for text, verdict in rels:
        items.append(CliItem(["nonhyp", "--rel", text], (0,) if verdict == "nonhyperbolic"
                             else (1,), verdict))

    for i in range(HOSTILE):
        name = rng.choice(data.CORPUS)
        big = 1000 + int(1500 * (i + rng.random()) / HOSTILE)
        script = _write(os.path.join(workdir, f"hostile-{index}-{i}.script"),
                        f"power a {big} b {rng.randint(500, 1000)}\nconclude abelian\n")
        pres = os.path.join(workdir, f"{name}.pres")
        items.append(CliItem(["nonhyp", pres, "--script", script], (1, 2), "inconclusive"))

    rng.shuffle(items)
    return items


def references():
    return None
