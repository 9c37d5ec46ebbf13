"""In-memory spans and counters around smallvol's module boundaries.

``instrument(recorder)`` wraps the public functions named in ``SPANS``
wherever a smallvol module looks them up (``smallvol.cli.krawczyk_certify``
as well as ``smallvol.certify.krawczyk_certify``), and counts jet
construction without spanning it, since jets are built by the million.
The wrappers come off again when the returned function is called.  Each
span is (name, start, end, parent span, item); a span's self time is its
duration minus the time its child spans cover.  Nothing here is
installed in an untraced run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import math
import sys
import time
from collections import Counter

from smallvol import certify, cli, filling, formats, geometry, jets
from smallvol.grouptool import engine, search, words

# The package re-exports the function under the module's own name.
lobachevsky = importlib.import_module("smallvol.lobachevsky")

# span name -> (module that defines the function, its name, report self time)
SPANS = {
    "certify.krawczyk_certify": (certify, "krawczyk_certify", True),
    "certify.select_square_subsystem": (certify, "select_square_subsystem", False),
    "certify.jacobian": (certify, "jacobian", False),
    "jets.log_jet": (jets, "log_jet", False),
    "jets.complex_log_jet": (jets, "complex_log_jet", False),
    "jets.arg_complex": (jets, "arg_complex", False),
    "jets.atan_jet": (jets, "atan_jet", False),
    "lobachevsky.lobachevsky": (lobachevsky, "lobachevsky", True),
    "geometry.certified_volume": (geometry, "certified_volume", True),
    "filling.enumerate_slopes": (filling, "enumerate_slopes", False),
    "grouptool.verify_script": (engine, "verify_script", True),
    "grouptool.search_trivial": (search, "search_trivial", False),
    "grouptool.words.power": (words, "power", False),
    "grouptool.detect_power_relator": (engine, "detect_power_relator", False),
    "formats.parse_gluing": (formats, "parse_gluing", False),
    "formats.parse_presentation": (formats, "parse_presentation", False),
    "formats.parse_script": (formats, "parse_script", False),
    "cli.main": (cli, "main", True),
}

COUNTERS = (
    "certify.residual.calls",
    "certify.radius_attempts",
    "certify.inconclusive",
    "jets.jet_constructed",
    "jets.coeffs_constructed",
    "geometry.orientation_rejects",
    "filling.pairs",
    "grouptool.search_trivial.found",
    "grouptool.words.power.letters_out",
)


class Recorder:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.item = -1  # index of the item running, counted from 0
        self._open = []

    def wrap(self, name, fn, on_exit=None):
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = opened[-1] if opened else None
            opened.append(sid)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = time.perf_counter()
                opened.pop()
                spans[sid] = (name, start, end, parent, self.item)
                if on_exit is not None:
                    on_exit(self.counters, args, kwargs, result, exc)

        return traced

    def summary(self) -> dict:
        """calls, busy_s and self_s per span name.

        busy_s counts a span only when no enclosing span has its name, so
        recursion is not counted twice.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPANS}
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child[sid]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                entry["busy_s"] += end - start
        return out

    def write(self, path, header):
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(json.dumps({**header, "counters": dict(self.counters)}) + "\n")
            for sid, (name, start, end, parent, item) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "item": item}) + "\n")


# -- counters derived at the boundaries -------------------------------------

def _krawczyk_exit(c, args, kwargs, result, exc):
    if isinstance(exc, certify.InconclusiveError):
        c["certify.inconclusive"] += 1
        c["certify.radius_attempts"] += 3
    elif result is not None:
        # Radii run r0, 10 r0, 100 r0 and the box radius is radius * sqrt(2).
        sys_ = args[0]
        r0 = kwargs.get("r0", args[1] if len(args) > 1 else None)
        if r0 is None:
            r0 = 1e-10 * max(1.0, max(abs(z) for z in sys_.shapes))
        radius = result.box_radius / math.sqrt(2.0)
        c["certify.radius_attempts"] += 1 + round(math.log10(radius / r0))


def _volume_exit(c, args, kwargs, result, exc):
    if isinstance(exc, geometry.OrientationError):
        c["geometry.orientation_rejects"] += 1


def _enumerate_exit(c, args, kwargs, result, exc):
    if result is not None:
        c["filling.pairs"] += len(result.pairs)


def _search_exit(c, args, kwargs, result, exc):
    if result is not None:
        c["grouptool.search_trivial.found"] += 1


def _power_exit(c, args, kwargs, result, exc):
    if result is not None:
        c["grouptool.words.power.letters_out"] += len(result)


ON_EXIT = {
    "certify.krawczyk_certify": _krawczyk_exit,
    "geometry.certified_volume": _volume_exit,
    "filling.enumerate_slopes": _enumerate_exit,
    "grouptool.search_trivial": _search_exit,
    "grouptool.words.power": _power_exit,
}


def _patch_everywhere(original, replacement, undo):
    """Point every smallvol module attribute that holds ``original`` at
    ``replacement``, so callers see it wherever they look the name up."""
    for modname, module in list(sys.modules.items()):
        if module is None or modname.split(".")[0] != "smallvol":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


def instrument(rec: Recorder):
    """Install the spans and counters; returns a function that removes them."""
    undo = []
    for name, (module, attr, _) in SPANS.items():
        original = getattr(module, attr)
        _patch_everywhere(original, rec.wrap(name, original, ON_EXIT.get(name)), undo)

    residual = certify.residual
    counters = rec.counters

    def counted_residual(*args, **kwargs):
        counters["certify.residual.calls"] += 1
        return residual(*args, **kwargs)

    _patch_everywhere(residual, counted_residual, undo)

    post_init = jets.Jet.__post_init__

    def counted_post_init(jet):
        post_init(jet)
        counters["jets.jet_constructed"] += 1
        counters["jets.coeffs_constructed"] += len(jet.coeffs)

    jets.Jet.__post_init__ = counted_post_init
    undo.append((jets.Jet, "__post_init__", post_init))

    def remove():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return remove


def per_layer(rec: Recorder, overhead_ratio: float) -> dict:
    """The per-module metrics, as {name: (value, unit)}."""
    summary = rec.summary()
    c = rec.counters
    out = {}
    for name, (_, _, with_self) in SPANS.items():
        out[f"{name}.calls"] = (summary[name]["calls"], "count")
        out[f"{name}.busy_s"] = (summary[name]["busy_s"], "s")
        if with_self:
            out[f"{name}.self_s"] = (summary[name]["self_s"], "s")
    for name in COUNTERS:
        out[name] = (c[name], "count")
    calls = summary["grouptool.search_trivial"]["calls"]
    found = c["grouptool.search_trivial.found"]
    out["grouptool.search_trivial.found_ratio"] = (found / calls if calls else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
