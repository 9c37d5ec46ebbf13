"""census-pipeline: a researcher's batch run through the command line.

One item is three ``smallvol.cli.main`` calls: ``bound`` and
``enumerate`` on a seeded cusp, then ``volume --gt --le`` on a generated
gluing file of k figure-eight copies.  The shapes carry seeded
perturbations of 1e-12 to 1e-8, so Newton has work to do, and the
redundant rows stay in.  Half the files are block-diagonal; the other
half are mixed by unimodular integer row operations (row_i += +-row_j),
which densify the Jacobian but keep the exact solution z = w = e^{i pi/3}
and keep every residual far below the 0.5 branch threshold.  The claims
bracket k times the figure-eight volume, so the correct verdict is
``proven``.

The timed items hold no system on which smallvol is known to answer
wrongly.  The reproducer of the open unchecked-row soundness defect (two
tetrahedra with three independent rows, so no shape solves the whole
system and the correct outcome is exit 1) runs instead in
``known_defects``, once per run and untimed, and the run reports whether
it still reproduces.

A round of 40 items always holds 24 systems with k = 1, 6 with k = 2,
8 with k = 4 and 2 with k = 8, half of each block-diagonal, so the
quantiles compare like with like across seeds: the median lands well
inside the k = 1 items and p90 inside the k = 4 items.
"""

from __future__ import annotations

import math
import os

from smallvol import cli

from . import reference
from .common import Check, log_uniform, report_fields, round_rng, run_cli

NAME = "census-pipeline"

ROUND_KS = (1,) * 24 + (2,) * 6 + (4,) * 8 + (8,) * 2

# Figure-eight rows per copy: edge equation, its negation, completeness.
FIG8_ROWS = (((1, 1), (1, 1)), ((-1, -1), (-1, -1)), ((0, 1), (1, 0)))

# Reproducer of the unchecked-row defect described in ROADMAP.md: its
# third row is independent of the first two, the only ones certified.
REPRO_SHAPES = (complex(1.0783889326367355, 0.49693966514745314),
                complex(1.1051187767098094, 0.42001975655938323))
REPRO_ROWS = (((4, 0), (1, 0)), ((0, 5), (0, 1)), ((1, -1), (0, 0)))

# Input constants for the claims only (the checks use mpmath): the
# figure-eight volume, and the volume at the reproducer's stored shapes.
FIG8_VOLUME = 2.0298832128193072
REPRO_VOLUME = 1.4615350753026202


def _gluing_text(k, mixed, rng) -> str:
    n = 2 * k
    rows = []
    for c in range(k):
        for (a0, a1), (b0, b1) in FIG8_ROWS:
            a = [0] * n
            b = [0] * n
            a[2 * c], a[2 * c + 1] = a0, a1
            b[2 * c], b[2 * c + 1] = b0, b1
            rows.append((a, b))
    if mixed:
        m = len(rows)
        for _ in range(2 * m):
            i, j = rng.sample(range(m), 2)
            t = rng.choice((-1, 1))
            rows[i] = ([x + t * y for x, y in zip(rows[i][0], rows[j][0])],
                       [x + t * y for x, y in zip(rows[i][1], rows[j][1])])
    shapes = []
    for _ in range(n):
        eps = log_uniform(rng, 1e-12, 1e-8)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        shapes.append(reference.FIG8_SHAPE + eps * complex(math.cos(phi), math.sin(phi)))
    return _text(shapes, rows)


def _text(shapes, rows) -> str:
    lines = [f"tets {len(shapes)}"]
    lines += [f"shape {j} {z.real!r} {z.imag!r}" for j, z in enumerate(shapes)]
    lines += ["eq " + " ".join(map(str, a)) + " ; " + " ".join(map(str, b)) + " ; 0"
              for a, b in rows]
    return "\n".join(lines) + "\n"


class Item:
    def __init__(self, rng, k, mixed, path):
        self.k = k
        angle = rng.uniform(math.pi / 3, 2 * math.pi / 3)
        self.meridian = rng.uniform(0.8, 1.5) * complex(math.cos(angle), math.sin(angle))
        self.longitude = complex(rng.uniform(2.0, 5.0), 0.0)
        self.parent = rng.uniform(3.0, 6.0)
        self.target = self.parent * rng.uniform(0.2, 0.6)
        self.fudge = rng.uniform(0.0, 0.02)
        with open(path, "w", encoding="utf-8") as f:
            f.write(_gluing_text(k, mixed, rng))
        self.claimed = k * FIG8_VOLUME
        self.gt = self.claimed * (1.0 - log_uniform(rng, 1e-6, 1e-3))
        self.le = self.claimed * (1.0 + log_uniform(rng, 1e-6, 1e-3))
        m, lon = self.meridian, self.longitude
        self.argvs = (
            ["bound", f"--parent={self.parent!r}", f"--target={self.target!r}"],
            ["enumerate", f"--meridian={m.real!r},{m.imag!r}",
             f"--longitude={lon.real!r},{lon.imag!r}",
             f"--parent={self.parent!r}", f"--target={self.target!r}",
             f"--fudge={self.fudge!r}"],
            ["volume", path, f"--gt={self.gt!r}", f"--le={self.le!r}"],
        )

    def run(self):
        return [run_cli(cli, argv) for argv in self.argvs]

    def check(self, outcome, fig8_volume) -> Check:
        (rc_b, out_b), (rc_e, out_e), (rc_v, out_v) = outcome
        bound = reference.slope_bound(self.parent, self.target)
        fb = report_fields(out_b)
        if rc_b != 0 or not math.isclose(float(fb["bound"]), bound, rel_tol=2e-11):
            return Check(False, "bound disagrees with the reference formula")
        if rc_e != 0 or not self._pairs_match(out_e, bound * (1.0 + self.fudge)):
            return Check(False, "enumerate disagrees with the lattice scan")
        fv = report_fields(out_v)
        width = delta = None
        if "volume_lo" in fv:
            lo, hi = float(fv["volume_lo"]), float(fv["volume_hi"])
            width = (hi - lo) / self.claimed
        if "delta" in fv:
            delta = float(fv["delta"])
        import mpmath

        ok = (rc_v == 0 and fv.get("verdict") == "proven" and width is not None
              and mpmath.mpf(lo) <= self.k * fig8_volume <= mpmath.mpf(hi))
        return Check(ok, "" if ok else "volume verdict or bracket wrong", width, delta)

    def _pairs_match(self, text, cutoff) -> bool:
        got = set()
        for line in text.splitlines():
            if line.startswith("pair: "):
                p, q, _ = line[6:].split()
                got.add((int(p), int(q)))
        wide = reference.slope_pairs(self.meridian, self.longitude, cutoff * (1 + 1e-9))
        tight = reference.slope_pairs(self.meridian, self.longitude, cutoff * (1 - 1e-9))
        return set(tight) <= got <= set(wide)


def make_round(seed: int, index: int, workdir: str) -> list:
    rng = round_rng(NAME, seed, index)
    ks = ROUND_KS
    # Every k has an even count, so alternate flags mix exactly half of each.
    mixed = [i % 2 == 1 for i in range(len(ks))]
    order = list(range(len(ks)))
    rng.shuffle(order)
    return [Item(rng, ks[i], mixed[i],
                 os.path.join(workdir, f"census-{index}-{i}.gluing"))
            for i in order]


def references():
    """Figure-eight volume to 30 digits (checks only; never timed)."""
    return reference.fig8_volume_mp()


def known_defects(workdir: str) -> dict:
    """Untimed check of the open unchecked-row defect: a claim on the
    reproducer system, whose correct outcome is exit 1."""
    path = os.path.join(workdir, "unchecked-row.gluing")
    with open(path, "w", encoding="utf-8") as f:
        f.write(_text(REPRO_SHAPES, [(list(a), list(b)) for a, b in REPRO_ROWS]))
    rc, out = run_cli(cli, ["volume", path, f"--gt={REPRO_VOLUME / 2!r}"])
    verdict = report_fields(out).get("verdict", "none")
    return {"unchecked_row": "fixed" if rc == 1 else f"reproduces (exit {rc}, verdict {verdict})"}
