"""Pieces shared by the three workloads."""

from __future__ import annotations

import contextlib
import io
import math
import random
from typing import NamedTuple


class Check(NamedTuple):
    """Outcome of checking one item against its reference."""

    ok: bool
    note: str = ""
    width_rel: float = None  # (hi - lo) / volume, when an interval came back
    delta: float = None      # certificate delta, when one came back


def run_cli(cli, argv) -> tuple:
    """Call ``cli.main(argv)`` with its output captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def report_fields(text: str) -> dict:
    """Last value of each ``key: value`` line of a CLI report."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))
