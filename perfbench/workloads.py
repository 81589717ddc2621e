"""Seed -> input mapping for the udfield benchmark workloads.

Everything here is pure: one (workload, seed) pair always gives the same
argv, and the program receives nothing but that argv and the files it
names.  Paths in an argv are relative to the workload's working directory,
so the argv does not depend on where the checkout lives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

WORKLOADS = ("gauss-window", "deg4-closure", "count-csv")

# Each prime gives the same 1305-point closure with 1260 unit pairs.
DEG4_PRIMES = (29, 41, 61, 89)

# R bands, in thousandths.  gauss-window: 1781..1813 points, below the
# 2000-point cutoff under which `generate` recounts pairs for scatter.svg.
# count-csv: 3833..3869 points.  Both bands are narrow so that run-to-run
# differences come from the program, not from the seed.
GAUSS_WINDOW_R = (23800, 24050)
COUNT_CSV_R = (34950, 35100)

OUT_DIR = "out"
INPUT_DIR = "input"


@dataclass(frozen=True)
class Workload:
    name: str
    field: str                       # the field setup_s builds
    argv: Tuple[str, ...]            # udfield arguments of one timed invocation
    input_argv: Optional[Tuple[str, ...]] = None   # untimed, writes the inputs
    expected: Optional[Tuple[int, int]] = None     # (points, unit pairs)


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _band(name: str, seed: int, band: Tuple[int, int]) -> Fraction:
    lo, hi = band
    return Fraction(_rng(name, seed).randrange(lo, hi + 1), 1000)


def make(name: str, seed: int) -> Workload:
    if name == "gauss-window":
        R = _band(name, seed, GAUSS_WINDOW_R)
        return Workload(name, "gaussian", (
            "generate", "--field", "gaussian", "--prime", "5", "--k", "2",
            "--scale", "1", "--R", str(R), "--out", OUT_DIR))
    if name == "deg4-closure":
        p = _rng(name, seed).choice(DEG4_PRIMES)
        return Workload(name, "adjoin-i:5", (
            "generate", "--field", "adjoin-i:5", "--prime", str(p), "--k", "1",
            "--mode", "closure", "--allow-small-R",
            "--R", f"{p * p + 2}/{p * p}", "--scale", f"1/{p * p}",
            "--out", OUT_DIR), expected=(1305, 1260))
    if name == "count-csv":
        R = _band(name, seed, COUNT_CSV_R)
        return Workload(name, "gaussian", (
            "count", "--csv", f"{INPUT_DIR}/pointset.csv", "--method", "exact"),
            input_argv=("generate", "--field", "gaussian", "--scale", "1",
                        "--R", str(R), "--no-plot", "--out", INPUT_DIR))
    raise ValueError(f"unknown workload {name!r}")

