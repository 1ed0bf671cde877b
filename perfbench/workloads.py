"""The benchmark's workloads: one `gaplab` CLI invocation each.

Every workload is a fixed command line plus the CLI `--seed`, which is derived
from the benchmark seed.  Output paths are relative: each repetition runs in
the same working directory, so repeated runs can be compared byte for byte
(the scaling header embeds the `--samples-out` path).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple            # CLI arguments without --seed
    quick_argv: tuple      # the same command with fewer orientations
    outputs: tuple         # files the command writes, relative to its cwd
    eta: float             # filter broadening: every gap must lie within eta of ED
    shots: bool            # shot sampling (seed-dependent output) or exact


# Ten orientations (theta/pi = l/50, l < 10) is the smallest sweep whose two
# tallest peaks give the same gap at every N, so shot noise cannot flip the
# reported gap between seeds.  With eight or nine, N = 5 chooses between gaps
# 0.08 to 0.23 above ED; with seven or fewer its best gap lies 0.23 or more
# above ED, near the eta = 0.3 gate.
_SCALING = ("scaling", "--j-list", "0.4", "--n-list", "2,3,4,5", "--p", "1",
            "--m", "35", "--filter", "gaussian", "--eta-over-h", "0.3",
            "--shots", "1024", "--samples-out", "samples.json",
            "--out", "diagram.csv")
_LONG_TIME = ("sweep-theta", "--n", "4", "--j-over-h", "0.4", "--p", "1",
              "--filter", "lorentzian", "--eta-over-h", "0.02", "--m", "10000",
              "--exact", "--out", "sweep.json")
_GAP_N8 = ("gap", "--n", "8", "--p", "2", "--exact", "--out", "gap.json")

WORKLOADS = {w.name: w for w in (
    Workload("scaling_shots",
             _SCALING + ("--theta-count", "10"),
             _SCALING + ("--theta-count", "10"),
             ("diagram.csv", "samples.json"), eta=0.3, shots=True),
    Workload("long_time_exact",
             _LONG_TIME + ("--theta-count", "3"),
             _LONG_TIME + ("--theta-count", "1"),
             ("sweep.json",), eta=0.02, shots=False),
    Workload("gap_n8_exact", _GAP_N8, _GAP_N8,
             ("gap.json",), eta=0.3, shots=False),
)}


def cli_seed(workload: str, seed: int) -> int:
    """CLI --seed derived from the benchmark seed, distinct per workload."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def command(workload: Workload, seed: int, quick: bool = False) -> list:
    argv = workload.quick_argv if quick else workload.argv
    return list(argv) + ["--seed", str(cli_seed(workload.name, seed))]
