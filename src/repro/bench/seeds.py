"""Benchmark scales and canonical seeds.

Experiments run at three scales:

* ``small`` — CI-friendly (seconds to a couple of minutes per experiment);
  the default for ``pytest benchmarks/``.
* ``full`` — the sizes reported in EXPERIMENTS.md (minutes).
* ``large`` — extends the sweep 8× past ``full``'s ceiling (n up to
  16 384, single seed; tens of minutes).  Every cell runs on the fast
  store, whose knowledge rows are the only copy (n²/8 bytes, 32 MiB at
  n = 16 384).  Wall clock and memory go to the protocols' traffic: the
  payloads in flight (sublog's completion broadcast holds n − 1 tuples
  of n − 1 ids at once; the gossip baselines send knowledge snapshots)
  and the per-pointer legality and learning work over them.  That is
  what the per-algorithm size caps in T1/F1 bound.  At n = 32 768 the
  broadcast's tuples alone take 8 GiB, more than a machine with 8 GB of
  memory holds.

Select with the ``REPRO_BENCH_SCALE`` environment variable or the CLI's
``--scale`` flag.  Seeds are fixed constants so that every report is
reproducible bit-for-bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

_SCALES = ("small", "full", "large")

#: Canonical seed list; experiments take a prefix.
CANONICAL_SEEDS: Tuple[int, ...] = (11, 23, 37, 53, 71, 89, 101, 127)


@dataclass(frozen=True)
class Scale:
    """Per-scale knobs shared by the experiments."""

    name: str
    seeds: Tuple[int, ...]
    sweep_sizes: Tuple[int, ...]  # the main n-sweep
    focus_n: int  # single-size experiments (ablations, faults)
    big_n: int  # the one large showcase size (cluster growth)

    @property
    def seed_count(self) -> int:
        return len(self.seeds)


SCALES = {
    "small": Scale(
        name="small",
        seeds=CANONICAL_SEEDS[:3],
        sweep_sizes=(64, 128, 256, 512),
        focus_n=256,
        big_n=512,
    ),
    "full": Scale(
        name="full",
        seeds=CANONICAL_SEEDS[:5],
        sweep_sizes=(64, 128, 256, 512, 1024, 2048),
        focus_n=1024,
        big_n=4096,
    ),
    "large": Scale(
        name="large",
        seeds=CANONICAL_SEEDS[:1],
        sweep_sizes=(4096, 8192, 16384),
        focus_n=8192,
        big_n=16384,
    ),
}


def bench_scale(name: str | None = None) -> Scale:
    """Resolve the active scale (arg > env var > ``small``)."""
    resolved = name or os.environ.get("REPRO_BENCH_SCALE", "small")
    if resolved not in SCALES:
        raise ValueError(f"unknown scale {resolved!r}; expected one of {_SCALES}")
    return SCALES[resolved]
