"""Summarise and compare sets of benchmark run records.

Every run writes its record (run record, figures, metrics) to
``.perfbench/results/``.  Copy the records of one commit to a directory
per side, then::

    python3 perfbench/compare.py SIDE_DIR               # medians and spreads
    python3 perfbench/compare.py BASE_DIR CHANGE_DIR    # change against base

For each workload and end-to-end metric the report gives the median and
two spreads, each the inter-quartile range as a share of the median:

* the seed spread, over every run of the side, whatever its seed.  It
  mixes run-to-run noise with the difference in work between seeds'
  inputs;
* the repeat spread, over runs of the same seed only: each run is
  divided by the median of its seed's runs and the quotients of every
  repeated seed are pooled.  It is the noise of the measurement, and is
  shown only when some seed was run more than once.

With two sides, runs are paired by seed (and by ``PERFBENCH_HASH_SEED``,
which the record keeps).  For every seed both sides ran,
the change's median is divided by the base's; the median of these
per-seed ratios says how much worse the change is, and ``wins`` counts
the seeds where the change did better.  A pairing is a regression when
it is worse by more than the metric's bound from ``BENCHMARK.json``, and
unresolved when the base's repeat spread is wider than the bound (or,
without repeats, its seed spread).

The comparison refuses records taken on different machines: the machine
fingerprint (core count, CPU model, Python and numpy versions) must be
the same in every record.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, load_json, spread  # noqa: E402

#: ``{workload: {metric: {(seed, hash seed): [value per run]}}}``
Table = Dict[str, Dict[str, Dict[Tuple[int, str], List[float]]]]


def load_side(directory: Path) -> List[dict]:
    records = [load_json(p) for p in sorted(directory.glob("*.json"))]
    return [r for r in records if not r.get("trace")]


def by_seed(records: List[dict]) -> Table:
    table: Table = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    for record in records:
        for name, value in record["metrics"].items():
            key = (record["seed"], record.get("hash_seed", "0"))
            table[record["workload"]][name][key].append(value["value"])
    return table


def seed_spread(runs: Dict[Tuple[int, str], List[float]]) -> float:
    return spread([v for values in runs.values() for v in values])


def repeat_spread(runs: Dict[Tuple[int, str], List[float]]) -> Optional[float]:
    """Spread of runs of one seed around that seed's median, pooled over seeds."""
    pooled = [
        v / statistics.median(values)
        for values in runs.values() if len(values) > 1
        for v in values
    ]
    return spread(pooled) if pooled else None


def worse_by(ratio: float, better: str) -> float:
    """How much worse a change/base ratio is, as a share of the base."""
    return ratio - 1.0 if better == "lower" else 1.0 - ratio


def main(argv: List[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load_side(Path(arg)) for arg in argv]
    if not all(sides):
        print("compare: a side holds no untraced run records", file=sys.stderr)
        return 2
    machines = {json.dumps(r["machine"], sort_keys=True) for side in sides for r in side}
    if len(machines) > 1:
        print("compare: refusing to compare timings across machines:", file=sys.stderr)
        for machine in sorted(machines):
            print("  " + machine, file=sys.stderr)
        return 3
    specs = {m["name"]: m for m in load_json(ROOT / "BENCHMARK.json")["end_to_end"]}
    tables = [by_seed(side) for side in sides]
    regressions = 0
    print(f"machine: {machines.pop()}")
    for workload in sorted(tables[0]):
        print(workload)
        for name, spec in specs.items():
            base = tables[0][workload].get(name)
            if not base:
                continue
            values = [v for runs in base.values() for v in runs]
            noise = repeat_spread(base)
            line = (f"  {name:14} n={len(values):<3} median={statistics.median(values):<12.6g} "
                    f"seed spread={seed_spread(base):6.1%} repeat spread="
                    + (f"{noise:6.1%}" if noise is not None else "   n/a")
                    + f" bound={spec['bound']:.0%}")
            if len(tables) == 2:
                change = tables[1].get(workload, {}).get(name, {})
                seeds = sorted(set(base) & set(change))
                if not seeds:
                    line += "  (no change runs of a base seed)"
                else:
                    ratios = [statistics.median(change[s]) / statistics.median(base[s])
                              for s in seeds]
                    worse = worse_by(statistics.median(ratios), spec["better"])
                    wins = sum(worse_by(r, spec["better"]) < 0 for r in ratios)
                    if (noise if noise is not None else seed_spread(base)) > spec["bound"]:
                        verdict = "unresolved"
                    elif worse > spec["bound"]:
                        verdict = "REGRESSION"
                        regressions += 1
                    else:
                        verdict = "ok"
                    line += (f"  change worse by {worse:+6.1%} over {len(seeds)} seeds, "
                             f"wins {wins}/{len(seeds)}  {verdict}")
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
