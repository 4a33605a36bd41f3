"""Record the reference digests the study workloads are checked against.

Usage (from the repository root)::

    python3 perfbench/record_references.py 0-24 42

For each seed, every study workload's reference configuration is run at
the workload's scale and at half of it (the traced run's second point),
and the digests are merged into ``perfbench/references.json``.  Runs
whose seed is not recorded compute their reference in the run instead,
so the file saves time and pins history; it is not required.  Re-record
only when a change is meant to alter crawl or report output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def seeds_of(args):
    for arg in args:
        low, _, high = arg.partition("-")
        yield from range(int(low), int(high or low) + 1)


def main(argv) -> int:
    common.require_source()
    common.pin_hash_seed(sys.argv)
    import studies

    path = common.BENCH_DIR / "references.json"
    references = common.load_json(path) if path.is_file() else {}
    points = sorted({
        (spec.reference, scale)
        for spec in studies.WORKLOADS.values()
        for scale in (spec.scale, spec.scale / 2)
    })
    for seed in seeds_of(argv):
        for kind, scale in points:
            key = studies.reference_key(kind, seed, scale)
            references[key] = studies.compute_reference(kind, seed, scale)
            print(key, references[key], flush=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(references, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
