"""Shared pieces of the benchmark: paths, run record, statistics, output."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark inside the checkout (gitignored).
WORK = ROOT / ".perfbench"


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


def require_source() -> None:
    """Make ``repro`` importable from the checkout, or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def fresh_dir(*parts: str) -> Path:
    path = WORK.joinpath(*parts)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


#: String hashing is seeded per process unless pinned, and the speed of
#: the serving path and the studies moves by up to a third between
#: seeds; every benchmark process runs with this one.  Set
#: ``PERFBENCH_HASH_SEED`` to measure another layout.
HASH_SEED = os.environ.get("PERFBENCH_HASH_SEED", "0")


def pin_hash_seed(argv: List[str]) -> None:
    """Re-execute this interpreter with ``PYTHONHASHSEED`` pinned."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *argv], child_env())


def child_env() -> Dict[str, str]:
    """The environment of every benchmark process: hash seed pinned and
    temporary files (Python's and SQLite's) kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["TMPDIR"] = env["SQLITE_TMPDIR"] = str(work_dir("tmp"))
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample."""
    if not sorted_values:
        return float("inf")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """Digest of every ``src/repro`` source file: identifies the code
    measured where the checkout carries no git metadata."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_fingerprint() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_record(workload: str, seed: int, scale: float, trace: bool) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "machine": machine_fingerprint(),
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "hash_seed": HASH_SEED,
        "started": time.time(),
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def print_table(title: str, rows: Iterable[tuple]) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:22} {value:>14.6g} {unit:8} {note}")


def emit(record: Dict[str, object], attempted: int, failed: int,
         metrics: Dict[str, dict]) -> None:
    """Save the run record and print the result line (last stdout line)."""
    record = dict(record, attempted=attempted, failed=failed, metrics=metrics)
    name = "{workload}-seed{seed}-trace{t}-{pid}.json".format(
        workload=record["workload"], seed=record["seed"],
        t=int(bool(record["trace"])), pid=os.getpid(),
    )
    with open(work_dir("results") / name, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": True, "attempted": int(attempted), "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def emit_failure(reason: str) -> None:
    print(f"perfbench: output check failed: {reason}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}),
          flush=True)


def load_json(path: Path) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def import_seconds(samples: int, statement: str, sampler) -> List[float]:
    """Time of fresh interpreters running ``statement`` (set-up cost), in
    reference seconds of ``sampler``: the children inherit this process's
    CPU, which the sampler times."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", statement], env=child_env(),
                       check=True, cwd=ROOT)
        end = time.perf_counter()
        times.append(sampler.reference_s(end - start, start, end))
    return times
