"""The study-shaped workloads: a whole ``Study.run`` (and ``run_all``).

Each job is timed untraced, checked against reference digests, and
reduced to the metrics in ``README.md``.  References come from
``references.json`` when it holds the workload's reference kind, seed
and scale; otherwise the run computes them after its timed loop with
the reference configuration, whose output the digest contract says is
identical.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from common import (
    BENCH_DIR, CheckFailed, cpu_seconds, fresh_dir, load_json, median, peak_rss_mib,
    source_digest, WORK,
)
from speed import SpeedSampler

#: Statement a fresh interpreter runs to measure the studies' set-up cost.
IMPORTS = (
    "from repro import Study, StudyConfig; "
    "from repro.experiments import digest_reports, run_all; "
    "import repro.net.faults"
)

#: Record count above which a store family spills to disk in the
#: out-of-core workload.  Lowered from the default 5000 so a world small
#: enough for this benchmark's run budget still spills every family.
OUTOFCORE_SPILL_THRESHOLD = 256


#: Jobs a timed run makes at least, however long they take.  One job
#: of the same seed differs from the next by about 7% (out-of-core) in
#: reference seconds, and out-of-core jobs can outlast ``--seconds``.
MIN_JOBS = 3


@dataclass(frozen=True)
class StudyWorkload:
    name: str
    scale: float
    #: Whether the job renders every report with ``run_all``.
    reports: bool
    #: Reference kind: the configuration whose digests the job must match.
    reference: str
    make_config: Callable[[int, float, Optional[str]], object]


def _default(seed: int, scale: float, work: Optional[str]):
    from repro import StudyConfig

    return StudyConfig(seed=seed, scale=scale)


def _outofcore(seed: int, scale: float, work: Optional[str]):
    from repro import StudyConfig

    return StudyConfig(
        seed=seed, scale=scale, store_backend="sqlite",
        checkpoint_dir=work, artifact_cache_dir=os.path.join(work, "artifacts"),
        store_spill_threshold=OUTOFCORE_SPILL_THRESHOLD,
    )


def _hostile_plan():
    from repro.net.faults import FaultPlan

    return FaultPlan(transient_500=0.02, timeout=0.01, malformed=0.01,
                     burst_429_period=200, max_consecutive=2)


def _hostile(seed: int, scale: float, work: Optional[str]):
    from repro import StudyConfig

    return StudyConfig(
        seed=seed, scale=scale, download_apks=False, full_second_crawl=True,
        hostility="full", identity_pool=8, fault_plan=_hostile_plan(),
    )


def _reference_full(seed: int, scale: float):
    """Memory backend, two crawl lanes and the exhaustive clone search:
    three knobs that must not change any digest."""
    from repro import StudyConfig

    return StudyConfig(seed=seed, scale=scale, crawl_workers=2,
                       clone_strategy="exhaustive")


def _reference_polite(seed: int, scale: float):
    from repro import StudyConfig

    return StudyConfig(seed=seed, scale=scale, download_apks=False,
                       full_second_crawl=True)


REFERENCES = {
    "full": (_reference_full, True),
    "polite": (_reference_polite, False),
}

WORKLOADS: Dict[str, StudyWorkload] = {
    "study-default": StudyWorkload("study-default", 0.0002, True, "full", _default),
    "study-outofcore": StudyWorkload("study-outofcore", 0.0001, True, "full", _outofcore),
    "crawl-hostile": StudyWorkload("crawl-hostile", 0.0003, False, "polite", _hostile),
}


# ---------------------------------------------------------------------------
# one job
# ---------------------------------------------------------------------------


def _reports_digest(reports: Dict[str, str]) -> str:
    text = ";".join(f"{k}={v}" for k, v in sorted(reports.items()))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _dir_bytes(path: Path) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


def digests_of(result, reports: Optional[Dict[str, str]]) -> Dict[str, Optional[str]]:
    second = result.second_snapshot
    return {
        "snapshot": str(result.snapshot.content_digest()),
        "second": str(second.content_digest()) if second is not None else None,
        "reports": _reports_digest(reports) if reports is not None else None,
    }


def _quota_refusals(result, telemetry) -> int:
    """Downloads given up on because a market's download quota ran out:
    the quota is the market's correct answer, not a failure."""
    return sum(
        lane.rate_limit_aborts for market_id, lane in telemetry.markets.items()
        if result.servers[market_id].quota_limited
    )


def _failed(result, telemetry) -> int:
    """Abandoned requests (quota refusals aside) plus dead letters."""
    return (telemetry.total_failures - _quota_refusals(result, telemetry)
            + telemetry.total_dead_letters)


class CampaignClock:
    """Records when each ``CrawlCoordinator.crawl`` call starts and ends.

    The campaign figures (``crawl_rps``, ``second_s``) convert to
    reference seconds at the CPU speed of their own campaign's window,
    not the whole job's.  Two calls a job: no measurable cost.
    """

    def __enter__(self) -> "CampaignClock":
        from repro.crawler.crawler import CrawlCoordinator

        self.windows: List[tuple] = []
        self._owner, self._original = CrawlCoordinator, CrawlCoordinator.crawl
        original, windows = self._original, self.windows

        def crawl(coordinator, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(coordinator, *args, **kwargs)
            finally:
                windows.append((start, time.perf_counter()))

        CrawlCoordinator.crawl = crawl
        return self

    def __exit__(self, *exc) -> None:
        self._owner.crawl = self._original


def run_config(config, reports: bool,
               sampler: Optional[SpeedSampler] = None) -> Dict[str, object]:
    """Run one study (and its reports); return timings, counters, digests.

    With a ``sampler`` the timings are also given in reference seconds
    (the ``ref_*`` keys; see ``speed.py``).
    """
    from repro import Study
    from repro.experiments import digest_reports, run_all

    clock = CampaignClock() if sampler is not None else contextlib.nullcontext()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    with clock:
        result = Study(config).run()
    middle = time.perf_counter()
    study_s = middle - start
    report_s = 0.0
    report_digests = None
    if reports:
        report_digests = digest_reports(run_all(result))
    end = time.perf_counter()
    report_s = end - middle if reports else 0.0
    cpu_s = cpu_seconds() - cpu0
    telemetry = result.telemetry
    second = result.second_snapshot
    second_tel = second.stats.telemetry if second is not None else None
    job = {
        "study_s": study_s,
        "report_s": report_s,
        "cpu_s": cpu_s,
        "crawl_rps": telemetry.requests_per_second,
        "requests": telemetry.total_requests,
        "retries": telemetry.total_retries,
        "failed": _failed(result, telemetry),
        "quota_refusals": _quota_refusals(result, telemetry),
        "second_s": second_tel.wall_seconds if second_tel is not None else 0.0,
        "digests": digests_of(result, report_digests),
        "listings": result.world.total_listings(),
    }
    if second_tel is not None:
        job["requests"] += second_tel.total_requests
        job["failed"] += _failed(result, second_tel)
    if sampler is not None:
        first = clock.windows[0]
        second = clock.windows[1] if len(clock.windows) > 1 else first
        job.update(
            ref_study_s=sampler.reference_s(study_s, start, middle),
            ref_report_s=sampler.reference_s(report_s, middle, end) if reports else 0.0,
            ref_cpu_s=sampler.reference_s(cpu_s, start, end),
            ref_crawl_rps=job["crawl_rps"] / sampler.factor(*first),
            ref_second_s=sampler.reference_s(job["second_s"], *second),
            speed=sampler.factor(start, end),
        )
    if result.corpus is not None:
        result.corpus.close()
    del result
    gc.collect()
    return job


def run_job(workload: StudyWorkload, seed: int, scale: float,
            sampler: Optional[SpeedSampler] = None) -> Dict[str, object]:
    work = None
    if workload.name == "study-outofcore":
        work = str(fresh_dir("ckpt", str(os.getpid())))
    try:
        job = run_config(workload.make_config(seed, scale, work), workload.reports, sampler)
        job["disk_mib"] = _dir_bytes(Path(work)) / 2**20 if work else 0.0
    finally:
        if work:
            shutil.rmtree(work, ignore_errors=True)
    return job


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def reference_key(kind: str, seed: int, scale: float) -> str:
    return f"{kind}/seed={seed}/scale={scale:g}"


def pinned_references() -> Dict[str, Dict[str, Optional[str]]]:
    path = BENCH_DIR / "references.json"
    return load_json(path) if path.is_file() else {}


def compute_reference(kind: str, seed: int, scale: float) -> Dict[str, Optional[str]]:
    make, reports = REFERENCES[kind]
    return run_config(make(seed, scale), reports)["digests"]


def computed_reference(kind: str, seed: int, scale: float) -> Dict[str, Optional[str]]:
    """``compute_reference``, kept in the checkout's scratch space for the
    sources it was computed from, so later runs of that seed reuse it."""
    path = WORK / f"references-{source_digest()}.json"
    known = load_json(path) if path.is_file() else {}
    key = reference_key(kind, seed, scale)
    if key not in known:
        known[key] = compute_reference(kind, seed, scale)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)
    return known[key]


def check_digests(workload: StudyWorkload, seed: int, scale: float,
                  observed: List[Dict[str, Optional[str]]]) -> str:
    """Fail unless every job's digests equal the reference; returns its source."""
    first = observed[0]
    for other in observed[1:]:
        if other != first:
            raise CheckFailed(f"{workload.name}: digests differ between jobs: {first} vs {other}")
    key = reference_key(workload.reference, seed, scale)
    reference = pinned_references().get(key)
    source = "pinned"
    if reference is None:
        reference = computed_reference(workload.reference, seed, scale)
        source = "computed"
    if first != reference:
        raise CheckFailed(
            f"{workload.name} seed={seed} scale={scale:g}: digests {first} "
            f"!= {source} {workload.reference} reference {reference}"
        )
    return source


# ---------------------------------------------------------------------------
# timed loop
# ---------------------------------------------------------------------------


def timed_jobs(workload: StudyWorkload, seed: int, scale: float, seconds: float,
               sampler: Optional[SpeedSampler] = None,
               min_jobs: int = MIN_JOBS) -> List[Dict[str, object]]:
    """Repeat the job until ``seconds`` have passed and ``min_jobs`` ran.

    The first job also pays lazy imports and first-call set-up; the
    median over at least three jobs leaves that out.
    """
    jobs = []
    start = time.perf_counter()
    while len(jobs) < min_jobs or time.perf_counter() - start < seconds:
        jobs.append(run_job(workload, seed, scale, sampler))
    return jobs


def summarize(workload: StudyWorkload, jobs: List[Dict[str, object]]) -> Dict[str, float]:
    """The end-to-end figures under their own names.

    Every job does the same work.  Each timing is the median over the
    run's jobs, in reference seconds (``speed.py``); the wall-clock
    figures are kept as ``wall_*``.
    """
    requests = sum(j["requests"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    summary = {
        "study_s": median([j["ref_study_s"] for j in jobs]),
        "cpu_s": median([j["ref_cpu_s"] for j in jobs]),
        "crawl_rps": median([j["ref_crawl_rps"] for j in jobs]),
        "wall_study_s": median([j["study_s"] for j in jobs]),
        "speed": median([j["speed"] for j in jobs]),
        "peak_rss_mib": peak_rss_mib(),
        "failed_share": failed / requests if requests else 0.0,
        "jobs": len(jobs),
        "requests": requests,
        "failed": failed,
    }
    if workload.reports:
        summary["report_s"] = median([j["ref_report_s"] for j in jobs])
    else:
        summary["second_s"] = median([j["ref_second_s"] for j in jobs])
    if workload.name == "study-outofcore":
        summary["disk_mib"] = median([j["disk_mib"] for j in jobs])
    return summary


def cleanup() -> None:
    shutil.rmtree(WORK / "ckpt", ignore_errors=True)
