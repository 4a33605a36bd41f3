"""Span recorder and layer wrappers for the benchmark's traced run.

The traced run measures each layer of ``repro`` from outside: it
replaces the layer's public entry points (module functions and class
methods) with wrappers that record a span per call, then restores the
originals.  Spans stay in memory until the run ends.

A span is ``(id, name, detail, start, end, parent, trace, extra)``.
``parent`` is the innermost open span on the calling thread; a thread
with no open span (a crawl lane, the serving loop) takes the innermost
open span of the main thread, so lane work nests under its campaign.
``trace`` is shared by every span under one root (one campaign, one
request).  ``extra`` is busy time credited by generator entry points
(store cursors), whose work is interleaved with their consumer's and so
cannot be one interval.

Names imported by value (``parse_apk`` in ``repro.crawler.crawler``,
the analyzers in ``repro.core.study``) are patched in every module that
looks them up, which is why an entry point lists several targets.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

STUDIES = ("study-default", "study-outofcore")
HOSTILE = ("crawl-hostile",)
SERVE = ("serve-open",)
WORKLOADS = STUDIES + HOSTILE + SERVE

#: A layer self-time exponent above this is super-linear (ROADMAP item 1).
SCALING_LIMIT = 1.15


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.distinct: Dict[str, set] = defaultdict(set)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: List[list] = []

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def open(self, name: str, detail: str = "") -> list:
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None
        )
        span_id = next(self._ids)
        # frame: [id, name, detail, start, parent id, trace id, extra busy, children]
        frame = [
            span_id, name, detail, time.perf_counter(),
            parent[0] if parent else 0,
            parent[5] if parent else span_id,
            0.0, [],
        ]
        if parent is not None:
            parent[7].append(name)
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        else:  # pragma: no cover - a wrapper always closes its own frame
            stack.remove(frame)
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end,
                           frame[4], frame[5], frame[6]))

    def credit(self, seconds: float) -> None:
        """Charge generator busy time to the innermost open span."""
        stack = self._stack()
        if stack:
            stack[-1][6] += seconds

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] += amount

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[0], "name": span[1], "detail": span[2],
                    "start": span[3], "end": span[4], "parent": span[5],
                    "trace": span[6], "extra_s": span[7],
                }) + "\n")


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

Hook = Callable[["Tracer", str, tuple, dict, object, list, object], None]


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: span name, patch targets, exercising workloads."""

    name: str
    targets: Tuple[str, ...]
    workloads: Tuple[str, ...]
    detail: Optional[Callable[[tuple, dict], str]] = None
    before: Optional[Callable[[tuple, dict], object]] = None
    after: Optional[Hook] = None
    generator: bool = False
    quantities: Tuple[str, ...] = ()

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _bytes_of_result(tracer, name, args, kwargs, result, children, state):
    tracer.count(name + ".bytes", len(result))


def _bytes_of_arg(tracer, name, args, kwargs, result, children, state):
    tracer.count(name + ".bytes", len(args[0]))


def _hit_if_found(tracer, name, args, kwargs, result, children, state):
    if result is not None:
        tracer.count(name + ".hits")


def _hit_unless_built(tracer, name, args, kwargs, result, children, state):
    if "ecosystem.build_apk" not in children:
        tracer.count(name + ".hits")


def _client_stats(args, kwargs):
    stats = args[0].stats
    return (stats.retries, stats.failures)


def _client_delta(tracer, name, args, kwargs, result, children, state):
    stats = args[0].stats
    tracer.count(name + ".retries", stats.retries - state[0])
    tracer.count(name + ".failed", stats.failures - state[1])


def _journal_bytes(tracer, name, args, kwargs, result, children, state):
    store, apk = args[0], args[1]
    try:
        tracer.count(name + ".bytes", store._path(apk.md5).stat().st_size)
    except (AttributeError, OSError):
        pass


def _distinct_md5(tracer, name, args, kwargs, result, children, state):
    tracer.distinct[name].add(args[1])


def _map_items(tracer, name, args, kwargs, result, children, state):
    stage = kwargs.get("stage") or (args[3] if len(args) > 3 else None)
    if stage == "analysis.clones.score":
        tracer.count("analysis.code_clones.candidates", len(args[1]))


def _clone_pairs(tracer, name, args, kwargs, result, children, state):
    tracer.count(name + ".pairs", len(result.pairs))


def _crawl_label(args, kwargs):
    return str(args[1] if len(args) > 1 else kwargs.get("label", ""))


def _request_path(args, kwargs):
    return args[1].path.strip("/")


def _experiment_id(args, kwargs):
    return str(args[0])


ENTRIES: Tuple[Entry, ...] = (
    Entry("ecosystem.generate", ("repro.ecosystem.generator:EcosystemGenerator.generate",),
          WORKLOADS),
    Entry("ecosystem.build_stores",
          ("repro.markets.store:build_stores", "repro.core.study:build_stores"), WORKLOADS),
    Entry("ecosystem.build_apk", ("repro.ecosystem.apps:build_apk",), STUDIES + SERVE),
    Entry("ecosystem.find_by_package", ("repro.ecosystem.world:World.find_by_package",),
          STUDIES),
    Entry("apk.serialize",
          ("repro.apk.archive:serialize_apk", "repro.ecosystem.apps:serialize_apk"),
          STUDIES + SERVE, after=_bytes_of_result, quantities=("bytes",)),
    Entry("apk.parse", ("repro.apk.archive:parse_apk", "repro.crawler.crawler:parse_apk"),
          STUDIES, after=_bytes_of_arg, quantities=("bytes",)),
    Entry("markets.handle", ("repro.markets.server:MarketServer.handle",), WORKLOADS,
          detail=_request_path),
    Entry("markets.apk_bytes", ("repro.markets.store:MarketStore.apk_bytes",),
          STUDIES + SERVE, after=_hit_unless_built, quantities=("hit_ratio",)),
    Entry("net.request", ("repro.net.client:HttpClient.request",), STUDIES + HOSTILE,
          before=_client_stats, after=_client_delta, quantities=("retries", "failed")),
    Entry("net.wire_decode", ("repro.net.wire:decode",), HOSTILE + SERVE,
          after=_bytes_of_arg, quantities=("bytes",)),
    Entry("crawler.crawl", ("repro.crawler.crawler:CrawlCoordinator.crawl",),
          STUDIES + HOSTILE, detail=_crawl_label),
    Entry("crawler.recheck", ("repro.crawler.crawler:CrawlCoordinator.recheck",), STUDIES),
    Entry("crawler.backfill", ("repro.crawler.backfill:ArchiveBackfill.lookup",), STUDIES,
          after=_hit_if_found, quantities=("hit_ratio",)),
    Entry("crawler.snapshot_add", ("repro.crawler.snapshot:Snapshot.add",),
          STUDIES + HOSTILE),
    Entry("crawler.attach_apk", ("repro.crawler.snapshot:Snapshot.attach_apk",), STUDIES),
    Entry("crawler.journal_record", ("repro.crawler.journal:LaneJournal.record",),
          ("study-outofcore",)),
    Entry("crawler.journal_put", ("repro.crawler.journal:ApkStore.put",),
          ("study-outofcore",), after=_journal_bytes, quantities=("bytes",)),
    Entry("store.family_append", ("repro.store.columnar:Family.append",),
          ("study-outofcore",)),
    Entry("store.family_scan", ("repro.store.columnar:Family.scan",),
          ("study-outofcore",), generator=True),
    Entry("store.family_get", ("repro.store.columnar:Family.get",), ("study-outofcore",)),
    Entry("store.blob_put", ("repro.store.blobs:BlobVault.put",), ("study-outofcore",)),
    Entry("store.blob_load", ("repro.store.blobs:BlobVault.load",), ("study-outofcore",),
          after=_distinct_md5, quantities=("distinct_ratio",)),
    Entry("store.find_by_package", ("repro.store.corpus:SpilledAppList.find_by_package",),
          ("study-outofcore",)),
    Entry("analysis.build_units", ("repro.core.study:build_units",), STUDIES),
    Entry("analysis.libraries_fit", ("repro.analysis.libraries:LibraryDetector.fit",),
          STUDIES),
    Entry("analysis.scan_units", ("repro.core.study:scan_units",), STUDIES),
    Entry("analysis.signature_clones", ("repro.core.study:detect_signature_clones",),
          STUDIES),
    Entry("analysis.code_clones", ("repro.analysis.clones:CodeCloneDetector.detect",),
          STUDIES, after=_clone_pairs, quantities=("hit_ratio",)),
    Entry("analysis.engine_map", ("repro.analysis.engine:AnalysisEngine.map",), STUDIES,
          after=_map_items),
    Entry("analysis.fakes", ("repro.core.study:detect_fakes",), STUDIES),
    Entry("analysis.overprivilege", ("repro.core.study:analyze_overprivilege",), STUDIES),
    Entry("analysis.flagged", ("repro.core.study:flagged_packages_by_market",), STUDIES),
    Entry("analysis.removal", ("repro.core.study:removal_report",), STUDIES),
    Entry("analysis.cache_get", ("repro.analysis.engine:ArtifactCache.get",),
          ("study-outofcore",), after=_hit_if_found, quantities=("hit_ratio",)),
    Entry("analysis.cache_put", ("repro.analysis.engine:ArtifactCache.put",),
          ("study-outofcore",)),
    Entry("experiments.run", ("repro.experiments.runner:run_experiment",), STUDIES,
          detail=_experiment_id),
)

#: Counters the serve-open workload reports for the ``serving`` layer.
SERVING_METRICS = (
    ("serving.tier.frames_served", "count", "higher"),
    ("serving.tier.connections_accepted", "count", "lower"),
    ("serving.conn.wait_s", "s", "lower"),
    ("serving.generator.wait_s", "s", "lower"),
)


def _span_wrapper(tracer: Tracer, entry: Entry, original: Callable) -> Callable:
    name, detail, before, after = entry.name, entry.detail, entry.before, entry.after

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        frame = tracer.open(name, detail(args, kwargs) if detail is not None else "")
        result = None
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            tracer.close(frame)
            if after is not None:
                after(tracer, name, args, kwargs, result, frame[7], state)

    return wrapper


def _generator_wrapper(tracer: Tracer, entry: Entry, original: Callable) -> Callable:
    name = entry.name

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer.count(name + ".calls")
        inner = original(*args, **kwargs)

        def cursor():
            busy = 0.0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - start
                        return
                    spent = time.perf_counter() - start
                    busy += spent
                    tracer.credit(spent)
                    yield item
            finally:
                tracer.count(name + ".self_s", busy)
                inner.close()

        return cursor()

    return wrapper


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Installation:
    """Wrappers installed on every entry point; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        self._saved: List[Tuple[object, str, object]] = []
        for entry in ENTRIES:
            make = _generator_wrapper if entry.generator else _span_wrapper
            for target in entry.targets:
                owner, attr = _resolve(target)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(tracer, entry, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []


# ---------------------------------------------------------------------------
# reduction: spans -> per-entry and per-layer rows
# ---------------------------------------------------------------------------


def _covered(parent_start: float, parent_end: float, children: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = parent_start
    for start, end in sorted(children):
        start = max(start, cursor)
        end = min(end, parent_end)
        if end > start:
            total += end - start
            cursor = end
    return total


def entry_rows(tracer: Tracer) -> Dict[str, Dict[str, float]]:
    """Per entry point: calls, total_s, self_s and its extra quantities."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in tracer.spans:
        if span[5]:
            children[span[5]].append((span[3], span[4]))
    rows: Dict[str, Dict[str, float]] = {
        e.name: {"calls": 0.0, "total_s": 0.0, "self_s": 0.0} for e in ENTRIES
    }
    details: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span_id, name, detail, start, end, _parent, _trace, extra in tracer.spans:
        own = max(0.0, end - start - _covered(start, end, children.get(span_id, [])) - extra)
        row = rows[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        if detail:
            details[name][detail] += own
    for entry in ENTRIES:
        row = rows[entry.name]
        if entry.generator:
            row["calls"] = tracer.counters.get(entry.name + ".calls", 0.0)
            row["self_s"] = row["total_s"] = tracer.counters.get(entry.name + ".self_s", 0.0)
        calls = row["calls"]
        for quantity in entry.quantities:
            if quantity == "hit_ratio":
                if entry.name == "analysis.code_clones":
                    candidates = tracer.counters.get("analysis.code_clones.candidates", 0.0)
                    pairs = tracer.counters.get(entry.name + ".pairs", 0.0)
                    row["hit_ratio"] = pairs / candidates if candidates else 0.0
                    row["candidates"] = candidates
                else:
                    hits = tracer.counters.get(entry.name + ".hits", 0.0)
                    row["hit_ratio"] = hits / calls if calls else 0.0
            elif quantity == "distinct_ratio":
                distinct = len(tracer.distinct.get(entry.name, ()))
                row["distinct_ratio"] = distinct / calls if calls else 0.0
            else:
                row[quantity] = tracer.counters.get(entry.name + "." + quantity, 0.0)
        row["details"] = dict(details.get(entry.name, {}))
    return rows


def layer_rows(rows: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    layers: Dict[str, Dict[str, float]] = {}
    for entry in ENTRIES:
        layer = layers.setdefault(entry.layer, {"calls": 0.0, "total_s": 0.0, "self_s": 0.0})
        row = rows[entry.name]
        for key in ("calls", "total_s", "self_s"):
            layer[key] += row[key]
    return layers


def zero_call_entries(rows: Dict[str, Dict[str, float]], workload: str) -> List[str]:
    """Entries the table says ``workload`` exercises that recorded no call."""
    return [
        e.name for e in ENTRIES
        if workload in e.workloads and rows[e.name]["calls"] == 0
    ]


def scaling_exponents(
    full: Dict[str, Dict[str, float]], half: Dict[str, Dict[str, float]], ratio: float
) -> Dict[str, float]:
    """Per layer, the exponent ``k`` in self time ~ size ** k fitted
    through two points whose sizes differ by ``ratio``."""
    exponents = {}
    for layer, row in full.items():
        small = half.get(layer, {}).get("self_s", 0.0)
        if row["self_s"] > 0 and small > 0:
            exponents[layer] = math.log(row["self_s"] / small) / math.log(ratio)
    return exponents


def per_layer_metric_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric the traced run prints: (name, unit, better)."""
    specs: List[Tuple[str, str, str]] = []
    for entry in ENTRIES:
        specs.append((entry.name + ".calls", "count", "lower"))
        specs.append((entry.name + ".self_s", "s", "lower"))
        for quantity in entry.quantities:
            if quantity in ("hit_ratio", "distinct_ratio"):
                specs.append((f"{entry.name}.{quantity}", "ratio", "higher"))
            elif quantity == "bytes":
                specs.append((f"{entry.name}.bytes", "bytes", "lower"))
            else:
                specs.append((f"{entry.name}.{quantity}", "count", "lower"))
    specs.extend(SERVING_METRICS)
    return specs


def per_layer_metrics(rows: Dict[str, Dict[str, float]], serving: Dict[str, float]) -> Dict[str, dict]:
    metrics = {}
    for name, unit, _better in per_layer_metric_specs():
        if name.startswith("serving."):
            value = serving.get(name, 0.0)
        else:
            entry, _, quantity = name.rpartition(".")
            value = rows[entry].get(quantity, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def format_table(rows: Dict[str, Dict[str, float]], wall_s: float) -> str:
    """The per-layer table: calls, total, self time and share of wall time."""
    lines = [f"{'entry':34} {'calls':>9} {'total_s':>9} {'self_s':>9} {'share':>7}  extra"]
    layers = layer_rows(rows)
    current = None
    for entry in ENTRIES:
        if entry.layer != current:
            current = entry.layer
            layer = layers[current]
            lines.append(
                f"{current.upper():34} {int(layer['calls']):>9} {layer['total_s']:>9.3f} "
                f"{layer['self_s']:>9.3f} {layer['self_s'] / wall_s:>7.1%}"
            )
        row = rows[entry.name]
        extra = " ".join(
            f"{q}={row[q]:.4g}" for q in row
            if q not in ("calls", "total_s", "self_s", "details")
        )
        lines.append(
            f"  {entry.name:32} {int(row['calls']):>9} {row['total_s']:>9.3f} "
            f"{row['self_s']:>9.3f} {row['self_s'] / wall_s:>7.1%}  {extra}"
        )
        top = sorted(row["details"].items(), key=lambda kv: -kv[1])[:6]
        if len(top) > 1:
            lines.append("      " + ", ".join(f"{d}={s:.3f}s" for d, s in top))
    return "\n".join(lines)
