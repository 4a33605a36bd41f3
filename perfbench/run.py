"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload study-default --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
makes the separate traced run that prints the per-layer table.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import speed  # noqa: E402
from common import CheckFailed, metric  # noqa: E402

WORKLOADS = ("study-default", "study-outofcore", "crawl-hostile", "serve-open")
#: Interpreter starts whose median is the study workloads' ``setup_s``.
SETUP_SAMPLES = 5
#: Per-job figures kept in the run record.
JOB_FIGURES = ("study_s", "report_s", "second_s", "cpu_s", "crawl_rps", "requests",
               "ref_study_s", "ref_report_s", "ref_second_s", "ref_cpu_s", "ref_crawl_rps",
               "speed")


def end_to_end(workload: str, seed: int, seconds: float) -> None:
    if workload == "serve-open":
        import serve

        figures = serve.run(seed, seconds)
        record = common.run_record(workload, seed, serve.SCALE, False)
        metrics = {
            "setup_s": metric(figures["setup_s"], "s"),
            "primary_ms": metric(figures["service_ms.high"], "ms"),
            "secondary_ms": metric(figures["service_ms.low"], "ms"),
            "cpu_s": metric(figures["setup_cpu_s"], "s"),
            "rps": metric(figures["cpu_rps"], "req/s"),
            "peak_rss_mib": metric(figures["peak_rss_mib"], "MiB"),
        }
        rows = [
            ("setup_s", figures["setup_s"], "s", f"median of {serve.SETUP_SAMPLES} tier starts"),
            ("max_rps", figures["max_rps"], "req/s",
             f"p99 <= {serve.LIMIT_P99_S * 1000:g} ms, probes {figures['search']}"),
            ("capacity_rps", figures["capacity_rps"], "req/s",
             f"answered while offered {serve.CAPACITY_RPS:g} req/s"),
            ("cpu_capacity_rps", figures["cpu_capacity_rps"], "req/s",
             f"the same, per reference tier-CPU second, median of {serve.VOTES} probes"),
            ("cpu_rps", figures["cpu_rps"], "req/s",
             "answers per reference tier-CPU second, pinned-rate probes"),
            ("p50_ms.low", figures["p50_ms.low"], "ms",
             f"at {serve.LOW_RPS:g} req/s, n={figures['samples.low']}"),
            ("p99_ms.low", figures["p99_ms.low"], "ms",
             f"at {serve.LOW_RPS:g} req/s, n={figures['samples.low']}"),
            ("p50_ms.high", figures["p50_ms.high"], "ms",
             f"at {serve.HIGH_RPS:g} req/s, n={figures['samples.high']}"),
            ("p99_ms.high", figures["p99_ms.high"], "ms",
             f"at {serve.HIGH_RPS:g} req/s, n={figures['samples.high']}"),
            ("service_ms.low", figures["service_ms.low"], "ms",
             f"tier CPU per request at {serve.LOW_RPS:g} req/s, median of {serve.VOTES}"),
            ("service_ms.high", figures["service_ms.high"], "ms",
             f"tier CPU per request at {serve.HIGH_RPS:g} req/s, median of {serve.VOTES}"),
            ("service_ms.capacity", figures["service_ms.capacity"], "ms",
             "tier CPU per request in the capacity probes"),
            ("setup_cpu_s", figures["setup_cpu_s"], "s",
             f"tier CPU until ready, median of {serve.SETUP_SAMPLES} starts"),
            ("peak_rss_mib", figures["peak_rss_mib"], "MiB", "tier process"),
            ("failed_share", figures["failed_share"], "ratio", "pinned-rate probes"),
            ("generator_late_p99", figures["lateness_p99_ms"], "ms", "generator lateness"),
        ]
        attempted, failed = figures["attempted"], figures["failed"]
        record["probe_service_ms"] = figures["probe_service_ms"]
        record["setup_samples_s"] = figures["setup_samples_s"]
    else:
        import studies

        spec = studies.WORKLOADS[workload]
        with speed.SpeedSampler() as sampler:
            setup = common.import_seconds(SETUP_SAMPLES, studies.IMPORTS, sampler)
            jobs = studies.timed_jobs(spec, seed, spec.scale, seconds, sampler)
        summary = studies.summarize(spec, jobs)
        source = studies.check_digests(spec, seed, spec.scale, [j["digests"] for j in jobs])
        record = common.run_record(workload, seed, spec.scale, False)
        second = summary["report_s"] if spec.reports else summary["second_s"]
        metrics = {
            "setup_s": metric(common.median(setup), "s"),
            "primary_ms": metric(summary["study_s"] * 1000, "ms"),
            "secondary_ms": metric(second * 1000, "ms"),
            "cpu_s": metric(summary["cpu_s"], "s"),
            "rps": metric(summary["crawl_rps"], "req/s"),
            "peak_rss_mib": metric(summary["peak_rss_mib"], "MiB"),
        }
        rows = [
            ("setup_s", common.median(setup), "s",
             f"median of {SETUP_SAMPLES} interpreter starts + imports"),
            ("study_s", summary["study_s"], "s", f"Study.run, median of {summary['jobs']} jobs"),
        ]
        if spec.reports:
            rows.append(("report_s", summary["report_s"], "s", "run_all, median job"))
        else:
            rows.append(("second_s", summary["second_s"], "s", "second campaign, median job"))
        rows += [
            ("cpu_s", summary["cpu_s"], "s", "process CPU, median job"),
            ("crawl_rps", summary["crawl_rps"], "req/s", "first campaign, median job"),
            ("wall_study_s", summary["wall_study_s"], "s", "Study.run wall clock, median job"),
            ("speed", summary["speed"], "ratio", "CPU speed over the reference, median job"),
            ("peak_rss_mib", summary["peak_rss_mib"], "MiB", "benchmark process"),
            ("failed_share", summary["failed_share"], "ratio",
             f"{summary['failed']} of {summary['requests']} requests"),
        ]
        if "disk_mib" in summary:
            rows.append(("disk_mib", summary["disk_mib"], "MiB", "checkpoint dir at run end"))
        print(f"digests: {jobs[0]['digests']} match the {source} reference")
        attempted, failed = summary["requests"], summary["failed"]
        record["jobs"] = [{k: j[k] for k in JOB_FIGURES} for j in jobs]
        studies.cleanup()
    record["figures"] = {name: value for name, value, _unit, _note in rows}
    common.print_table(f"{workload} seed={seed} scale={record['scale']:g}", rows)
    print(f"machine: {record['machine']} commit={record['git_commit']} "
          f"source={record['source_digest']}")
    common.emit(record, attempted, failed, metrics)


def traced(workload: str, seed: int, seconds: float) -> None:
    import tracing

    if workload == "serve-open":
        import serve

        figures = serve.run_traced(seed, seconds)
        rows = {name: row for name, row in figures["rows"].items()}
        # Shares are of the traced window: tier set-up plus the traced probe.
        print(tracing.format_table(rows, figures["traced_window_s"]))
        print(f"tracing overhead: tier CPU {figures['traced_cpu_s']:.3f} s traced vs "
              f"{figures['plain_cpu_s']:.3f} s untraced for probes of the same rate; p50 "
              f"{figures['traced_p50_ms']:.3f} ms vs {figures['plain_p50_ms']:.3f} ms")
        zero = tracing.zero_call_entries(rows, workload)
        serving = figures["serving"]
        attempted, failed = figures["attempted"], figures["failed"]
        record = common.run_record(workload, seed, serve.SCALE, True)
    else:
        import studies

        spec = studies.WORKLOADS[workload]
        plain = studies.timed_jobs(spec, seed, spec.scale, seconds / 3, min_jobs=1)
        plain_wall = common.median([j["study_s"] + j["report_s"] for j in plain])
        layers, listings = {}, {}
        for scale in (spec.scale, spec.scale / 2):
            tracer = tracing.Tracer()
            installed = tracing.Installation(tracer)
            try:
                job = studies.run_job(spec, seed, scale)
            finally:
                installed.remove()
            studies.check_digests(spec, seed, scale, [job["digests"]])
            rows = tracing.entry_rows(tracer)
            layers[scale] = tracing.layer_rows(rows)
            listings[scale] = job["listings"]
            if scale == spec.scale:
                full_rows, traced_job = rows, job
                traced_wall = job["study_s"] + job["report_s"]
                path = common.work_dir("traces") / f"{workload}-seed{seed}.jsonl"
                tracer.write(str(path))
                print(f"{len(tracer.spans)} spans written to {path.relative_to(common.ROOT)}")
        studies.check_digests(spec, seed, spec.scale, [j["digests"] for j in plain])
        rows = full_rows
        print(tracing.format_table(rows, traced_wall))
        print(f"tracing overhead: {traced_wall - plain_wall:+.3f} s "
              f"(traced job {traced_wall:.3f} s, untraced median {plain_wall:.3f} s "
              f"of {len(plain)})")
        # The world's listing count is the size measure: small scales are
        # floored by the generator's minimum market size, so halving the
        # scale does not halve the work.
        small, large = listings[spec.scale / 2], listings[spec.scale]
        exponents = tracing.scaling_exponents(
            layers[spec.scale], layers[spec.scale / 2], large / small
        )
        print(f"self-time scaling exponents against world listings, "
              f"{small} (scale {spec.scale / 2:g}) -> {large} (scale {spec.scale:g}):")
        for layer, exponent in sorted(exponents.items()):
            flag = "  SUPER-LINEAR" if exponent > tracing.SCALING_LIMIT else ""
            print(f"  {layer:12} self {layers[spec.scale / 2][layer]['self_s']:8.3f} s -> "
                  f"{layers[spec.scale][layer]['self_s']:8.3f} s  exponent {exponent:6.2f}{flag}")
        zero = tracing.zero_call_entries(rows, workload)
        serving = {}
        attempted = traced_job["requests"] + sum(j["requests"] for j in plain)
        failed = traced_job["failed"] + sum(j["failed"] for j in plain)
        record = common.run_record(workload, seed, spec.scale, True)
        studies.cleanup()
    if zero:
        raise CheckFailed(f"entry points with zero calls on {workload}: {', '.join(zero)}")
    common.emit(record, attempted, failed, tracing.per_layer_metrics(rows, serving))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_source()
    common.pin_hash_seed(sys.argv)
    speed.pin()
    try:
        if args.trace:
            traced(args.workload, args.seed, args.seconds)
        else:
            end_to_end(args.workload, args.seed, args.seconds)
    except CheckFailed as exc:
        common.emit_failure(str(exc))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
