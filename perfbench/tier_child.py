"""Serving-tier process of the serve-open workload.

Builds the world, the market stores and servers through the public API,
starts a :class:`repro.serving.ServingTier` and prints one JSON line
with its ports and the catalogs (package, name, downloads) traffic is drawn from.  It then answers
JSON commands, one a line, on stdin:

* ``stats``: process CPU seconds, peak RSS and the tier's counters, with
  the CPU's mean speed since the time ``since`` (``speed.py``);
* ``verify``: re-answer a sample of requests in process with
  ``MarketServer.handle`` and count answers that differ from what the
  tier sent;
* ``trace_on`` / ``trace_off``: install or remove the layer wrappers
  (``--trace 1`` installs them for set-up too); ``trace_off`` replies
  with the per-entry rows;
* ``stop``: stop the tier and exit.

Run by ``serve.py``; not meant to be started by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import time

import speed
from common import cpu_seconds, peak_rss_mib, require_source, work_dir

#: Markets whose downloads are quota-limited answer 429 past the quota;
#: the workload serves only markets without one, so a refusal is never
#: counted as latency.  Traffic is weighted by downloads, so the served
#: markets must also report them.
MARKETS_SERVED = 2


def reply(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--label", default="tier")
    args = parser.parse_args()
    # The generator holds the first CPU; the tier takes the last one and
    # times it from the start, so set-up converts to reference seconds.
    speed.pin(last=True)
    sampler = speed.SpeedSampler().start()
    started = time.perf_counter()
    require_source()

    import tracing

    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer) if args.trace else None

    from repro.ecosystem.generator import EcosystemGenerator
    from repro.markets.server import MarketServer
    from repro.markets.store import build_stores
    from repro.net.http import Request
    from repro.net.transport import encode_response
    from repro.serving import ServingTier
    from repro.util.simtime import SimClock

    world = EcosystemGenerator(seed=args.seed, scale=args.scale).generate()
    stores = build_stores(world)
    clock = SimClock()
    servers = {m: MarketServer(store, clock) for m, store in stores.items()}
    tier = ServingTier(servers).start()
    if installed is not None:
        installed.remove()
        installed = None

    sizes = sorted(
        ((sum(1 for _ in servers[m].store.iter_live(clock.now)), m)
         for m in servers
         if not servers[m].quota_limited and servers[m].store.profile.reports_downloads),
        reverse=True,
    )
    markets = [m for _size, m in sizes[:MARKETS_SERVED]]
    # Each listing's downloads as the world holds them: exact counts
    # even where the market shows only an install range.
    catalogs = {
        m: [[l.package, l.app_name, world.app(l.app_id).placements[m].downloads]
            for l in servers[m].store.iter_live(clock.now)]
        for m in markets
    }
    reply({
        "ready": True,
        "cpu_s": cpu_seconds(),
        "speed": sampler.factor(started, time.perf_counter()),
        "ports": {m: tier.address(m)[1] for m in markets},
        "catalogs": catalogs,
    })

    try:
        for line in sys.stdin:
            command = json.loads(line)
            name = command["cmd"]
            if name == "stats":
                now = time.perf_counter()
                reply({
                    "t": now,
                    "speed": sampler.factor(command.get("since", now), now),
                    "cpu_s": cpu_seconds(),
                    "peak_rss_mib": peak_rss_mib(),
                    "frames_served": tier.total_frames_served,
                    "connections_accepted": sum(tier.connections_accepted.values()),
                })
            elif name == "verify":
                mismatches = 0
                for market_id, path, params, digest in command["samples"]:
                    response = servers[market_id].handle(Request(path, params, {}))
                    expected = hashlib.sha1(encode_response(response)).hexdigest()
                    mismatches += expected != digest
                reply({"mismatches": mismatches})
            elif name == "trace_on":
                if installed is None:
                    installed = tracing.Installation(tracer)
                reply({"ok": True})
            elif name == "trace_off":
                if installed is not None:
                    installed.remove()
                    installed = None
                rows = tracing.entry_rows(tracer)
                tracer.write(str(work_dir("traces") / f"{args.label}.jsonl"))
                reply({"rows": rows})
            elif name == "stop":
                break
    finally:
        if installed is not None:
            installed.remove()
        tier.stop()
        sampler.stop()
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
