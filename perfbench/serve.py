"""The serve-open workload: open-loop end-user traffic against a ServingTier.

The tier runs in a child process (``tier_child.py``); this process is
the load generator: one asyncio thread holding one persistent
connection per served market (two markets, so never more connections
than this host's two cores).  Requests follow the default traffic mix
(``DEFAULT_TRAFFIC_MIX``: search 5 : detail 3 : download 2) with
targets drawn in proportion to each listing's downloads in the served
world (the power law of ``repro.ecosystem.popularity``), and arrive as
a seeded Poisson stream at a set rate.  Each request is timed from the moment it was due, so a
stall also counts against the requests queued behind it.

A probe offers one rate for a fixed time.  A pinned-rate probe then
waits until every request is answered, so none is lost and a backlog
shows as latency.  An overload probe (the max-rate search, capacity)
drops what is not answered shortly after its last due time, counts it
as unfinished, and passes when nothing is unfinished or refused and p99
is within ``LIMIT_P99_S``.

Tier CPU figures are in reference seconds: the tier process times its
CPU's speed (``speed.py``).
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import time
from typing import Dict, List, Tuple

from common import BENCH_DIR, CheckFailed, ROOT, child_env, median, quantile

SCALE = 0.0005
#: The served world, and with it which apps are popular, is fixed;
#: ``--seed`` drives the request stream.  Across world seeds the handful
#: of most downloaded apps, which take most of the traffic, change, and
#: with them the tier's cost per request.
WORLD_SEED = 0
SETUP_SAMPLES = 3
#: Latency limit of the max-rate search, on p99 measured from due time.
LIMIT_P99_S = 0.010
#: Geometric search range of ``max_rps``: five bisection steps, one
#: probe each, give a resolution of 8 ** (1 / 32), under 7%.
SEARCH_LOW_RPS = 2000.0
SEARCH_HIGH_RPS = 16000.0
SEARCH_STEPS = 5
#: Probes per pinned rate and for capacity.  Latencies and tier CPU per
#: request are their median.
VOTES = 3
#: Pinned offered rates.  On the 2-core x86 host the benchmark was
#: defined on, ``max_rps`` was about 3,500 req/s in calm hours and fell
#: to 2,100 when other tenants took a fifth of the CPU.  The low rate is
#: about a quarter of the calm figure; the high rate about two thirds of
#: the slow one, so slow hours do not push it into a backlog.
LOW_RPS = 950.0
HIGH_RPS = 1500.0
#: Rate of the warm-up probe that fills the stores' APK caches.
WARM_RPS = 2000.0
#: Shares of ``--seconds``: warm-up, one pinned-rate probe, one search
#: probe, one capacity probe (2 x 3 pinned, 5 search and 3 capacity
#: probes in all, 0.98 x ``--seconds``).  A download of an app not yet
#: in the APK cache costs tens of requests' CPU, so the probes whose CPU
#: is gated (pinned, capacity) are long enough to hold many of them.
WARM_SHARE = 0.08
PINNED_SHARE = 0.09
SEARCH_SHARE = 0.03
CAPACITY_SHARE = 0.07
#: Offered rate of the capacity probes, far above what the tier answers.
CAPACITY_RPS = 16000.0
#: Every n-th request of the pinned-rate probes is re-answered in the
#: tier process and compared byte for byte.
SAMPLE_EVERY = 20
#: After the last due time, how long an overload probe waits for answers.
GRACE_S = 0.2
#: How long a pinned-rate probe may take to answer its backlog.
DRAIN_LIMIT_S = 60.0


class Tier:
    """The serving-tier child: start, command, stop."""

    def __init__(self, seed: int, trace: bool, label: str):
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "tier_child.py"), "--seed", str(seed),
             "--scale", repr(SCALE), "--trace", str(int(trace)), "--label", label],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )
        try:
            ready = self._read()
        except BaseException:
            self.kill()
            raise
        # In reference seconds, at the tier CPU's mean speed during set-up.
        self.setup_s = (time.perf_counter() - start) * ready["speed"]
        self.setup_cpu_s: float = ready["cpu_s"] * ready["speed"]
        self.ports: Dict[str, int] = ready["ports"]
        self.catalogs: Dict[str, List[list]] = ready["catalogs"]

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise CheckFailed("tier process exited without answering")
        return json.loads(line)

    def command(self, name: str, **fields) -> dict:
        self.process.stdin.write(json.dumps(dict(fields, cmd=name)) + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> None:
        try:
            self.command("stop")
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ---------------------------------------------------------------------------
# traffic
# ---------------------------------------------------------------------------


class Traffic:
    """Seeded request streams over the served markets' catalogs.

    A listing is the target of a request with probability proportional
    to its downloads, as the served world records them.
    """

    def __init__(self, seed: int, catalogs: Dict[str, List[list]]):
        self.seed = seed
        self.markets = sorted(catalogs)
        self.catalogs = {m: catalogs[m] for m in self.markets}
        self.cumulative = {
            m: list(itertools.accumulate(downloads for _p, _n, downloads in catalogs[m]))
            for m in self.markets
        }

    def schedule(self, rate: float, seconds: float, salt: str) -> List[tuple]:
        """``(due_s, market, path, params)`` for one probe, due-ordered."""
        from repro.serving.loadgen import DEFAULT_TRAFFIC_MIX

        rng = random.Random(f"traffic:{self.seed}:{salt}")
        plan, due = [], 0.0
        while True:
            due += rng.expovariate(rate)
            if due >= seconds:
                return plan
            market = self.markets[rng.randrange(len(self.markets))]
            cumulative = self.cumulative[market]
            pick = bisect.bisect_right(cumulative, rng.random() * cumulative[-1])
            package, app_name, _downloads = self.catalogs[market][pick]
            kind = DEFAULT_TRAFFIC_MIX.pick(rng.random())
            if kind == "search":
                plan.append((due, market, "/search", {"q": app_name}))
            elif kind == "detail":
                plan.append((due, market, "/app", {"package": package}))
            else:
                plan.append((due, market, "/download", {"package": package}))


class ProbeResult:
    def __init__(self, rate: float, due: int):
        self.rate = rate
        self.due = due
        self.latencies: List[float] = []
        self.lateness: List[float] = []
        self.conn_wait: List[float] = []
        self.refused = 0
        self.undecodable = 0
        self.samples: List[list] = []
        #: Tier-process CPU spent while the probe ran, in reference seconds.
        self.tier_cpu_s = 0.0

    @property
    def failed(self) -> int:
        return self.due - len(self.latencies)

    def percentile(self, q: float) -> float:
        """Latency percentile over every due request; a request refused,
        undecodable or unfinished counts as infinitely late."""
        values = sorted(self.latencies) + [math.inf] * self.failed
        return quantile(values, q)

    @property
    def passed(self) -> bool:
        return self.failed == 0 and self.percentile(0.99) <= LIMIT_P99_S


class Generator:
    """The load-generating side: persistent connections, open-loop probes."""

    def __init__(self, ports: Dict[str, int]):
        self.ports = ports
        self.loop = asyncio.new_event_loop()
        self.conns: Dict[str, tuple] = {}

    def close(self) -> None:
        async def shut():
            for _reader, writer in self.conns.values():
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, ConnectionError):
                    pass

        try:
            self.loop.run_until_complete(shut())
        finally:
            self.loop.close()

    def run(self, schedule: List[tuple], rate: float, seconds: float,
            sample: bool = False, drain: bool = False) -> ProbeResult:
        """Offer ``schedule``; with ``drain``, wait for every answer."""
        grace = DRAIN_LIMIT_S if drain else GRACE_S
        return self.loop.run_until_complete(
            self._probe(schedule, rate, seconds, sample, grace))

    async def _connect(self) -> None:
        for market, port in self.ports.items():
            if market not in self.conns:
                self.conns[market] = await asyncio.open_connection("127.0.0.1", port)

    async def _probe(self, schedule, rate, seconds, sample, grace) -> ProbeResult:
        from repro.net.http import Request
        from repro.net.transport import (
            TransportError, decode_response, encode_request, pack_frame, read_frame,
        )

        await self._connect()
        loop = asyncio.get_running_loop()
        result = ProbeResult(rate, len(schedule))
        queues = {m: asyncio.Queue() for m in self.conns}
        finished = asyncio.Event()
        outstanding = [len(schedule)]

        def settle() -> None:
            outstanding[0] -= 1
            if outstanding[0] == 0:
                finished.set()

        async def sender(market: str) -> None:
            reader, writer = self.conns[market]
            queue = queues[market]
            while True:
                item = await queue.get()
                if item is None:
                    return
                due_at, ordinal, path, params = item
                result.conn_wait.append(loop.time() - due_at)
                writer.write(pack_frame(encode_request(Request(path, params, {}))))
                payload = await read_frame(reader)
                done = loop.time()
                try:
                    response = decode_response(payload)
                except (TransportError, ValueError):  # wire errors are ValueErrors
                    result.undecodable += 1
                    settle()
                    continue
                if response.status != 200:
                    result.refused += 1
                else:
                    result.latencies.append(done - due_at)
                if sample and ordinal % SAMPLE_EVERY == 0:
                    result.samples.append(
                        [market, path, params, hashlib.sha1(payload).hexdigest()]
                    )
                settle()

        senders = [loop.create_task(sender(m)) for m in self.conns]
        start = loop.time() + 0.005
        for ordinal, (due, market, path, params) in enumerate(schedule):
            due_at = start + due
            delay = due_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            result.lateness.append(max(0.0, loop.time() - due_at))
            queues[market].put_nowait((due_at, ordinal, path, params))
        if schedule:
            try:
                await asyncio.wait_for(
                    finished.wait(), max(0.0, start + seconds + grace - loop.time())
                )
            except asyncio.TimeoutError:
                pass
        for queue in queues.values():
            while not queue.empty():
                queue.get_nowait()
            queue.put_nowait(None)
        # At most one exchange per connection is still in flight; let it
        # finish so the connection stays aligned on frame boundaries.
        done, pending = await asyncio.wait(senders, timeout=30)
        for task in pending:
            task.cancel()
        for task in done:
            task.result()
        if pending:
            raise CheckFailed("a connection did not answer within 30 s")
        return result


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def setup_tiers(seed: int, trace: bool,
                samples: int) -> Tuple[Tier, List[float], List[float]]:
    """Start the tier ``samples`` times; keep the last one running.

    Returns it with each start's wall time and tier-process CPU time.
    """
    times, cpu = [], []
    for index in range(samples - 1):
        tier = Tier(WORLD_SEED, False, f"setup{index}")
        times.append(tier.setup_s)
        cpu.append(tier.setup_cpu_s)
        tier.stop()
    tier = Tier(WORLD_SEED, trace, f"serve-open-seed{seed}")
    times.append(tier.setup_s)
    cpu.append(tier.setup_cpu_s)
    return tier, times, cpu


def search_max_rps(gen: Generator, traffic: Traffic, probe_s: float) -> Tuple[float, List[ProbeResult]]:
    """Geometric bisection over the search range with a fixed probe count.

    Returns the requests answered per second by the probe at the highest
    rate that passed, or by the lowest-rate probe if none passed.
    """
    low, high = SEARCH_LOW_RPS, SEARCH_HIGH_RPS
    probes: List[ProbeResult] = []
    for step in range(SEARCH_STEPS):
        rate = math.sqrt(low * high)
        probe = gen.run(traffic.schedule(rate, probe_s, f"search{step}"), rate, probe_s)
        probes.append(probe)
        if probe.passed:
            low = rate
        else:
            high = rate
    passed = [p for p in probes if p.passed]
    best = max(passed, key=lambda p: p.rate) if passed else min(probes, key=lambda p: p.rate)
    return len(best.latencies) / probe_s, probes


def measured(gen: Generator, tier: Tier, schedules: List[List[tuple]], rate: float,
             probe_s: float, pinned: bool = False) -> List[ProbeResult]:
    """Run one probe per schedule; each records the tier CPU it cost.

    Pinned-rate probes are sampled for the byte check and drained.
    """
    probes = []
    for schedule in schedules:
        before = tier.command("stats")
        probe = gen.run(schedule, rate, probe_s, sample=pinned, drain=pinned)
        after = tier.command("stats", since=before["t"])
        probe.tier_cpu_s = (after["cpu_s"] - before["cpu_s"]) * after["speed"]
        probes.append(probe)
    return probes


def pinned(gen: Generator, tier: Tier, traffic: Traffic, rate: float, probe_s: float,
           label: str) -> List[ProbeResult]:
    schedules = [traffic.schedule(rate, probe_s, f"{label}{i}") for i in range(VOTES)]
    return measured(gen, tier, schedules, rate, probe_s, pinned=True)


def capacity(gen: Generator, tier: Tier, traffic: Traffic,
             probe_s: float) -> List[ProbeResult]:
    """``VOTES`` probes offering far more than the tier answers."""
    schedules = [traffic.schedule(CAPACITY_RPS, probe_s, f"capacity{i}")
                 for i in range(VOTES)]
    return measured(gen, tier, schedules, CAPACITY_RPS, probe_s)


def _service_ms(probes: List[ProbeResult]) -> float:
    """Tier CPU milliseconds (reference) per answered request, median probe."""
    return median([p.tier_cpu_s * 1000.0 / len(p.latencies) for p in probes])


def _median_of(probes: List[ProbeResult], q: float) -> float:
    return median([p.percentile(q) for p in probes])


def check_probe(probe: ProbeResult, tier: Tier) -> None:
    if probe.undecodable:
        raise CheckFailed(f"{probe.undecodable} responses did not decode")
    if probe.refused:
        raise CheckFailed(f"{probe.refused} requests were refused at {probe.rate:g} req/s")
    if probe.samples:
        mismatches = tier.command("verify", samples=probe.samples)["mismatches"]
        if mismatches:
            raise CheckFailed(
                f"{mismatches} of {len(probe.samples)} sampled responses differ "
                "from the in-process MarketServer.handle answer"
            )


def run(seed: int, seconds: float) -> Dict[str, object]:
    """Untraced run: set-up, max-rate search, pinned low and high rates."""
    tier, setup_times, setup_cpu = setup_tiers(seed, False, SETUP_SAMPLES)
    gen = None
    try:
        traffic = Traffic(seed, tier.catalogs)
        gen = Generator(tier.ports)
        warm_s = WARM_SHARE * seconds
        gen.run(traffic.schedule(WARM_RPS, warm_s, "warm"), WARM_RPS, warm_s)
        low = pinned(gen, tier, traffic, LOW_RPS, PINNED_SHARE * seconds, "low")
        high = pinned(gen, tier, traffic, HIGH_RPS, PINNED_SHARE * seconds, "high")
        # Overload probes go last: a backlog they leave must not reach
        # the pinned-rate probes.
        max_rps, search = search_max_rps(gen, traffic, SEARCH_SHARE * seconds)
        saturated = capacity(gen, tier, traffic, CAPACITY_SHARE * seconds)
        peak_rss = tier.command("stats")["peak_rss_mib"]
        for probe in low + high:
            check_probe(probe, tier)
        for probe in search + saturated:
            if probe.undecodable:
                raise CheckFailed(f"{probe.undecodable} responses did not decode")
    finally:
        if gen is not None:
            gen.close()
        tier.stop()
    due = sum(p.due for p in low + high)
    failed = sum(p.failed for p in low + high)
    lateness = sorted(x for p in low + high for x in p.lateness)
    return {
        "setup_s": median(setup_times),
        "max_rps": max_rps,
        # Requests answered per second while offered far more: the rate
        # above which the backlog grows.
        "capacity_rps": median([len(p.latencies) for p in saturated]) / (
            CAPACITY_SHARE * seconds),
        "search": [(round(p.rate), int(p.passed)) for p in search],
        "p50_ms.low": _median_of(low, 0.50) * 1000,
        "p99_ms.low": _median_of(low, 0.99) * 1000,
        "p50_ms.high": _median_of(high, 0.50) * 1000,
        "p99_ms.high": _median_of(high, 0.99) * 1000,
        "samples.low": [p.due for p in low],
        "samples.high": [p.due for p in high],
        "service_ms.low": _service_ms(low),
        "service_ms.high": _service_ms(high),
        "service_ms.capacity": _service_ms(saturated),
        # The same probes' answers per tier-CPU second.  Not gated: under
        # overload the tier's cost per request falls as the generator
        # feeds it faster (more frames per loop wake-up), so it moves
        # with the generator's CPU as much as with the tier's code.
        "cpu_capacity_rps": 1000.0 / _service_ms(saturated),
        # Answers per tier-CPU second over every pinned-rate probe: what
        # one whole core of tier sustains at the pinned traffic's cost.
        "cpu_rps": sum(len(p.latencies) for p in low + high)
        / sum(p.tier_cpu_s for p in low + high),
        "setup_cpu_s": median(setup_cpu),
        "probe_service_ms": {
            name: [p.tier_cpu_s * 1000.0 / len(p.latencies) for p in probes]
            for name, probes in (("low", low), ("high", high), ("capacity", saturated))
        },
        "setup_samples_s": setup_times,
        "peak_rss_mib": peak_rss,
        "lateness_p99_ms": quantile(lateness, 0.99) * 1000,
        "attempted": due,
        "failed": failed,
        "failed_share": failed / due,
    }


def run_traced(seed: int, seconds: float) -> Dict[str, object]:
    """Traced run: one high-rate probe untraced, then the same probe traced."""
    tier, _times, _cpu = setup_tiers(seed, True, 1)
    gen = None
    try:
        traffic = Traffic(seed, tier.catalogs)
        gen = Generator(tier.ports)
        probe_s = 0.4 * seconds
        warm_s = WARM_SHARE * seconds
        gen.run(traffic.schedule(WARM_RPS, warm_s, "warm"), WARM_RPS, warm_s)
        before = tier.command("stats")
        plain = gen.run(traffic.schedule(HIGH_RPS, probe_s, "high"), HIGH_RPS, probe_s,
                        sample=True, drain=True)
        middle = tier.command("stats")
        tier.command("trace_on")
        # A fresh stream: replaying the untraced one could find every
        # download already in the stores' APK caches.
        traced = gen.run(traffic.schedule(HIGH_RPS, probe_s, "traced"), HIGH_RPS, probe_s,
                         sample=True, drain=True)
        rows = tier.command("trace_off")["rows"]
        after = tier.command("stats")
        check_probe(plain, tier)
        check_probe(traced, tier)
    finally:
        if gen is not None:
            gen.close()
        tier.stop()
    return {
        "rows": rows,
        "traced_window_s": tier.setup_s + probe_s,
        "plain_cpu_s": middle["cpu_s"] - before["cpu_s"],
        "traced_cpu_s": after["cpu_s"] - middle["cpu_s"],
        "plain_p50_ms": plain.percentile(0.5) * 1000,
        "traced_p50_ms": traced.percentile(0.5) * 1000,
        "serving": {
            "serving.tier.frames_served": after["frames_served"],
            "serving.tier.connections_accepted": after["connections_accepted"],
            "serving.conn.wait_s": quantile(sorted(traced.conn_wait), 0.99),
            "serving.generator.wait_s": quantile(sorted(traced.lateness), 0.99),
        },
        "attempted": plain.due + traced.due,
        "failed": plain.failed + traced.failed,
    }
