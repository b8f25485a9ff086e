"""One workload in one process: set up, measure, check against the reference.

``run.py`` starts this module's :func:`child_main` in a fresh process per
workload (``run.py child ...``).  The clock for ``setup_s`` starts before
``repro`` is imported and stops at the first timed request; loading the
reference digests comes after it.  Every timed request's final store is
digested outside its timed interval and compared, after the measurement,
with the interpreter's digest of the same input.  The host-speed probe
(:mod:`perfbench.calibrate`) runs after set-up and between timed
requests, never inside a timed interval.

:func:`run` is importable so the benchmark's own tests can drive a tiny
profile in-process (``on_result`` lets a test tamper with a result).
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from perfbench import calibrate, digests, programs, stats, tracing


class EngineMissing(RuntimeError):
    """The native backend resolved to no engine; numbers would be meaningless."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> Dict[str, object]:
    import numpy
    from repro.codegen import native

    engine = native.resolve_engine()
    if engine is None:
        raise EngineMissing("the native engine resolves to none (no C compiler or numba)")
    flavor = ("openmp" if native.openmp_supported() else "pthreads") if engine == "cc" else "prange"
    return {
        "engine": engine,
        "driver_flavor": flavor,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
    }


class Outcomes:
    """What the timed window produced, checked after the window closes."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.starts: List[float] = []  # perf_counter() when each request began or was due
        self.completions: List[float] = []
        self.outputs: List[tuple] = []  # (request, digest)
        self.errors: List[str] = []
        self.ledger: Counter = Counter()
        self.lateness: List[float] = []

    def record(self, request, start: float, latency: float, result, digest) -> None:
        self.starts.append(start)
        self.latencies.append(latency)
        self.ledger[f"{result.backend}|{result.engine}"] += 1
        self.outputs.append((request, digest))

    def failure(self, exc: BaseException) -> None:
        self.errors.append(f"{type(exc).__name__}: {exc}")


def _counters(session, gateway=None) -> Dict[str, int]:
    from repro.codegen.native import kernel_cache_info

    cache = session.cache.stats
    backend = session.executor.backend.stats
    counters = {
        "analysis_hits": cache.hits,
        "analysis_misses": cache.misses,
        "builds": int(kernel_cache_info()["builds"]),
        "native_runs": int(backend["native_runs"]),
        "fallback_runs": int(backend["fallback_runs"]),
        "submitted": 0,
        "result_hits": 0,
        "coalesced": 0,
    }
    if gateway is not None:
        snapshot = gateway.stats()
        counters.update(
            submitted=snapshot.submitted,
            result_hits=snapshot.result_hits,
            coalesced=snapshot.coalesced,
        )
    return counters


class Runner:
    """Set-up and teardown shared by the closed- and open-loop runners."""

    def __init__(self, workload: str, seed: int, profile: str, part: int, on_result=None):
        self.workload = workload
        self.warmups = programs.warmup_requests(workload, profile)
        self.on_result = on_result
        self.session = None
        self.gateway = None
        self._cache_env: Optional[str] = None

    def setup(self) -> None:
        from repro.api import Session

        self.session = Session(backend="native", mode="serial")
        for request in self.warmups:
            self.session.run(request.text, initializer=request.initializer)
        if self.workload == "cold_stream":
            # The timed stream compiles into an empty kernel directory.
            self._cache_env = os.environ.get("REPRO_NATIVE_CACHE")
            os.environ["REPRO_NATIVE_CACHE"] = os.path.join(self._cache_env or ".", "timed")

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        if self._cache_env is not None:
            os.environ["REPRO_NATIVE_CACHE"] = self._cache_env


#: Time to the next arrival the served generator needs to run a probe
#: (a warm-up and a timed probe, ~3 ms on a 2-vCPU host, with room to spare).
PROBE_ROOM_S = 0.03
#: A closed-loop window ends after this many times ``--seconds`` of wall
#: clock even when the host runs too slowly to fill it at reference speed.
WALL_CAP = 1.5


class ClosedLoop(Runner):
    """One caller, next request after the previous one returns."""

    def __init__(self, workload: str, seed: int, profile: str, part: int, on_result=None):
        super().__init__(workload, seed, profile, part, on_result)
        self.stream = programs.request_stream(workload, seed, profile, part)
        self.round = programs.STREAM_ROUND[workload]

    def measure(self, seconds: float, outcomes: Outcomes, recorder, probes) -> float:
        """Time requests until they add up to ``seconds`` at the reference speed.

        Counting the window in reference-speed seconds gives a run the same
        number of requests however fast the host runs, so the tail lies at
        the same percentile in every run; ``WALL_CAP`` bounds the wall time
        on a slow host.  The window then runs on to the end of a round.
        """
        spent = scaled = 0.0
        sent = 0
        while (scaled < seconds and spent < WALL_CAP * seconds) or sent % self.round:
            sent += 1
            request = next(self.stream)
            start = time.perf_counter()
            try:
                result = self.session.run(request.text, initializer=request.initializer)
            except Exception as exc:  # a failed request is counted, not fatal
                result = None
                outcomes.failure(exc)
            elapsed = time.perf_counter() - start
            spent += elapsed
            probes.top_up(spent)
            scaled += elapsed * probes.speed_at(start)
            if result is None:
                continue
            if self.on_result is not None:
                self.on_result(result)
            outcomes.record(request, start, elapsed, result, digests.store_digest(result.store))
        return spent


class Served(Runner):
    """Open loop: requests sent on a fixed schedule, timed from their due time."""

    def __init__(self, workload: str, seed: int, profile: str, part: int, on_result=None):
        super().__init__(workload, seed, profile, part, on_result)
        self.seed, self.profile, self.part = seed, profile, part

    def setup(self) -> None:
        from repro.gateway import Gateway

        super().setup()
        self.gateway = Gateway(
            self.session, exec_workers=nproc(), analysis_workers=1,
            result_cache=programs.SERVED_RESULT_CACHE,
        )

    def measure(self, seconds: float, outcomes: Outcomes, recorder, probes) -> float:
        return asyncio.run(self._serve(seconds, outcomes, recorder, probes))

    async def _serve(self, seconds: float, outcomes: Outcomes, recorder, probes) -> float:
        loop = asyncio.get_running_loop()
        if recorder is not None:
            recorder.propagate_context(loop)
        checker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="perfbench-check")

        async def one(gateway, request, due: float) -> None:
            try:
                result = await gateway.submit(request.text, initializer=request.initializer)
            except Exception as exc:  # counted in error_rate
                outcomes.failure(exc)
                return
            done = time.perf_counter()
            outcomes.completions.append(done)
            if self.on_result is not None:
                self.on_result(result)
            digest = await loop.run_in_executor(checker, digests.store_digest, result.store)
            outcomes.record(request, due, done - due, result, digest)

        try:
            async with self.gateway as gateway:
                tasks: List[asyncio.Future] = []
                start = due = time.perf_counter()
                for gap, request in self._arrivals(seconds):
                    due += gap
                    delay = due - time.perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    outcomes.lateness.append(max(0.0, time.perf_counter() - due))
                    tasks.append(asyncio.ensure_future(one(gateway, request, due)))
                    # Probe once every response is out, if the next arrival
                    # leaves room: the probe holds the event loop.
                    pending = [task for task in tasks if not task.done()]
                    room = due + gap - PROBE_ROOM_S - time.perf_counter()
                    if pending and room > 0:
                        _, pending = await asyncio.wait(pending, timeout=room)
                    if not pending and due + gap - time.perf_counter() > PROBE_ROOM_S:
                        probes.run()
                await asyncio.gather(*tasks)
                self.final_counters = _counters(self.session, gateway)
        finally:
            checker.shutdown(wait=True)
        return max(outcomes.completions, default=start) - start


    def _arrivals(self, seconds: float):
        """This part's arrivals: the next ``seconds`` worth of the seed's stream.

        The parts of a run take consecutive stretches of one stream, so
        together they send the same stratified mix as one long window.
        """
        count = max(1, round(seconds * programs.PROFILES[self.profile]["served_rate"]))
        stream = programs.arrival_stream(self.seed, self.profile)
        return itertools.islice(stream, self.part * count, (self.part + 1) * count)


RUNNERS = {
    "warm_ex41": ClosedLoop,
    "cold_stream": ClosedLoop,
    "full_rank": ClosedLoop,
    "served": Served,
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run(
    workload: str,
    seed: int,
    seconds: float,
    *,
    part: int = 0,
    trace: bool = False,
    profile: str = "full",
    on_result: Optional[Callable] = None,
) -> Dict[str, object]:
    """Set up, measure and check one part of a run; returns its raw result."""
    runner = RUNNERS[workload](workload, seed, profile, part, on_result)
    setup_start = time.perf_counter()
    try:
        import repro  # noqa: F401  (importing is part of set-up)

        environment = _environment()
        runner.setup()
        setup_s = time.perf_counter() - setup_start
        setup_probes = calibrate.Probes()
        setup_probes.run(calibrate.SETUP_PROBES)
        before = _counters(runner.session, runner.gateway)
        recorder = tracing.SpanRecorder().install() if trace else None
        outcomes = Outcomes()
        probes = calibrate.Probes()
        try:
            timed = runner.measure(seconds, outcomes, recorder, probes)
        finally:
            if recorder is not None:
                recorder.uninstall()
        if not probes.times:  # a generator that never had room to probe
            probes = setup_probes
        peak_rss_mb = _peak_rss_mb()
        after = getattr(runner, "final_counters", None) or _counters(runner.session)
    finally:
        runner.close()

    committed = digests.load_committed()
    references, computed = digests.references_for(
        (request for request, _ in outcomes.outputs), committed
    )
    mismatched = sum(
        not digests.same_output(digest, references[digests.input_key(request)])
        for request, digest in outcomes.outputs
    )
    raw_ms = [value * 1e3 for value in outcomes.latencies]
    latencies_ms = [
        value * probes.speed_at(start) for value, start in zip(raw_ms, outcomes.starts)
    ]
    # A closed loop's window is the sum of its requests, scaled like them;
    # an open loop's is set by the arrival schedule in wall-clock time.
    scaled = timed if workload == "served" else timed * _ratio(sum(latencies_ms), sum(raw_ms))
    delta = {name: after[name] - before[name] for name in before}
    result: Dict[str, object] = {
        "environment": environment,
        "attempted": len(outcomes.latencies) + len(outcomes.errors),
        "failed": len(outcomes.errors) + mismatched,
        "mismatched": mismatched,
        "errors": outcomes.errors[:5],
        "references_computed": computed,
        "setup_s": setup_s,
        "setup_speed": setup_probes.speed(),
        "speed": probes.speed() if probes.times else 1.0,
        "probes": len(probes.times),
        "timed_s": timed,
        "scaled_s": scaled,
        "latencies_ms": latencies_ms,
        "raw_ms": raw_ms,
        "peak_rss_mb": peak_rss_mb,
        "ledger": dict(outcomes.ledger),
        "counters": delta,
        "lateness_ms": [value * 1e3 for value in outcomes.lateness],
    }
    if recorder is not None:
        profiles = tracing.request_profiles(recorder.spans)
        result["layers"] = {
            "core.cache_hit_ratio": _ratio(
                delta["analysis_hits"], delta["analysis_hits"] + delta["analysis_misses"]
            ),
            "codegen.builds": float(delta["builds"]),
            "runtime.native_share": _ratio(
                delta["native_runs"], delta["native_runs"] + delta["fallback_runs"]
            ),
            "gateway.result_hit_ratio": _ratio(delta["result_hits"], delta["submitted"]),
            "gateway.coalesced_ratio": _ratio(delta["coalesced"], delta["submitted"]),
            **tracing.layer_metrics(profiles),
        }
        result["traced_requests"] = len(profiles)
        result["unmatched_spans"] = recorder.unattributed()
        result["attribution_gap_ms"] = tracing.attribution_gap_ms(profiles)
        result["wall_p50_ms"] = (
            statistics.median(profile.wall_ns for profile in profiles) / 1e6 if profiles else 0.0
        )
    return result


def _order_stats(values: List[float]) -> Dict[str, float]:
    percentile, tail = stats.tail(values) if values else (50.0, 0.0)
    return {
        "latency_p50_ms": statistics.median(values) if values else 0.0,
        "latency_tail_ms": tail,
        "tail_percentile": percentile,
    }


def summarize(parts: List[Dict[str, object]]) -> Dict[str, object]:
    """Pool the requests of a run's measuring processes into its metrics.

    Latency order statistics and throughput come from all requests of
    all parts together; ``setup_s`` and ``peak_rss_mb`` are the medians
    over the parts (each part sets up the system once).
    """
    latencies = [value for part in parts for value in part["latencies_ms"]]
    raw = [value for part in parts for value in part["raw_ms"]]
    correct = len(latencies) - sum(part["mismatched"] for part in parts)
    attempted = sum(part["attempted"] for part in parts)
    failed = sum(part["failed"] for part in parts)
    lateness = [value for part in parts for value in part["lateness_ms"]]
    ledger: Counter = Counter()
    counters: Counter = Counter()
    for part in parts:
        ledger.update(part["ledger"])
        counters.update(part["counters"])
    return {
        **_order_stats(latencies),
        "samples": len(latencies),
        "throughput_rps": _ratio(correct, sum(part["scaled_s"] for part in parts)),
        "raw": {
            **_order_stats(raw),
            "throughput_rps": _ratio(correct, sum(part["timed_s"] for part in parts)),
        },
        "attempted": attempted,
        "failed": failed,
        "mismatched": sum(part["mismatched"] for part in parts),
        "error_rate": _ratio(failed, attempted),
        "errors": [error for part in parts for error in part["errors"]][:5],
        "references_computed": sum(part["references_computed"] for part in parts),
        "setup_s": statistics.median(part["setup_s"] * part["setup_speed"] for part in parts),
        "peak_rss_mb": statistics.median(part["peak_rss_mb"] for part in parts),
        "probe_ms": statistics.median(
            calibrate.REFERENCE_PROBE_S / part["speed"] * 1e3 for part in parts
        ),
        "probes": sum(part["probes"] for part in parts),
        "ledger": dict(ledger),
        "counters": dict(counters),
        "lateness_ms": {
            "median": statistics.median(lateness) if lateness else 0.0,
            "max": max(lateness, default=0.0),
        },
    }


def child_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py child")
    parser.add_argument("--workload", required=True, choices=programs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--profile", default="full", choices=sorted(programs.PROFILES))
    parser.add_argument("--part", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        result = run(
            args.workload, args.seed, args.seconds, trace=bool(args.trace),
            part=args.part, profile=args.profile,
        )
    except EngineMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0
