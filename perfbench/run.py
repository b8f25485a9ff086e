"""The repository's end-to-end benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload warm_ex41 --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus ``trace.overhead_ratio`` against an untraced
run of the same seed).  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workloads: ``warm_ex41``, ``cold_stream``,
``full_rank``, ``served`` (see ``programs.py`` and ``BENCHMARK.json``).

Each measurement runs in a fresh process with a pinned environment:
``PYTHONPATH=src``, ``REPRO_WORKERS`` and ``OMP_NUM_THREADS`` set to the
number of usable CPUs, and a private, initially empty
``REPRO_NATIVE_CACHE`` under ``.bench_work/``.  An untraced run is three
such processes in turn; each sets up the system (``setup_s`` is the
median of the three set-ups) and measures a third of ``--seconds``, and
the metrics pool their requests, so that no one process's luck (memory
layout, the moment it ran) sets them.  ``PYTHONHASHSEED`` is pinned too.
End-to-end times and closed-loop rates are reported at the reference
host speed (see ``calibrate.py``): each request's time is scaled by the
host-speed probes timed around it in the same process, so that a host
running slower or faster for a while does not read as a change of the
program.  The unscaled numbers are printed too; per-layer times are
unscaled.
The run fails, printing no result, when ``src/repro`` is missing or the
native engine resolves to none.

``--workload all`` runs the four in turn, each block ending in its own
JSON line.

Sub-commands::

    python3 perfbench/run.py reference --workload all --write   # digests
    python3 perfbench/run.py steadiness --runs 10               # spreads
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import measure, programs  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_rps": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "loopnest.parse_ms": "ms",
    "core.analyze_ms": "ms",
    "core.cache_hit_ratio": "ratio",
    "codegen.transform_ms": "ms",
    "codegen.compile_ms": "ms",
    "codegen.builds": "count",
    "codegen.pack_ms": "ms",
    "plan.build_ms": "ms",
    "plan.passes_ms": "ms",
    "plan.chunk_sizes_ms": "ms",
    "plan.chunks": "count",
    "runtime.store_ms": "ms",
    "runtime.execute_ms": "ms",
    "runtime.kernel_ms": "ms",
    "runtime.fallback_ms": "ms",
    "runtime.native_share": "ratio",
    "runtime.telemetry_ms": "ms",
    "runtime.balance_ms": "ms",
    "api.unattributed_ms": "ms",
    "api.attributed_share": "ratio",
    "gateway.wait_ms": "ms",
    "gateway.result_hit_ratio": "ratio",
    "gateway.coalesced_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
#: Measuring processes per run: each sets up once and measures its share
#: of ``--seconds``; their requests are pooled.
PARTS = 3
#: Whole-run budget; every child is killed when it runs out.
DEADLINE_S = 170.0
WORK_DIR = ".bench_work"


class BenchmarkFailed(RuntimeError):
    pass


def _compiler_version() -> str:
    compiler = os.environ.get("CC") or "cc"
    try:
        output = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return output.splitlines()[0] if output else "unavailable"


def pinned_env(cache_dir: str) -> Dict[str, str]:
    cpus = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    source = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_WORKERS"] = cpus
    env["OMP_NUM_THREADS"] = cpus
    env["REPRO_NATIVE_CACHE"] = cache_dir
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: List[str], cache_dir: str, deadline: float) -> Dict[str, object]:
    """Run ``run.py child ...`` in a fresh process; return its JSON result."""
    os.makedirs(cache_dir, exist_ok=True)
    process = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "child", *args],
        cwd=os.getcwd(),
        env=pinned_env(cache_dir),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkFailed(f"child {' '.join(args)} ran past the deadline")
    finally:
        if process.poll() is None:  # interrupted: leave nothing running
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0:
        raise BenchmarkFailed(
            f"child {' '.join(args)} exited {process.returncode}:\n{stderr.strip()}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def benchmark(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from a full checkout", file=sys.stderr)
        return 2
    work = os.path.join(os.getcwd(), WORK_DIR, f"{args.workload}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--profile", args.profile]
    try:
        if args.trace:
            full = ["--seconds", str(args.seconds)]
            plain_part = run_child([*common, *full], os.path.join(work, "plain"), deadline)
            traced = run_child([*common, *full, "--trace", "1"], os.path.join(work, "traced"), deadline)
            parts = [traced]
            plain = measure.summarize([plain_part])
        else:
            share = ["--seconds", str(args.seconds / PARTS)]
            parts = [
                run_child([*common, *share, "--part", str(k)], os.path.join(work, f"part{k}"), deadline)
                for k in range(PARTS)
            ]
        main = measure.summarize(parts)
    except BenchmarkFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))  # only when no other run is using it
        except OSError:
            pass

    environment = dict(parts[0]["environment"], cc=_compiler_version(), seed=args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    counters = main["counters"]
    print(
        "engine ledger (RunResult backend|engine: requests) "
        + json.dumps(main["ledger"], sort_keys=True)
        + f"  NativeBackend.stats native_runs={counters['native_runs']}"
        f" fallback_runs={counters['fallback_runs']}"
    )
    print(
        f"checked {main['attempted']} request(s) against interpreter digests: "
        f"{main['failed']} failed ({main['mismatched']} mismatched), "
        f"error_rate {_fmt(main['error_rate'])}, "
        f"{main['references_computed']} reference(s) computed on demand"
    )
    if main["errors"]:
        print("errors: " + "; ".join(main["errors"]))
    if args.workload == "served":
        print(
            f"generator lateness: median {_fmt(main['lateness_ms']['median'])} ms,"
            f" max {_fmt(main['lateness_ms']['max'])} ms"
        )

    raw = main["raw"]
    print(
        f"host speed: probe median {_fmt(main['probe_ms'])} ms"
        f" over {main['probes']} probes, reference {_fmt(measure.calibrate.REFERENCE_PROBE_S * 1e3)} ms;"
        f" unscaled latency_p50 {_fmt(raw['latency_p50_ms'])} ms, latency_tail"
        f" {_fmt(raw['latency_tail_ms'])} ms, throughput {_fmt(raw['throughput_rps'])} 1/s"
    )
    metrics: Dict[str, float] = {}
    if args.trace:
        metrics.update({name: traced["layers"][name] for name in PER_LAYER if name in traced["layers"]})
        metrics["trace.overhead_ratio"] = (
            main["latency_p50_ms"] / plain["latency_p50_ms"] if plain["latency_p50_ms"] else 0.0
        )
        print(
            f"traced {traced['traced_requests']} request(s): median wall "
            f"{_fmt(traced['wall_p50_ms'])} ms; layer self times + api.unattributed_ms "
            f"match each request's wall within {_fmt(traced['attribution_gap_ms'])} ms"
        )
        if traced["unmatched_spans"]:
            print("spans matched to no request (name: count, total ms) " + json.dumps(
                {name: [count, round(ms, 3)] for name, (count, ms) in traced["unmatched_spans"].items()}
            ))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": main["setup_s"],
            "latency_p50_ms": main["latency_p50_ms"],
            "latency_tail_ms": main["latency_tail_ms"],
            "throughput_rps": main["throughput_rps"],
            "success_rate": 1.0 - main["error_rate"],
            "peak_rss_mb": main["peak_rss_mb"],
        }
        units = END_TO_END
    notes = {
        "setup_s": f"median of {len(parts)} set-ups, unscaled " + ", ".join(
            f"{_fmt(part['setup_s'])} s at speed {_fmt(part['setup_speed'])}" for part in parts
        ),
        "latency_tail_ms": f"p{main['tail_percentile']:.1f} of {main['samples']} samples",
        "success_rate": f"error_rate {_fmt(main['error_rate'])}",
    }
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {_fmt(metrics[name])} {unit}{note}")
    correct = main["failed"] == 0 and (not args.trace or plain["failed"] == 0)
    print(json.dumps({
        "correct": correct,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "child":
        sys.path.insert(1, os.path.join(ROOT, "src"))
        return measure.child_main(argv[1:])
    if argv and argv[0] == "reference":
        sys.path.insert(1, os.path.join(ROOT, "src"))
        from perfbench import reference

        return reference.main(argv[1:])
    if argv and argv[0] == "steadiness":
        from perfbench import steadiness

        return steadiness.main(argv[1:])
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=programs.WORKLOADS + ("all",),
        help="one workload, or 'all' to run each in turn",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--profile", default="full", choices=sorted(programs.PROFILES),
        help="input sizes ('tiny' is for the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.workload != "all":
        return benchmark(args)
    status = 0
    for workload in programs.WORKLOADS:
        status = max(status, benchmark(argparse.Namespace(**{**vars(args), "workload": workload})))
        print()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
