"""The benchmark's own tests (not collected by the repository's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

* a tiny-N smoke of every workload, untraced and traced, asserting that
  every metric named in ``BENCHMARK.json`` is printed with its unit;
* self-time arithmetic on synthetic span trees, and the recorder's
  request/parent bookkeeping across threads;
* a run whose returned stores the test tampers with must report errors;
* the host-speed probes: local speed factors and the probing budget.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
import threading

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [path for path in (ROOT, os.path.join(ROOT, "src")) if path not in sys.path]

from perfbench import calibrate, measure, programs, stats, tracing  # noqa: E402
from perfbench.tracing import Span  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", programs.WORKLOADS)
def test_tiny_smoke_prints_every_metric_with_its_unit(workload, trace):
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in expected}
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
        pattern = rf"^metric {re.escape(metric['name'])} = \S+ {re.escape(metric['unit'])}\b"
        assert any(re.match(pattern, line) for line in lines), metric["name"]
    assert any(line.startswith("engine ledger") for line in lines)


def _span(span_id, parent, start, end, name="x", rid=1):
    return Span(span_id, parent, rid, name, start, end)


def test_self_time_subtracts_children_and_nested_grandchildren():
    spans = [
        _span(1, None, 0, 100, tracing.ROOT),
        _span(2, 1, 10, 40, "a"),
        _span(3, 2, 20, 30, "b"),
        _span(4, 1, 50, 90, "c"),
    ]
    assert tracing.self_times(spans) == {1: 30, 2: 20, 3: 10, 4: 40}
    [profile] = tracing.request_profiles(spans)
    assert profile.wall_ns == 100 and profile.root_self_ns == 30
    assert profile.layers == {"a": 20, "b": 10, "c": 40}
    assert tracing.attribution_gap_ms([profile]) == 0.0


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        _span(1, None, 0, 100, tracing.ROOT),
        _span(2, 1, 50, 90, "a"),
        _span(3, 1, 60, 95, "b"),  # overlaps a, as on another thread
        _span(4, 1, 90, 120, "c"),  # runs past its parent's end
    ]
    own = tracing.self_times(spans)
    assert own[1] == 100 - 50  # union of [50, 100] clipped to the root
    assert tracing.covered([(50, 90), (60, 95), (90, 120)], 0, 100) == 50
    assert tracing.covered([], 0, 100) == 0


def test_wait_is_time_before_first_execution_not_covered_by_preparation():
    spans = [
        _span(1, None, 0, 100, tracing.ROOT),
        _span(2, 1, 0, 20, "loopnest.parse"),
        _span(3, 1, 30, 50, "runtime.store"),
        _span(4, 1, 70, 90, "runtime.kernel"),
    ]
    [profile] = tracing.request_profiles(spans)
    assert profile.wait_ns == 70 - 40
    metrics = tracing.layer_metrics([profile])
    assert metrics["gateway.wait_ms"] == 30 / 1e6
    assert metrics["api.attributed_share"] == pytest.approx(0.6)
    assert metrics["runtime.fallback_ms"] == 0.0


def test_recorder_links_spans_to_requests_across_threads():
    recorder = tracing.SpanRecorder()
    store = object()
    make_store = recorder.wrap("runtime.store", lambda: store, registers_store=True)
    kernel = recorder.wrap("runtime.kernel", lambda self, t, p, s: None, store_arg=3)
    seen = []

    def request():
        made = make_store()
        thread = threading.Thread(target=kernel, args=(None, None, None, made))
        thread.start()
        thread.join(timeout=10)
        seen.append(thread.is_alive())

    recorder.wrap(tracing.ROOT, request, root=True)()
    assert seen == [False]
    by_name = {span.name: span for span in recorder.spans}
    root = by_name[tracing.ROOT]
    assert by_name["runtime.store"].parent == root.span_id
    assert by_name["runtime.kernel"].parent == root.span_id
    assert {span.rid for span in recorder.spans} == {root.rid}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    percentile, value = stats.tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and sum(v > value for v in range(1, 101)) == 10
    assert percentile == pytest.approx(100 * 89 / 99)
    assert stats.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)
    summary = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary["median"] == 3.0 and summary["spread"] == pytest.approx(3.0 / 3.0)


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    return tmp_path


def test_untouched_results_are_correct(kernel_cache):
    result = measure.summarize([measure.run("warm_ex41", 1, 0.3, profile="tiny")])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["error_rate"] == 0.0
    assert result["probes"] >= 1 and result["latency_p50_ms"] > 0
    assert result["raw"]["latency_p50_ms"] > 0


def test_served_parts_send_consecutive_stretches_of_one_stream():
    rate = programs.PROFILES["tiny"]["served_rate"]
    stream = list(itertools.islice(programs.arrival_stream(5, "tiny"), 3 * round(rate)))
    sent = []
    for part in range(3):
        served = measure.Served("served", 5, "tiny", part)
        sent.extend(served._arrivals(1.0))
    assert sent == stream


def test_speed_at_takes_the_probes_nearest_in_time():
    reference = calibrate.REFERENCE_PROBE_S
    probes = calibrate.Probes()
    probes.stamps = [float(t) for t in range(30)]
    probes.times = [2 * reference] * 10 + [reference] * 20  # a slow spell, then normal
    assert probes.speed_at(-5.0) == 0.5 and probes.speed_at(3.0) == 0.5
    assert probes.speed_at(25.0) == 1.0 and probes.speed_at(100.0) == 1.0
    assert probes.speed() == 1.0


def test_probing_keeps_to_its_share_of_the_measured_time():
    probes = calibrate.Probes()
    probes.top_up(0.0)
    assert len(probes.times) == 1  # at least one probe, after a warm-up
    probes.top_up(1.0)
    assert probes.total_s >= calibrate.PROBE_SHARE * 1.0
    assert all(t > 0 for t in probes.times) and probes.stamps == sorted(probes.stamps)


def test_flipping_one_cell_of_a_returned_store_is_an_error(kernel_cache):
    flipped = []

    def flip_first(result):
        if not flipped:
            array = result.store["A"].data
            array.flat[array.size // 2] += 1.0
            flipped.append(True)

    result = measure.summarize(
        [measure.run("warm_ex41", 1, 0.3, profile="tiny", on_result=flip_first)]
    )
    assert flipped == [True]
    assert result["mismatched"] == 1 and result["failed"] == 1
    assert result["error_rate"] == pytest.approx(1 / result["attempted"])
    assert result["error_rate"] > 0
