"""Span recorder for the traced run, patched in from outside the program.

The traced run wraps each layer's public entry point at run time, under
the name its callers look it up by (a module global such as
``repro.api.session.store_for_nest``, or a class attribute such as
``NativeBackend.execute_plan``).  Every call becomes a span: name,
``perf_counter_ns`` start and end, parent span, and a request id shared by
all spans of one request.  Spans stay in memory until the run ends.

Request ids cross threads two ways.  Work the gateway hands to its thread
pools runs in a copy of the submitting task's context (the traced run
patches its event loop's ``run_in_executor``).  Calls on the gateway's
execution threads, which carry no request context, are matched to their
request by the identity of the store that ``store_for_nest`` built for it.
Spans matched to no request (telemetry recorded on the gateway's event
loop) are kept with ``rid=None``, count towards no request, and are
listed by :meth:`SpanRecorder.unattributed`.

A span's self time is its duration minus the part of it that its children
cover (the union of their intervals, so overlapping children on other
threads are not counted twice).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import statistics
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = "api.request"
EXECUTION = ("runtime.execute", "runtime.kernel", "runtime.fallback")

#: Per-layer time metrics (median self time, ms) and the span they read.
LAYER_SPANS: Tuple[Tuple[str, str], ...] = (
    ("loopnest.parse_ms", "loopnest.parse"),
    ("core.analyze_ms", "core.analyze"),
    ("codegen.transform_ms", "codegen.transform"),
    ("codegen.compile_ms", "codegen.compile"),
    ("codegen.pack_ms", "codegen.pack"),
    ("plan.build_ms", "plan.build"),
    ("plan.passes_ms", "plan.passes"),
    ("plan.chunk_sizes_ms", "plan.chunk_sizes"),
    ("runtime.store_ms", "runtime.store"),
    ("runtime.execute_ms", "runtime.execute"),
    ("runtime.kernel_ms", "runtime.kernel"),
    ("runtime.fallback_ms", "runtime.fallback"),
    ("runtime.telemetry_ms", "runtime.telemetry"),
    ("runtime.balance_ms", "runtime.balance"),
)

_CURRENT: "contextvars.ContextVar[Optional[Tuple[int, int]]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


class Span:
    __slots__ = ("span_id", "parent", "rid", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, rid, name, start, end=0, attrs=None):
        self.span_id = span_id
        self.parent = parent
        self.rid = rid
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs


class SpanRecorder:
    """Collects spans from wrapped entry points; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        # id(store) -> (rid, root span id).  Stores are not held (they are
        # large); a recycled id is re-registered before its kernel runs.
        self._stores: Dict[int, Tuple[int, int]] = {}
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._roots: Dict[int, int] = {}  # rid -> root span id

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str, root: bool, store=None) -> Tuple[Span, contextvars.Token]:
        current = _CURRENT.get()
        span_id = next(self._span_ids)
        if root:
            rid, parent = next(self._request_ids), None
            self._roots[rid] = span_id
        elif current is not None:
            rid, parent = current
        else:
            owner = self._stores.get(id(store)) if store is not None else None
            rid, parent = owner if owner is not None else (None, None)
        span = Span(span_id, parent, rid, name, perf_counter_ns())
        token = _CURRENT.set((rid, span_id) if rid is not None else None)
        return span, token

    def _close(self, span: Span, token: contextvars.Token) -> None:
        span.end = perf_counter_ns()
        _CURRENT.reset(token)
        self.spans.append(span)  # list.append is atomic

    def _register_store(self, store) -> None:
        current = _CURRENT.get()
        if current is not None:
            rid = current[0]
            self._stores[id(store)] = (rid, self._roots[rid])

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        root: bool = False,
        store_arg: Optional[int] = None,
        registers_store: bool = False,
        attrs: Optional[Callable[[object], Dict[str, object]]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``store_arg`` is the positional index of a store argument used to
        find the request when the calling thread carries no context;
        ``registers_store`` marks a function whose result is a request's
        store; ``attrs`` maps the result to span attributes.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            store = None
            if store_arg is not None:
                store = args[store_arg] if len(args) > store_arg else kwargs.get("store")
            span, token = self._open(name, root, store)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, token)
            if attrs is not None:
                span.attrs = attrs(result)
            if registers_store:
                self._register_store(result)
            return result

        return traced

    def wrap_async_root(self, fn: Callable) -> Callable:
        """A coroutine function whose every call is one request's root span."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span, token = self._open(ROOT, True)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(span, token)

        return traced

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: object, attribute: str, replacement: object) -> None:
        own = attribute in vars(owner)
        original = vars(owner)[attribute] if own else getattr(owner, attribute)
        self._patches.append((owner, attribute, original, own))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._stores.clear()
        self._roots.clear()

    def install(self) -> "SpanRecorder":
        """Wrap every layer entry point the benchmark measures."""
        import repro.api.session as session_module
        import repro.codegen.native as native_module
        import repro.gateway.gateway as gateway_module
        from repro.codegen.transformed_nest import TransformedLoopNest
        from repro.core.cache import AnalysisCache
        from repro.plan import ExecutionPlan, PlanPassManager
        from repro.runtime.backends import CompiledBackend, NativeBackend, VectorizedBackend
        from repro.runtime.executor import ParallelExecutor
        from repro.runtime.telemetry import ExecutionTelemetry

        wrap = self.wrap
        self.patch(session_module.Session, "run", wrap(ROOT, session_module.Session.run, root=True))
        self.patch(gateway_module.Gateway, "submit", self.wrap_async_root(gateway_module.Gateway.submit))
        for module in (session_module, gateway_module):
            self.patch(module, "resolve_source", wrap("loopnest.parse", module.resolve_source))
            self.patch(
                module, "store_for_nest",
                wrap("runtime.store", module.store_for_nest, registers_store=True),
            )
        self.patch(AnalysisCache, "analyze", wrap("core.analyze", AnalysisCache.analyze))
        from_report = vars(TransformedLoopNest)["from_report"].__func__
        self.patch(
            TransformedLoopNest, "from_report",
            classmethod(wrap("codegen.transform", from_report)),
        )
        self.patch(
            TransformedLoopNest, "execution_plan",
            wrap("plan.build", TransformedLoopNest.execution_plan),
        )
        self.patch(
            native_module, "native_program_for",
            wrap("codegen.compile", native_module.native_program_for),
        )
        self.patch(
            native_module, "packed_ranges_for",
            wrap("codegen.pack", native_module.packed_ranges_for),
        )
        self.patch(PlanPassManager, "optimize", wrap("plan.passes", PlanPassManager.optimize))
        self.patch(
            ExecutionPlan, "chunk_sizes",
            wrap("plan.chunk_sizes", ExecutionPlan.chunk_sizes, attrs=lambda sizes: {"chunks": len(sizes)}),
        )
        self.patch(ParallelExecutor, "run", wrap("runtime.execute", ParallelExecutor.run))
        for method in ("execute_plan", "execute_plan_parallel"):
            self.patch(
                NativeBackend, method,
                wrap("runtime.kernel", getattr(NativeBackend, method), store_arg=3),
            )
        for backend in (VectorizedBackend, CompiledBackend):
            self.patch(
                backend, "execute_plan",
                wrap("runtime.fallback", backend.execute_plan, store_arg=3),
            )
        self.patch(
            ExecutionTelemetry, "record_group",
            wrap("runtime.telemetry", ExecutionTelemetry.record_group),
        )
        for method in ("groups_for", "_schedule_is_dynamic"):
            self.patch(
                ParallelExecutor, method,
                wrap("runtime.balance", getattr(ParallelExecutor, method)),
            )
        return self

    def propagate_context(self, loop) -> None:
        """Run the loop's executor callbacks in a copy of the caller's context.

        A callback submitted from a context without a request (the
        gateway's long-lived execution workers) whose first argument
        carries a registered ``store`` (the gateway's job) runs under that
        store's request instead.
        """
        original = loop.run_in_executor

        def run_in_executor(executor, func, *args):
            context = contextvars.copy_context()
            if context.get(_CURRENT) is None and args:
                owner = self._stores.get(id(getattr(args[0], "store", None)))
                if owner is not None:
                    context.run(_CURRENT.set, owner)
            return original(executor, functools.partial(context.run, func), *args)

        self.patch(loop, "run_in_executor", run_in_executor)

    def unattributed(self) -> Dict[str, Tuple[int, float]]:
        """Spans matched to no request: ``{name: (count, total ms)}``."""
        totals: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            if span.rid is None:
                count, ms = totals.get(span.name, (0, 0.0))
                totals[span.name] = (count + 1, ms + (span.end - span.start) / 1e6)
        return totals


# ---------------------------------------------------------------------- #
# self-time arithmetic and per-request profiles
# ---------------------------------------------------------------------- #
def covered(intervals: Iterable[Tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in intervals if end > low and start < high
    )
    total = 0
    run_start, run_end = None, None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """``{span_id: self ns}``: duration minus what its children cover."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


class RequestProfile:
    """One request's spans: wall, root self time and self time per layer."""

    __slots__ = ("rid", "wall_ns", "root_self_ns", "layers", "wait_ns", "chunks")

    def __init__(self, rid, wall_ns, root_self_ns, layers, wait_ns, chunks):
        self.rid = rid
        self.wall_ns = wall_ns
        self.root_self_ns = root_self_ns
        self.layers = layers
        self.wait_ns = wait_ns
        self.chunks = chunks


def request_profiles(spans: Sequence[Span]) -> List[RequestProfile]:
    """Per-request profiles of every request whose root span completed."""
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.rid is not None:
            by_request[span.rid].append(span)
    profiles = []
    for rid in sorted(by_request):
        members = by_request[rid]
        roots = [span for span in members if span.parent is None]
        if len(roots) != 1:
            continue
        root = roots[0]
        own = self_times(members)
        layers: Dict[str, int] = defaultdict(int)
        for span in members:
            if span is not root:
                layers[span.name] += own[span.span_id]
        # Waiting: from the request's start to its first execution call,
        # minus the time covered by the spans that prepared it.
        executions = [span.start for span in members if span.name in EXECUTION]
        wait = None
        if executions:
            first = min(executions)
            prepare = [(s.start, s.end) for s in members if s is not root and s.name not in EXECUTION]
            wait = (first - root.start) - covered(prepare, root.start, first)
        chunk_counts = [
            span.attrs["chunks"] for span in members if span.attrs and "chunks" in span.attrs
        ]
        profiles.append(
            RequestProfile(
                rid, root.end - root.start, own[root.span_id], dict(layers), wait,
                max(chunk_counts) if chunk_counts else None,
            )
        )
    return profiles


def _median_ms(values_ns: List[int]) -> float:
    return statistics.median(values_ns) / 1e6 if values_ns else 0.0


def layer_metrics(profiles: Sequence[RequestProfile]) -> Dict[str, float]:
    """Per-layer medians over the requests in which each layer ran.

    A layer that ran in no request reads 0.0.  ``api.unattributed_ms`` is
    the root span's self time; ``api.attributed_share`` the share of the
    request wall covered by child spans.  ``gateway.wait_ms`` is the time
    from the request's start to its first execution call not covered by
    preparation spans: queueing in the gateway, call overhead in a
    ``Session.run``; requests answered without executing have none.
    """
    metrics: Dict[str, float] = {}
    for metric, span_name in LAYER_SPANS:
        metrics[metric] = _median_ms(
            [profile.layers[span_name] for profile in profiles if span_name in profile.layers]
        )
    chunks = [profile.chunks for profile in profiles if profile.chunks is not None]
    metrics["plan.chunks"] = float(statistics.median(chunks)) if chunks else 0.0
    metrics["api.unattributed_ms"] = _median_ms([profile.root_self_ns for profile in profiles])
    shares = [
        1.0 - profile.root_self_ns / profile.wall_ns for profile in profiles if profile.wall_ns > 0
    ]
    metrics["api.attributed_share"] = statistics.median(shares) if shares else 0.0
    metrics["gateway.wait_ms"] = _median_ms(
        [profile.wait_ns for profile in profiles if profile.wait_ns is not None]
    )
    return metrics


def attribution_gap_ms(profiles: Sequence[RequestProfile]) -> float:
    """Largest |sum of self times − request wall| over requests, in ms."""
    gaps = [
        abs(profile.root_self_ns + sum(profile.layers.values()) - profile.wall_ns)
        for profile in profiles
    ]
    return max(gaps) / 1e6 if gaps else 0.0
