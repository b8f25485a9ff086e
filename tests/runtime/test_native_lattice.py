"""Full-rank (lattice-coset) plans in the native kernel.

A full-rank PDM splits the iteration space into ``det(HNF)`` lattice
cosets (the paper's Example 4.2).  When an off-diagonal HNF entry does not
vanish modulo the stride, a chunk is not a product of strided ranges: each
level's congruence class shifts with the outer levels.  The packed row
carries those shifts, so the kernel walks the coset directly.  This suite
pins:

* row decoding, independent of any compiled kernel — a Python decoder of
  the row format yields exactly ``plan.iterations_for(key)``, in order, on
  seeded random full-rank nests with off-diagonal HNF entries, negative
  lower bounds and empty cosets,
* the differential contract: every suite nest and the random full-rank
  nests run bit-identical to the interpreter with no fallback, in serial,
  threads (per-chunk rows) and native-parallel modes,
* error parity inside a coset: window violations and division by zero raise
  the interpreter's exception types in every mode and parallel flavor,
* fallback reporting: a delegated run names its reason in
  ``NativeBackend.last_fallback``, ``ExecutionResult.fallback`` and one
  ``repro`` logger record; native runs report ``None``.
"""

import logging

import numpy as np
import pytest

from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.exceptions import ExecutionError
from repro.loopnest import loop_nest
from repro.runtime import backends
from repro.runtime.arrays import OffsetArray, store_for_nest
from repro.runtime.backends import NativeBackend
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite

SUITE = workload_suite(6)
SUITE_IDS = [case.name for case in SUITE]
SEEDS = range(16)
MODES = ("serial", "threads", "native-parallel")

ENGINES = native_codegen.available_engines()
needs_engine = pytest.mark.skipif(
    not ENGINES, reason="no native engine (numba or a C compiler) available"
)


def random_full_rank_nest(rng: np.random.Generator):
    """A seeded nest whose PDM is full rank, usually with off-diagonal HNF
    entries; loops start at or below zero and may be shorter than a
    stride, which leaves some cosets (or some inner classes) empty."""
    family = int(rng.integers(0, 4))
    depth = 3 if family == 3 else 2
    nest = loop_nest(f"lattice-{family}")
    for name in ("i1", "i2", "i3")[:depth]:
        lo = int(rng.integers(-4, 1))
        nest.loop(name, lo, lo + int(rng.integers(0, 7)))
    if family == 0:
        a, c = int(rng.integers(1, 4)), int(rng.integers(2, 5))
        b = int(rng.integers(1, c))
        nest.statement(f"A[i1, i2] = A[i1 - {a}, i2 - {b}] * 0.5 + 1.0")
        nest.statement(f"B[i1, i2] = B[i1, i2 - {c}] + A[i1, i2]")
    elif family == 1:
        p, q = 2 * int(rng.integers(1, 3)), int(rng.integers(0, 3))
        nest.statement(f"A[i1, i2] = A[-i1 - {p}, -i1 - i2 - {q}] * 0.5 + 1.0")
        nest.statement("B[i1, i2] = B[i1 - 2, i2 - 1] + A[i1, i2]")
    elif family == 2:
        band = int(rng.integers(2, 5))
        nest.statement(f"A[i1 + i2] = A[i1 + i2 - {band}] * 0.5 + B[i1, i2]")
    else:
        a, c, e = (int(rng.integers(1, 3)), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        b, d = int(rng.integers(1, c)), int(rng.integers(1, e))
        nest.statement(f"A[i1, i2, i3] = A[i1 - {a}, i2 - {b}, i3] + 1.0")
        nest.statement(f"B[i1, i2, i3] = B[i1, i2 - {c}, i3 - {d}] * 0.5")
        nest.statement(f"C[i1, i2, i3] = C[i1, i2, i3 - {e}] + B[i1, i2, i3]")
    return nest.build()


def _transformed(nest):
    return TransformedLoopNest.from_report(analyze_nest(nest))


def decode_row(row, depth):
    """The iterations a packed row denotes, by the row format alone."""
    offsets = native_codegen.row_offsets(depth)
    levels = [[int(v) for v in row[offsets[k]:offsets[k + 1]]] for k in range(depth)]
    out = []

    def scan(level, prefix, factors):
        if level == depth:
            out.append(tuple(prefix))
            return
        lower, upper, stride, target, *shifts = levels[level]
        # The format keeps targets normalized; the C kernel relies on it.
        assert lower <= target < lower + stride
        cls = target + sum(shift * factor for shift, factor in zip(shifts, factors))
        for value in range(lower + (cls - lower) % stride, upper + 1, stride):
            assert (value - cls) % stride == 0
            scan(level + 1, prefix + [value], factors + [(value - cls) // stride])

    scan(0, [], [])
    return out


def _row_of(plan, coset):
    shifts = plan.coset_shifts()
    return [value for level, shift in zip(coset, shifts) for value in (*level, *shift)]


# ---------------------------------------------------------------------------
# row decoding (no compiled kernel involved)
# ---------------------------------------------------------------------------

class TestRowDecoding:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_packed_rows_decode_to_plan_iterations(self, seed):
        plan = _transformed(random_full_rank_nest(np.random.default_rng(seed))).execution_plan()
        for key in plan.key_list():
            row = native_codegen.packed_row_for(plan, key)
            assert row is not None
            assert decode_row(row, plan.depth) == list(plan.iterations_for(key)), key

    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_suite_rows_decode_to_plan_iterations(self, case):
        plan = _transformed(case.nest).execution_plan()
        for key in plan.key_list():
            row = native_codegen.packed_row_for(plan, key)
            assert decode_row(row, plan.depth) == list(plan.iterations_for(key)), key

    def test_every_residue_class_decodes(self):
        """Beyond the plan's own chunks: every label of the residue box,
        empty cosets included, decodes to exactly what ``iterations_for``
        scans — and a coset reported empty really has no iteration."""
        empty = shifted = 0
        for seed in SEEDS:
            plan = _transformed(random_full_rank_nest(np.random.default_rng(seed))).execution_plan()
            assert not plan.parallel_levels
            strides = [plan.levels[k].stride for k in plan.partition_levels]
            shifted += any(any(level) for level in plan.coset_shifts())
            for flat in range(int(np.prod(strides))):
                label = tuple(int(x) for x in np.unravel_index(flat, strides))
                key = ((), label)
                coset = plan.chunk_coset(key)
                expected = list(plan.iterations_for(key))
                if not coset:
                    assert expected == []
                    empty += 1
                    continue
                decoded = decode_row(_row_of(plan, coset), plan.depth)
                empty += not decoded
                assert decoded == expected, (seed, label)
        # The seeds must exercise what the test claims to cover.
        assert empty > 0 and shifted > 0

    def test_product_cosets_match_value_ranges(self):
        # Normalized targets are the first values, so a product chunk's
        # ranges start at its targets.
        plan = _transformed(example_4_1(7)).execution_plan()
        for key in plan.key_list():
            coset = plan.chunk_coset(key)
            assert all(lower <= target < lower + stride for lower, _, stride, target in coset)
            assert plan.chunk_value_ranges(key) == [
                (target, upper, stride) for _, upper, stride, target in coset
            ]

    def test_non_separable_plan_has_no_cosets(self, ex42_triangular):
        plan = _transformed(ex42_triangular).execution_plan()
        assert plan.chunk_coset(plan.key_list()[0]) is None
        assert native_codegen.packed_row_for(plan, plan.key_list()[0]) is None


# ---------------------------------------------------------------------------
# differential: suite + random full-rank nests, every mode, no fallback
# ---------------------------------------------------------------------------

def _run_mode(nest, mode, base):
    transformed = _transformed(nest)
    backend = NativeBackend()
    result = base.copy()
    outcome = ParallelExecutor(mode=mode, workers=2, backend=backend).run(transformed, result)
    return backend, result, outcome


@needs_engine
class TestLatticeDifferential:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_suite_runs_natively(self, case, mode):
        base = store_for_nest(case.nest, initializer="random", seed=5)
        ref = base.copy()
        execute_nest(case.nest, ref)
        backend, result, outcome = _run_mode(case.nest, mode, base)
        assert ref.identical(result), (case.name, mode)
        assert backend.stats["fallback_runs"] == 0
        assert outcome.fallback is None
        assert outcome.backend.startswith("native-")

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_full_rank_nests(self, seed, mode):
        nest = random_full_rank_nest(np.random.default_rng(seed))
        base = store_for_nest(nest, initializer="random", seed=seed)
        ref = base.copy()
        execute_nest(nest, ref)
        backend, result, outcome = _run_mode(nest, mode, base)
        assert ref.identical(result), (seed, nest.name, mode)
        assert backend.stats["fallback_runs"] == 0
        assert outcome.fallback is None

    @pytest.mark.parametrize("seed", SEEDS)
    def test_per_chunk_rows(self, seed):
        # The thread pool's per-chunk entry point reads single rows of the
        # same table; chunks are independent, so any order is legal.
        nest = random_full_rank_nest(np.random.default_rng(seed))
        transformed = _transformed(nest)
        plan = transformed.execution_plan()
        base = store_for_nest(nest, initializer="random", seed=seed)
        ref = base.copy()
        execute_nest(nest, ref)
        backend = NativeBackend()
        result = base.copy()
        for chunk in reversed(plan.select_chunks(None)):
            backend.execute_chunk(transformed, chunk, result)
        assert ref.identical(result), (seed, nest.name)
        assert backend.stats["fallback_runs"] == 0
        assert backend.stats["native_chunks"] == len(plan.key_list())


# ---------------------------------------------------------------------------
# error parity inside a coset
# ---------------------------------------------------------------------------

def _divzero_nest():
    # i1 == 3 lies in the later cosets of Example 4.2's lattice.
    return (
        loop_nest("lattice-divzero")
        .loop("i1", -6, 6)
        .loop("i2", -6, 6)
        .statement("A[i1, i2] = A[-i1 - 2, -i1 - i2 - 1] * 0.5 + 1.0 / (i1 - 3)")
        .statement("B[i1, i2] = B[i1 - 2, i2 - 1] + A[i1, i2]")
        .build()
    )


def _tight_window_store(nest):
    # A's window misses the far reads A[-i1 - 2, -i1 - i2 - 1].
    store = store_for_nest(nest)
    store["A"] = OffsetArray.from_window([-6, -6], [6, 6])
    return store


ERROR_CASES = {
    "window": (lambda: example_4_2(6), _tight_window_store, ExecutionError),
    "divzero": (_divzero_nest, store_for_nest, ZeroDivisionError),
}


@pytest.fixture(params=["openmp", "pthreads"])
def cc_flavor(request, tmp_path, monkeypatch):
    """The C engine built with one parallel flavor (OpenMP or pthreads)."""
    if "cc" not in ENGINES:
        pytest.skip("no C compiler")
    monkeypatch.setenv(native_codegen.CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setenv(native_codegen.ENGINE_ENV, "cc")
    native_codegen.clear_kernel_cache()
    if request.param == "openmp" and not native_codegen.openmp_supported():
        pytest.skip("toolchain lacks OpenMP")
    if request.param == "pthreads":
        monkeypatch.setattr(native_codegen, "_OPENMP_CACHED", False)
    yield request.param
    native_codegen.clear_kernel_cache()


@needs_engine
class TestLatticeErrors:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_interpreter_raises(self, case):
        build, store, error = ERROR_CASES[case]
        nest = build()
        assert not _transformed(nest).execution_plan()._fixed_targets
        with pytest.raises(error):
            execute_nest(nest, store(nest))

    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_serial(self, case):
        build, store, error = ERROR_CASES[case]
        nest = build()
        backend = NativeBackend()
        with pytest.raises(error):
            ParallelExecutor(mode="serial", backend=backend).run(_transformed(nest), store(nest))
        assert backend.stats["fallback_runs"] == 0

    @pytest.mark.parametrize("threads", (1, 2, 8))
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_native_parallel(self, case, threads, cc_flavor):
        build, store, error = ERROR_CASES[case]
        nest = build()
        transformed = _transformed(nest)
        program = native_codegen.native_program_for(transformed)
        assert program.kernel.flavor == cc_flavor
        backend = NativeBackend()
        executor = ParallelExecutor(mode="native-parallel", workers=threads, backend=backend)
        with pytest.raises(error):
            executor.run(transformed, store(nest))
        assert backend.stats["fallback_runs"] == 0

    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_threads_per_chunk(self, case, monkeypatch):
        # Without an in-kernel parallel entry point, threads mode dispatches
        # chunk rows one by one.
        monkeypatch.setattr(NativeBackend, "supports_parallel_plan", lambda *args: False)
        build, store, error = ERROR_CASES[case]
        nest = build()
        backend = NativeBackend()
        executor = ParallelExecutor(mode="threads", workers=2, backend=backend)
        with pytest.raises(error):
            executor.run(_transformed(nest), store(nest))
        assert backend.stats["fallback_runs"] == 0


# ---------------------------------------------------------------------------
# fallback reporting
# ---------------------------------------------------------------------------

class TestFallbackReporting:
    def _serial(self, nest, backend, store=None):
        return ParallelExecutor(mode="serial", backend=backend).run(
            _transformed(nest), store if store is not None else store_for_nest(nest)
        )

    @needs_engine
    def test_non_separable_plan_reports_reason(self, ex42_triangular, caplog):
        backend = NativeBackend()
        with caplog.at_level(logging.INFO, logger="repro"):
            outcome = self._serial(ex42_triangular, backend)
        assert outcome.fallback == backends.FALLBACK_NON_SEPARABLE
        assert backend.last_fallback == backends.FALLBACK_NON_SEPARABLE
        records = [r for r in caplog.records if r.name == "repro"]
        assert len(records) == 1
        assert "non-separable chunk bounds" in records[0].getMessage()

    @needs_engine
    def test_session_result_carries_reason(self, ex42_triangular):
        from repro.api import Session

        with Session(mode="serial", backend="native") as session:
            flagged = session.run(ex42_triangular, verify=True)
            clean = session.run(example_4_2(4))
        assert flagged.fallback == backends.FALLBACK_NON_SEPARABLE
        assert flagged.to_dict()["fallback"] == backends.FALLBACK_NON_SEPARABLE
        assert flagged.max_abs_difference == 0.0
        assert clean.fallback is None

    def test_no_engine_reports_reason(self, monkeypatch, caplog):
        monkeypatch.setenv(native_codegen.ENGINE_ENV, "none")
        with caplog.at_level(logging.INFO, logger="repro"):
            outcome = self._serial(example_4_2(4), NativeBackend())
        assert outcome.fallback == backends.FALLBACK_NO_ENGINE
        assert any("no engine" in r.getMessage() for r in caplog.records)

    @needs_engine
    def test_unsupported_expression_reports_reason(self):
        nest = (
            loop_nest("lattice-floordiv")
            .loop("i1", 1, 6)
            .statement("A[i1] = B[i1] + (i1) // 2")
            .build()
        )
        outcome = self._serial(nest, NativeBackend())
        assert outcome.fallback == backends.FALLBACK_UNSUPPORTED

    @needs_engine
    def test_array_layout_reports_reason(self):
        nest = example_4_2(4)
        store = store_for_nest(nest)
        fortran = OffsetArray.wrap(store["A"].origin, np.asfortranarray(store["A"].data))
        store["A"] = fortran
        ref = store.copy()
        execute_nest(nest, ref)
        outcome = self._serial(nest, NativeBackend(), store)
        assert outcome.fallback == backends.FALLBACK_ARRAY_LAYOUT
        assert ref.identical(store)

    @needs_engine
    def test_reason_clears_after_a_native_run(self, ex42_triangular):
        backend = NativeBackend()
        self._serial(ex42_triangular, backend)
        assert backend.last_fallback is not None
        outcome = self._serial(example_4_2(4), backend)
        assert backend.last_fallback is None and outcome.fallback is None


# ---------------------------------------------------------------------------
# the numba emitter's row decoding, run as plain Python
# ---------------------------------------------------------------------------

class TestPythonKernelSource:
    """The numba kernel source is Python: with ``njit`` as the identity and
    ``prange`` as ``range`` it runs unjitted, so its row decoding is pinned
    even where numba is not installed."""

    def _kernel_module(self, transformed, monkeypatch):
        import sys
        import types

        from repro.loopnest.canonical import canonicalize

        fake = types.ModuleType("numba")
        fake.njit = lambda *args, **kwargs: (lambda function: function)
        fake.prange = range
        monkeypatch.setitem(sys.modules, "numba", fake)
        source = native_codegen.emit_kernel_source(
            canonicalize(transformed.nest).nest, transformed.inverse_transform, "py"
        )
        namespace = {}
        exec(compile(source, "<numba kernel>", "exec"), namespace)
        return namespace

    @pytest.mark.parametrize("seed", range(6))
    def test_serial_and_parallel_entry_points(self, seed, monkeypatch):
        nest = random_full_rank_nest(np.random.default_rng(seed))
        transformed = _transformed(nest)
        kernel = self._kernel_module(transformed, monkeypatch)
        n_chunks, rows = native_codegen.packed_ranges_for(transformed.execution_plan())
        base = store_for_nest(nest, initializer="random", seed=seed)
        ref = base.copy()
        execute_nest(nest, ref)
        for parallel in (False, True):
            store = base.copy()
            args = []
            for name in native_codegen._original_array_order(transformed.nest):
                array = store[name]
                args += [
                    array.data.reshape(-1),
                    np.asarray(array.origin, dtype=np.int64),
                    np.asarray(array.data.shape, dtype=np.int64),
                ]
            if parallel:
                statuses = np.zeros(max(1, n_chunks), dtype=np.int64)
                code = kernel[native_codegen.PARALLEL_KERNEL_SYMBOL](
                    n_chunks, rows, 2, 1, statuses, *args
                )
            else:
                code = kernel[native_codegen.KERNEL_SYMBOL](n_chunks, rows, *args)
            assert code == native_codegen.OK
            assert ref.identical(store), (seed, nest.name, parallel)
