"""The symbolic ExecutionPlan IR.

An :class:`ExecutionPlan` sits between analysis and execution: it describes
the *transformed* iteration space parametrically — per-level Fourier–Motzkin
bounds, the parallel (zero-column) levels and the partition lattice (HNF) —
instead of materializing new-space iteration tuples the way the legacy
``build_schedule`` did.  Everything a consumer previously read off the
materialized chunk list is available symbolically:

* ``chunk_keys()`` / ``chunks()`` enumerate the schedule's chunks lazily, in
  exactly the order ``build_schedule`` produced them (order of first
  appearance in the lexicographic scan of the new space);
* ``iterations_for(key)`` generates one chunk's iterations on demand, in the
  transformed lexicographic order, by scanning the partitioned levels with
  stride ``d`` from a congruence-derived start value — the paper's ``doall``
  loops over the partition offsets — so enumerating a chunk costs O(chunk);
* ``chunk_count`` / ``total_iterations`` / ``chunk_size(key)`` have closed
  forms whenever the bounds structure permits (constant key-level bounds),
  falling back to lazy scans that never hold more than O(depth) state;
* the plan itself pickles to a few hundred bytes — it is the *only* thing
  the parallel runtime ships to worker processes, which re-enumerate their
  assigned chunks in place.

Correctness contract (pinned by the property tests in ``tests/plan/``):
plan-driven enumeration is bit-identical — same chunk keys, same chunk
order, same per-chunk iteration order — to the reference enumeration over
``TransformedLoopNest.iterations()`` for every nest the analysis produces.

Why the ordering works: a chunk's key combines the values of the parallel
levels with the partition label (lattice residue) of the sequential levels,
so the first-appearance order of chunks is the lexicographic order of each
chunk's first iteration.  The discovery scan below visits candidate first
iterations directly: at a parallel level every value starts distinct chunks
(in value order); at a partitioned level only the first representative of
each residue class can start a chunk; sequential levels contribute nothing
to the key, so when the level provably cannot influence any key level below
(a static check on the bound coefficients), only its lower bound needs to
be visited.  Where those static invariance checks fail — non-rectangular
interactions between key and non-key levels — the scan degrades to a
deduplicating sweep that is still exact, just not sublinear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import CodegenError
from repro.intlin.fourier_motzkin import VariableBounds

__all__ = ["PlanLevel", "ChunkView", "ExecutionPlan"]

#: A chunk key: (values of the parallel levels, partition label).  Identical
#: to the keys produced by ``TransformedLoopNest.chunk_key``.
ChunkKey = Tuple[Tuple[int, ...], Tuple[int, ...]]

_ROLES = ("parallel", "partition", "sequential")


@dataclass(frozen=True)
class PlanLevel:
    """Symbolic description of one transformed loop level.

    ``bounds`` are the level's Fourier–Motzkin bounds (affine in the outer
    new indices).  ``stride`` is the HNF diagonal entry for partitioned
    levels (the paper's generated-loop step) and 1 otherwise;
    ``partition_pos`` is the level's position among the partitioned levels.

    ``block`` applies to parallel levels only: with ``block == B > 1`` the
    level contributes ``value // B`` to the chunk key instead of the value
    itself, so ``B`` adjacent parallel values share one chunk (executed in
    value order).  This is how the coalescing plan pass merges adjacent
    doall ranges without leaving the symbolic representation — the blocked
    plan is still a plain :class:`ExecutionPlan`.

        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> from repro.plan import ExecutionPlan
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> [(level.role, level.stride, level.block) for level in plan.levels]
        [('parallel', 1, 1), ('sequential', 1, 1)]
    """

    role: str
    bounds: VariableBounds
    stride: int = 1
    partition_pos: int = -1
    block: int = 1

    def __post_init__(self) -> None:
        if self.role not in _ROLES:
            raise CodegenError(f"unknown plan level role {self.role!r}")
        if self.block < 1:
            raise CodegenError(f"plan level block must be >= 1, got {self.block}")
        if self.block > 1 and self.role != "parallel":
            raise CodegenError("only parallel plan levels can be blocked")


class ChunkView:
    """A lazy view of one chunk of an :class:`ExecutionPlan`.

    Drop-in compatible with the materialized ``Chunk`` for every consumer
    that iterates: ``iterations`` is a fresh generator on each access (the
    iterations are re-derived from the plan bounds, never stored), ``size``
    is computed closed-form when the plan allows it.

        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> from repro.plan import ExecutionPlan
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> chunk = next(plan.chunks())
        >>> chunk.size, list(chunk.iterations)[:2]
        (8, [(0, 0), (0, 1)])
    """

    __slots__ = ("plan", "key", "_size")

    def __init__(self, plan: "ExecutionPlan", key: ChunkKey):
        self.plan = plan
        self.key = key
        self._size: Optional[int] = None

    @property
    def iterations(self) -> Iterator[Tuple[int, ...]]:
        return self.plan.iterations_for(self.key)

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = self.plan.chunk_size(self.key)
        return self._size

    def __len__(self) -> int:
        return self.size

    def value_ranges(self) -> Optional[List[Tuple[int, int, int]]]:
        """Per-level ``(start, stop_inclusive, step)`` ranges, when separable.

        The chunk's iterations are then exactly the cartesian product of the
        ranges in level order — what the vectorized backend turns into
        ``np.arange`` + ``meshgrid`` index arrays.  ``None`` when the chunk
        is not a product (bounds coupled to non-parallel levels, or a
        lattice coset whose congruence class shifts with the outer levels).
        """
        return self.plan.chunk_value_ranges(self.key)

    def __repr__(self) -> str:
        return f"ChunkView(key={self.key!r})"


class ExecutionPlan:
    """Parametric description of an independent-chunk schedule.

    Build with :meth:`from_transformed`; the plan then no longer references
    the nest — it is a pure, picklable value object over the transformed
    bounds and the independence structure (Lemma 1 + Theorem 2).  It is the
    only artifact that crosses process boundaries: a few hundred bytes
    independent of the iteration count.

        >>> import pickle
        >>> from repro.api import parse_loop_text
        >>> from repro.core.pipeline import analyze_nest
        >>> from repro.codegen.transformed_nest import TransformedLoopNest
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> report = analyze_nest(parse_loop_text(text))
        >>> plan = ExecutionPlan.from_transformed(TransformedLoopNest.from_report(report))
        >>> plan.chunk_count, plan.total_iterations, plan.chunk_sizes()[:3]
        (8, 64, [8, 8, 8])
        >>> len(pickle.dumps(plan)) < 1024  # the wire format stays tiny
        True
    """

    #: Everything that defines the plan; caches are derived and excluded
    #: from pickling, so a shipped plan stays a few hundred bytes.
    _SPEC_FIELDS = (
        "depth",
        "levels",
        "parallel_levels",
        "partition_levels",
        "hnf",
        "total_iterations",
    )

    #: Version of the pickled spec.  Plans cross process *and* host
    #: boundaries (worker pools, cluster nodes, disk caches), where the
    #: sender and receiver may run different builds; a silently
    #: misinterpreted spec field would corrupt results without any error.
    #: Bump this whenever ``_SPEC_FIELDS`` or their meaning changes —
    #: unpickling rejects any other version with a clear error.
    SPEC_VERSION = 1

    def __init__(
        self,
        depth: int,
        levels: Sequence[PlanLevel],
        parallel_levels: Sequence[int],
        partition_levels: Sequence[int],
        hnf: Sequence[Sequence[int]],
        total_iterations: int,
    ):
        self.depth = int(depth)
        self.levels: Tuple[PlanLevel, ...] = tuple(levels)
        self.parallel_levels: Tuple[int, ...] = tuple(int(k) for k in parallel_levels)
        self.partition_levels: Tuple[int, ...] = tuple(int(k) for k in partition_levels)
        self.hnf: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(int(x) for x in row) for row in hnf
        )
        self.total_iterations = int(total_iterations)
        if len(self.levels) != self.depth:
            raise CodegenError("plan needs exactly one PlanLevel per loop level")
        self._finalize()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_transformed(cls, transformed) -> "ExecutionPlan":
        """Derive the plan of a :class:`~repro.codegen.transformed_nest.TransformedLoopNest`."""
        depth = transformed.depth
        parallel = set(transformed.parallel_levels)
        partitioning = transformed.partitioning
        if partitioning is not None:
            partition_levels = tuple(int(k) for k in partitioning.levels)
            hnf = tuple(tuple(int(x) for x in row) for row in partitioning.hnf)
        else:
            partition_levels = ()
            hnf = ()
        bounds = transformed.variable_bounds
        levels: List[PlanLevel] = []
        for k in range(depth):
            if k in parallel:
                levels.append(PlanLevel(role="parallel", bounds=bounds[k]))
            elif k in partition_levels:
                pos = partition_levels.index(k)
                levels.append(
                    PlanLevel(
                        role="partition",
                        bounds=bounds[k],
                        stride=hnf[pos][pos],
                        partition_pos=pos,
                    )
                )
            else:
                levels.append(PlanLevel(role="sequential", bounds=bounds[k]))
        return cls(
            depth=depth,
            levels=levels,
            parallel_levels=tuple(sorted(parallel)),
            partition_levels=partition_levels,
            hnf=hnf,
            total_iterations=transformed.iteration_count(),
        )

    # ------------------------------------------------------------------ #
    # pickling: spec only, caches recomputed on load
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        state = {name: getattr(self, name) for name in self._SPEC_FIELDS}
        state["spec_version"] = self.SPEC_VERSION
        return state

    def __setstate__(self, state) -> None:
        version = state.get("spec_version", 0)
        if version != self.SPEC_VERSION:
            raise CodegenError(
                f"refusing to load a pickled {type(self).__name__} with spec "
                f"version {version} (this build reads version "
                f"{self.SPEC_VERSION}); the artifact comes from an "
                "incompatible build — re-analyze the nest instead of reusing "
                "the stale plan"
            )
        for name in self._SPEC_FIELDS:
            setattr(self, name, state[name])
        self._finalize()

    # ------------------------------------------------------------------ #
    # derived static structure
    # ------------------------------------------------------------------ #
    def _finalize(self) -> None:
        depth = self.depth
        # Which outer levels each level's bounds reference (nonzero
        # coefficient in any lower/upper bound expression).
        deps: List[Set[int]] = []
        for level in range(depth):
            bound = self.levels[level].bounds
            referenced: Set[int] = set()
            for expr in tuple(bound.lowers) + tuple(bound.uppers):
                for position, coeff in enumerate(expr.coefficients):
                    if coeff:
                        referenced.add(position)
            deps.append(referenced)
        # Transitive influence: level k influences level u when k is
        # (directly or through intermediate levels' bounds) referenced by
        # u's bounds.  Levels form a DAG (bounds only reference outer
        # levels), so one outer-to-inner sweep suffices.
        influence: List[Set[int]] = [set(d) for d in deps]
        for level in range(depth):
            closure = set(influence[level])
            for dep in influence[level]:
                closure |= influence[dep]
            influence[level] = closure
        self._deps = deps
        key_roles = ("parallel", "partition")
        # Fourier–Motzkin projections are exact over the *rationals*: an
        # integer prefix inside the scanned ranges always has a rational
        # completion, but its *integer* fiber can be empty when a deeper
        # bound expression carries a fractional coefficient (ceil(lower)
        # may exceed floor(upper)).  A level is "exact" when every bound
        # expression is integral — then in-range prefixes always complete.
        exact: List[bool] = []
        for level in range(depth):
            bound = self.levels[level].bounds
            exact.append(
                all(
                    expr.constant.denominator == 1
                    and all(c.denominator == 1 for c in expr.coefficients)
                    for expr in tuple(bound.lowers) + tuple(bound.uppers)
                )
            )
        self._exact = exact
        # Can this level change which chunks exist below it?  If not, the
        # discovery scan may stop after the first representative value.
        # Integrality gaps below void the guarantee (a later value's fiber
        # may be nonempty where the first one's was not), so exactness of
        # every deeper level is part of the condition.
        invariant: List[bool] = []
        for level in range(depth):
            spec = self.levels[level]
            flag = all(exact[u] for u in range(level + 1, depth)) and not any(
                self.levels[u].role in key_roles and level in influence[u]
                for u in range(level + 1, depth)
            )
            if flag and spec.role == "partition":
                # Deeper partition labels shift by hnf[s][t] per extra
                # period of level s; unless the shift vanishes mod the
                # deeper stride, later representatives of the same class
                # can reach labels the first one cannot.
                s = spec.partition_pos
                flag = all(
                    self.hnf[s][t] % self.hnf[t][t] == 0
                    for t in range(s + 1, len(self.partition_levels))
                )
            invariant.append(flag)
        self._invariant = invariant
        #: Chunk sizes decompose into a per-level product when no level's
        #: bounds depend on a level that varies within a chunk.  Blocked
        #: parallel levels vary within their chunk, so only unblocked
        #: parallel levels count as chunk constants.
        unblocked_parallel = {
            k for k in self.parallel_levels if self.levels[k].block == 1
        }
        self._separable = all(
            deps[level] <= unblocked_parallel for level in range(depth)
        )
        #: A partitioned level's congruence target is fixed per chunk when
        #: no outer partition level shifts it (off-diagonal HNF entries
        #: vanish modulo the stride); per partition position, and for the
        #: whole plan.
        self._fixed_target_at = [
            all(self.hnf[s][t] % self.hnf[t][t] == 0 for s in range(t))
            for t in range(len(self.partition_levels))
        ]
        self._fixed_targets = all(self._fixed_target_at)
        #: Closed-form chunk_count needs constant bounds on every key level.
        self._constant_key_bounds = all(
            not deps[level]
            for level in range(depth)
            if self.levels[level].role in key_roles
        )
        self._key_list: Optional[List[ChunkKey]] = None
        self._size_list: Optional[List[int]] = None
        self._chunk_count: Optional[int] = None
        self._coset_shifts: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(
                self.hnf[self.levels[j].partition_pos][self.levels[k].partition_pos]
                if self.levels[j].role == self.levels[k].role == "partition"
                else 0
                for j in range(k)
            )
            for k in range(depth)
        )
        # Per-key cosets: O(#chunks * depth) small ints, like the key list.
        self._coset_cache: Dict[ChunkKey, List[Tuple[int, int, int, int]]] = {}

    # ------------------------------------------------------------------ #
    # bound evaluation
    # ------------------------------------------------------------------ #
    def _range(self, level: int, prefix: Sequence[int]) -> Tuple[int, int]:
        bounds = self.levels[level].bounds
        lower = bounds.lower_value(prefix)
        upper = bounds.upper_value(prefix)
        if lower is None or upper is None:
            raise CodegenError(
                f"loop level {level} of the plan is unbounded; the original "
                "nest must have a finite iteration space"
            )
        return lower, upper

    def _label_of(self, iteration: Sequence[int]) -> Tuple[int, ...]:
        """Partition label: canonical residue modulo the HNF row lattice."""
        if not self.partition_levels:
            return ()
        residual = [int(iteration[k]) for k in self.partition_levels]
        m = len(residual)
        for s, row in enumerate(self.hnf):
            factor = residual[s] // row[s]
            if factor:
                for t in range(s, m):
                    residual[t] -= factor * row[t]
        return tuple(residual)

    def key_of(self, iteration: Sequence[int]) -> ChunkKey:
        """The chunk key of a new-space iteration (parallel values, label).

        A blocked parallel level contributes its block index
        ``value // block`` instead of the value, so adjacent values share a
        chunk.
        """
        parallel: List[int] = []
        for k in self.parallel_levels:
            block = self.levels[k].block
            value = int(iteration[k])
            parallel.append(value // block if block > 1 else value)
        return (tuple(parallel), self._label_of(iteration))

    # ------------------------------------------------------------------ #
    # chunk discovery (keys in first-appearance order)
    # ------------------------------------------------------------------ #
    def _discover(self) -> Iterator[Tuple[ChunkKey, Tuple[int, ...]]]:
        """Yield ``(key, first iteration)`` in ``build_schedule`` order.

        Visits only candidate chunk-starting iterations wherever the static
        invariance flags allow; degrades to a deduplicating sweep where the
        bounds couple key and non-key levels.
        """
        prefix: List[int] = []
        depth = self.depth

        def scan(level: int) -> Iterator[Tuple[ChunkKey, Tuple[int, ...]]]:
            if level == depth:
                iteration = tuple(prefix)
                yield self.key_of(iteration), iteration
                return
            spec = self.levels[level]
            lower, upper = self._range(level, prefix)
            if upper < lower:
                # Empty integer fiber (integrality gap): nothing below.
                return
            if spec.role == "parallel" and spec.block == 1:
                # Every value is a distinct key component: no dedupe, and
                # value order is first-appearance order.
                for value in range(lower, upper + 1):
                    prefix.append(value)
                    yield from scan(level + 1)
                    prefix.pop()
            elif self._invariant[level]:
                # The subtree's key set cannot change across representative
                # values: the first value of each block (blocked parallel),
                # the first period (partition) or the first value
                # (sequential) already starts every chunk.
                if spec.role == "parallel":
                    values: List[int] = []
                    value = lower
                    while value <= upper:
                        values.append(value)
                        value = (value // spec.block + 1) * spec.block
                elif spec.role == "partition":
                    values = list(range(lower, min(upper, lower + spec.stride - 1) + 1))
                else:
                    values = [lower]
                for value in values:
                    prefix.append(value)
                    yield from scan(level + 1)
                    prefix.pop()
            else:
                # Exact fallback: later values may start chunks the earlier
                # ones could not, so sweep and deduplicate by full key (the
                # outer prefix is fixed here, so full key == local suffix).
                seen: Set[ChunkKey] = set()
                for value in range(lower, upper + 1):
                    prefix.append(value)
                    for key, first in scan(level + 1):
                        if key not in seen:
                            seen.add(key)
                            yield key, first
                    prefix.pop()

        yield from scan(0)

    def chunk_keys(self) -> Iterator[ChunkKey]:
        """All chunk keys, lazily, in first-appearance (schedule) order."""
        if self._key_list is not None:
            yield from self._key_list
            return
        for key, _ in self._discover():
            yield key

    def key_list(self) -> List[ChunkKey]:
        """The chunk keys as an indexable list (cached)."""
        if self._key_list is None:
            self._key_list = [key for key, _ in self._discover()]
        return self._key_list

    def chunks(self) -> Iterator[ChunkView]:
        """Lazy chunk views in schedule order."""
        for key in self.chunk_keys():
            yield ChunkView(self, key)

    def select_chunks(self, indices: Optional[Sequence[int]] = None) -> List[ChunkView]:
        """Chunk views for the given schedule positions (all when None)."""
        keys = self.key_list()
        if indices is None:
            return [ChunkView(self, key) for key in keys]
        return [ChunkView(self, keys[int(i)]) for i in indices]

    # ------------------------------------------------------------------ #
    # per-chunk iteration
    # ------------------------------------------------------------------ #
    def iterations_for(self, key: ChunkKey) -> Iterator[Tuple[int, ...]]:
        """One chunk's iterations, lazily, in transformed lexicographic order.

        Partitioned levels are scanned with stride ``d`` from the first
        value in the chunk's congruence class — the paper's generated
        ``doall`` loop form — so only the chunk's own points are visited.
        """
        parallel_values, label = key
        if len(parallel_values) != len(self.parallel_levels):
            raise CodegenError("chunk key has the wrong number of parallel values")
        if len(label) != len(self.partition_levels):
            raise CodegenError("chunk key has the wrong partition label length")
        value_at = dict(zip(self.parallel_levels, parallel_values))
        prefix: List[int] = []
        factors: List[int] = []  # HNF basis coefficients of the outer partition levels
        depth = self.depth

        def scan(level: int) -> Iterator[Tuple[int, ...]]:
            if level == depth:
                yield tuple(prefix)
                return
            spec = self.levels[level]
            lower, upper = self._range(level, prefix)
            if spec.role == "parallel":
                if spec.block == 1:
                    start = stop = value_at[level]
                else:
                    base = value_at[level] * spec.block
                    start, stop = base, base + spec.block - 1
                for value in range(max(lower, start), min(upper, stop) + 1):
                    prefix.append(value)
                    yield from scan(level + 1)
                    prefix.pop()
            elif spec.role == "partition":
                s = spec.partition_pos
                stride = spec.stride
                target = label[s] + sum(
                    factors[t] * self.hnf[t][s] for t in range(s)
                )
                start = lower + ((target - lower) % stride)
                for value in range(start, upper + 1, stride):
                    prefix.append(value)
                    factors.append((value - target) // stride)
                    yield from scan(level + 1)
                    factors.pop()
                    prefix.pop()
            else:
                for value in range(lower, upper + 1):
                    prefix.append(value)
                    yield from scan(level + 1)
                    prefix.pop()

        return scan(0)

    def chunk_value_ranges(self, key: ChunkKey) -> Optional[List[Tuple[int, int, int]]]:
        """Per-level ``(start, stop_inclusive, step)`` when the chunk is a product.

        A chunk is a product when it is a coset (see :meth:`chunk_coset`)
        whose congruence targets do not shift with the outer partition
        levels; each level then starts at its (normalized) target.
        """
        if not self._fixed_targets:
            return None
        coset = self.chunk_coset(key)
        if not coset:
            return coset
        return [(target, upper, stride) for _, upper, stride, target in coset]

    def chunk_coset(self, key: ChunkKey) -> Optional[List[Tuple[int, int, int, int]]]:
        """Per-level ``(lower, upper, stride, target)`` of a separable chunk.

        The chunk's iterations are exactly what :meth:`iterations_for`
        scans: at each level ``k`` the values ``j`` in ``[lower, upper]``
        congruent to ``t = target + sum(shift * f)`` modulo ``stride``,
        where the sum runs over :meth:`coset_shifts` ``[k]`` and the exact
        factors ``f = (j - t) / stride`` of the outer levels.  Targets are
        normalized to ``[lower, lower + stride)``, so while the outer levels
        sit at their first values (every ``f`` is 0) each target is its
        level's first value.  Product chunks are the case where every shift
        vanishes modulo the stride; their targets are plain range starts.

        ``None`` when the plan is not separable (bounds coupled to a level
        that varies within a chunk); ``[]`` when the chunk is provably
        empty.  Cached per key: bound evaluation is exact ``Fraction``
        arithmetic, and warm plans are executed over and over.
        """
        if not self._separable:
            return None
        cached = self._coset_cache.get(key)
        if cached is None:
            cached = self._compute_coset(key)
            self._coset_cache[key] = cached
        return cached

    def _compute_coset(self, key: ChunkKey) -> List[Tuple[int, int, int, int]]:
        parallel_values, label = key
        value_at = dict(zip(self.parallel_levels, parallel_values))
        # Bounds only reference unblocked parallel levels, whose values are
        # fixed within the chunk; other positions of the prefix are never
        # read (blocked levels store their block start, for safety).
        prefix = [
            value_at.get(level, 0) * self.levels[level].block
            for level in range(self.depth)
        ]
        coset: List[Tuple[int, int, int, int]] = []
        # Per level, by how many periods normalizing moved its target: the
        # level's factors drop by that much, so deeper targets absorb
        # ``shift * moved`` and still denote the same classes.
        moved: List[int] = []
        for level in range(self.depth):
            spec = self.levels[level]
            lower, upper = self._range(level, prefix[:level])
            stride = 1
            if spec.role == "parallel":
                # The chunk owns one value (or one block of values) here.
                base = value_at[level] * spec.block
                lower = max(lower, base)
                upper = min(upper, base + spec.block - 1)
            if lower > upper:
                return []
            target = lower
            if spec.role == "partition":
                s = spec.partition_pos
                stride = spec.stride
                raw = label[s] + sum(
                    shift * periods
                    for shift, periods in zip(self._coset_shifts[level], moved)
                )
                target = lower + (raw - lower) % stride
                # A target that no outer level shifts fixes the first
                # member: an empty class empties the whole chunk.
                if self._fixed_target_at[s] and target > upper:
                    return []
                moved.append((target - raw) // stride)
            else:
                moved.append(0)
            coset.append((lower, upper, stride, target))
        return coset

    def coset_shifts(self) -> Tuple[Tuple[int, ...], ...]:
        """Per level ``k``, the target shift per unit factor of each outer level.

        ``coset_shifts()[k][j]`` is the HNF entry ``hnf[r][s]`` when levels
        ``j`` and ``k`` are the ``r``-th and ``s``-th partitioned levels, and
        0 otherwise: one more period of level ``j`` moves level ``k``'s
        congruence class by that much.
        """
        return self._coset_shifts

    # ------------------------------------------------------------------ #
    # closed-form statistics
    # ------------------------------------------------------------------ #
    def chunk_size(self, key: ChunkKey) -> int:
        """Number of iterations of one chunk (closed form when separable)."""
        if self._separable:
            size = self._closed_chunk_size(key)
            if size is not None:
                return size
        return sum(1 for _ in self.iterations_for(key))

    def _closed_chunk_size(self, key: ChunkKey) -> Optional[int]:
        parallel_values, label = key
        value_at = dict(zip(self.parallel_levels, parallel_values))
        prefix = [
            value_at.get(level, 0) * self.levels[level].block
            for level in range(self.depth)
        ]
        size = 1
        for level in range(self.depth):
            spec = self.levels[level]
            lower, upper = self._range(level, prefix[:level])
            extent = upper - lower + 1
            if spec.role == "parallel":
                if spec.block == 1:
                    if not lower <= value_at[level] <= upper:
                        return 0
                else:
                    base = value_at[level] * spec.block
                    overlap = min(upper, base + spec.block - 1) - max(lower, base) + 1
                    if overlap <= 0:
                        return 0
                    size *= overlap
            elif spec.role == "partition":
                stride = spec.stride
                if extent <= 0:
                    return 0
                if extent % stride == 0:
                    # Every congruence class has exactly extent/stride
                    # members, whatever the (possibly shifting) target.
                    size *= extent // stride
                elif self._fixed_target_at[spec.partition_pos]:
                    s = spec.partition_pos
                    start = lower + ((label[s] - lower) % stride)
                    if start > upper:
                        return 0
                    size *= (upper - start) // stride + 1
                else:
                    # The class's member count depends on outer partition
                    # values; no per-level product exists.
                    return None
            else:
                size *= max(0, extent)
        return size

    def chunk_sizes(self) -> List[int]:
        """Sizes of all chunks in schedule order (cached)."""
        if self._size_list is None:
            self._size_list = [self.chunk_size(key) for key in self.key_list()]
        return self._size_list

    @property
    def chunk_count(self) -> int:
        """Number of chunks; closed form for constant key-level bounds."""
        if self._chunk_count is None:
            self._chunk_count = self._closed_chunk_count()
            if self._chunk_count is None:
                # The discovery sweep is the expensive part of the fallback;
                # keep its result so later key_list()/chunk_sizes() calls
                # reuse it instead of sweeping again.
                self._chunk_count = len(self.key_list())
        return self._chunk_count

    def _closed_chunk_count(self) -> Optional[int]:
        if not self._constant_key_bounds:
            return None
        # Every key combination must own at least one iteration.  Constant
        # key-level bounds plus exact (integral) sequential bounds make the
        # Fourier–Motzkin nonemptiness guarantee carry over to the integer
        # points; an integrality gap at a sequential level could silently
        # empty some chunks, which only the scan can detect.
        if not all(
            self._exact[level]
            for level in range(self.depth)
            if self.levels[level].role == "sequential"
        ):
            return None
        count = 1
        for level in range(self.depth):
            spec = self.levels[level]
            if spec.role == "sequential":
                continue
            lower, upper = self._range(level, [0] * level)
            extent = upper - lower + 1
            if extent <= 0:
                return 0
            if spec.role == "parallel":
                # With block B, chunks are the distinct blocks the range
                # touches (block 1 reduces to the plain extent).
                count *= upper // spec.block - lower // spec.block + 1
            else:
                stride = spec.stride
                if extent < stride and not self._fixed_target_at[spec.partition_pos]:
                    # Shifting congruence targets make the reachable label
                    # set depend on the outer partition values; only the
                    # scan knows how many full keys exist.
                    return None
                count *= min(extent, stride)
        return count

    def statistics(self) -> Dict[str, float]:
        """The numbers ``schedule_statistics`` reported, without tuples.

        ``ideal_speedup`` is total work over the largest chunk — the
        machine-independent parallelism the benchmarks quote.
        """
        sizes = self.chunk_sizes() or [0]
        total = sum(sizes)
        largest = max(sizes)
        count = len(self.chunk_sizes())
        return {
            "num_chunks": count,
            "total_iterations": total,
            "max_chunk_size": largest,
            "min_chunk_size": min(sizes),
            "mean_chunk_size": total / count if count else 0.0,
            # A zero-iteration plan has no work to parallelize: report 0.0,
            # not the 1.0 ("no parallelism") a largest-chunk division of
            # zero used to suggest.
            "ideal_speedup": (total / largest) if largest else 0.0,
        }

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        roles = ", ".join(
            f"j{k + 1}:{self.levels[k].role}" for k in range(self.depth)
        )
        return (
            f"ExecutionPlan(depth={self.depth}, levels=[{roles}], "
            f"iterations={self.total_iterations})"
        )

    def __repr__(self) -> str:
        return self.describe()
