"""Seeded request streams for the benchmark's workloads.

Every request is loop-description text (so parsing is on the measured
path) plus the store initializer.  The programs are the paper's examples
and the repository's kernel families, written out as text here so the
benchmark hands the program nothing but generated inputs:

* ``warm_ex41`` — example 4.1 (rank-1 PDM, 2 partitions) on every request;
* ``cold_stream`` — rank-1 variable-distance loops, each request a program
  never seen before (scale cycles through 2..6, additive constant drawn
  from a fixed pool without replacement);
* ``full_rank`` — example 4.2, the banded update and the mixed-distance
  kernel (full-rank PDMs, 3-4 lattice partitions), round-robin;
* ``served`` — 32 transcendental row-recurrence variants at N=512, drawn
  Zipf(1) and crossed with two initializers, arriving at a fixed rate.

``PROFILES["tiny"]`` shrinks every size for the benchmark's own tests.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, NamedTuple, Tuple

WORKLOADS: Tuple[str, ...] = ("warm_ex41", "cold_stream", "full_rank", "served")

#: Input sizes.  ``served_rate`` is about a quarter of the ~45 requests/s
#: the served mix sustains on a 2-vCPU host: at 20-30 requests/s, queueing
#: behind program-cache misses on the gateway's single analysis thread
#: spread the median and tail latency by more than 25% across seeds.
PROFILES: Dict[str, Dict[str, object]] = {
    "full": {
        "ex41_n": 256,
        "cold_n": 256,
        "full_rank_n": (64, 128, 64),
        "served_n": 512,
        "served_variants": 32,
        "served_rate": 10.0,
    },
    "tiny": {
        "ex41_n": 6,
        "cold_n": 6,
        "full_rank_n": (4, 6, 4),
        "served_n": 12,
        "served_variants": 4,
        "served_rate": 40.0,
    },
}

COLD_SCALES: Tuple[int, ...] = (2, 3, 4, 5, 6)
#: Additive constants per scale; every (scale, constant) pair is a distinct
#: canonical program.  The pool bounds the inputs whose reference digests
#: are committed — a stream that outruns it continues with fresh constants
#: whose references are computed on demand.
COLD_POOL = 16
SERVED_INITIALIZERS: Tuple[str, ...] = ("index_sum", "random")
#: Requests per round of a closed-loop stream: every round holds the
#: same mix (one program of each cold scale; the three full-rank
#: programs), and a timed window ends on a round's end so that every run
#: measures the same mix whatever its request count.
STREAM_ROUND: Dict[str, int] = {"warm_ex41": 1, "cold_stream": len(COLD_SCALES), "full_rank": 3}
#: The served gateway's response LRU.  At the default 16 entries about 53%
#: of this mix hits, which puts the latency median on the gap between
#: cached and executed responses; at 8 about a third hits and the median
#: lies among executed responses.
SERVED_RESULT_CACHE = 8


class Request(NamedTuple):
    """One request: loop text plus the initializer of its fresh store."""

    text: str
    initializer: str = "index_sum"


def example_4_1(n: int) -> str:
    return (
        f"name: example-4.1\nloop i1 = -{n} .. {n}\nloop i2 = -{n} .. {n}\n"
        "A[i1, i2] = A[-i1 - 2, 2*i1 + i2 + 2] + 1.0\n"
    )


def example_4_2(n: int) -> str:
    return (
        f"name: example-4.2\nloop i1 = -{n} .. {n}\nloop i2 = -{n} .. {n}\n"
        "A[i1, i2] = A[-i1 - 2, -i1 - i2 - 1] * 0.5 + 1.0\n"
        "B[i1, i2] = B[i1 - 2, i2 - 1] + A[i1, i2]\n"
    )


def banded_update(n: int, band: int = 3) -> str:
    return (
        f"name: banded-update\nloop i1 = 0 .. {n}\nloop i2 = 0 .. {n}\n"
        f"A[i1 + i2] = A[i1 + i2 - {band}] * 0.5 + B[i1, i2]\n"
    )


def mixed_distance_kernel(n: int) -> str:
    return (
        f"name: mixed-distance\nloop i1 = -{n} .. {n}\nloop i2 = -{n} .. {n}\n"
        "A[i1, i2] = A[-i1 - 2, -i1 - i2 - 1] + B[i1, i2]\n"
        "B[i1, i2] = B[i1 - 2, i2 - 3] * 0.5 + 1.0\n"
    )


def cold_constant(index: int) -> float:
    """The ``index``-th additive constant: exact in binary, never 1.0."""
    return 1.0 + 0.0625 * (index + 1)


def variable_distance(scale: int, n: int, constant: float) -> str:
    """Rank-1 PDM ``[[scale, -scale]]``: one doall loop, ``scale`` partitions."""
    return (
        f"name: variable-rank1\nloop i1 = -{n} .. {n}\nloop i2 = -{n} .. {n}\n"
        f"A[i1, i2] = A[{1 - scale}*i1 - {scale}, {scale}*i1 + i2 + {scale}] "
        f"+ {constant!r}\n"
    )


def served_variant(variant: int, n: int) -> str:
    """The gateway gate's row recurrence; chunks are the ``n`` rows."""
    c = 0.8 + 0.01 * variant
    return (
        f"name: serve_v{variant}\nloop i1 = 0 .. {n - 1}\nloop i2 = 1 .. {n - 1}\n"
        f"A[i1, i2] = sin(A[i1, i2 - 1]) * 0.5 + cos(A[i1, i2]) * {c:.2f} "
        "+ exp(A[i1, i2] * -0.3)\n"
    )


def full_rank_programs(profile: str) -> List[Request]:
    n42, nband, nmixed = PROFILES[profile]["full_rank_n"]
    return [
        Request(example_4_2(n42)),
        Request(banded_update(nband)),
        Request(mixed_distance_kernel(nmixed)),
    ]


def served_programs(profile: str) -> List[str]:
    sizes = PROFILES[profile]
    return [served_variant(v, sizes["served_n"]) for v in range(sizes["served_variants"])]


def warmup_requests(workload: str, profile: str) -> List[Request]:
    """Requests run during set-up (never part of the timed stream)."""
    sizes = PROFILES[profile]
    if workload == "warm_ex41":
        return [Request(example_4_1(sizes["ex41_n"]))] * 3
    if workload == "cold_stream":
        # Constant 1.0 lies outside the pool, so no timed request repeats it.
        return [Request(variable_distance(2, sizes["cold_n"], 1.0))]
    if workload == "full_rank":
        return full_rank_programs(profile)
    if workload == "served":
        return [Request(text) for text in served_programs(profile)]
    raise ValueError(f"unknown workload {workload!r}")


def _rng(seed: int, part: int) -> random.Random:
    """The generator of part ``part`` of seed ``seed``'s stream."""
    return random.Random(f"{seed}/{part}")


def _cold_stream(rng: random.Random, n: int) -> Iterator[Request]:
    order = {scale: rng.sample(range(COLD_POOL), COLD_POOL) for scale in COLD_SCALES}
    used = {scale: 0 for scale in COLD_SCALES}
    while True:
        # Stratified: each cycle of five requests covers every scale once,
        # so every run sees the same mix of program sizes.
        for scale in rng.sample(COLD_SCALES, len(COLD_SCALES)):
            k = used[scale]
            used[scale] += 1
            index = order[scale][k] if k < COLD_POOL else k
            yield Request(variable_distance(scale, n, cold_constant(index)))


def request_stream(
    workload: str, seed: int, profile: str = "full", part: int = 0
) -> Iterator[Request]:
    """The closed-loop workloads' endless, seed-determined request stream.

    Each of a run's measuring processes draws its own ``part``.
    """
    sizes = PROFILES[profile]
    if workload == "warm_ex41":
        return itertools.repeat(Request(example_4_1(sizes["ex41_n"])))
    if workload == "cold_stream":
        return _cold_stream(_rng(seed, part), sizes["cold_n"])
    if workload == "full_rank":
        programs = full_rank_programs(profile)
        start = _rng(seed, part).randrange(len(programs))
        return itertools.islice(itertools.cycle(programs), start, None)
    raise ValueError(f"{workload!r} has no closed-loop stream")


#: Requests per block of the served stream; each block holds every
#: (variant, initializer) pair in its Zipf(1) proportion.
SERVED_BLOCK = 128


def _zipf_block(variants: int, block: int) -> List[Tuple[int, str]]:
    """Block ``block``'s (variant, initializer) multiset, Zipf(1) by variant.

    Counts are the largest-remainder rounding of ``SERVED_BLOCK * p(v)``
    with ``p(v)`` proportional to ``1 / (v + 1)``; a variant's requests
    alternate between the initializers, starting from a different one in
    consecutive blocks so rare variants see both.
    """
    weights = [1.0 / (rank + 1) for rank in range(variants)]
    quotas = [SERVED_BLOCK * weight / sum(weights) for weight in weights]
    counts = [int(quota) for quota in quotas]
    by_remainder = sorted(range(variants), key=lambda v: quotas[v] - counts[v], reverse=True)
    for variant in by_remainder[: SERVED_BLOCK - sum(counts)]:
        counts[variant] += 1
    return [
        (variant, SERVED_INITIALIZERS[(block + k) % len(SERVED_INITIALIZERS)])
        for variant, count in enumerate(counts)
        for k in range(count)
    ]


def arrival_stream(seed: int, profile: str = "full") -> Iterator[Tuple[float, Request]]:
    """``served``: (seconds since the previous arrival, request).

    Arrivals are evenly spaced at the profile's rate.  Variants are
    Zipf(1), stratified: every block holds the same multiset of (variant,
    initializer) pairs in a seeded order, so runs differ in order but not
    in mix or offered load.  (Poisson arrivals made the median latency
    depend on each seed's bursts: over ten seeds its quartiles spread by
    41% of the median on a 2-vCPU host.)
    """
    gap = 1.0 / PROFILES[profile]["served_rate"]
    rng = _rng(seed, 0)
    texts = served_programs(profile)
    for number in itertools.count():
        block = _zipf_block(len(texts), number)
        for variant, initializer in rng.sample(block, len(block)):
            yield gap, Request(texts[variant], initializer)


def distinct_inputs(workload: str, profile: str = "full") -> List[Request]:
    """Every input a run of ``workload`` draws from the committed pool.

    Seed-independent: seeds only order and sample these.  (``cold_stream``
    continues past the pool with fresh constants on very fast runs.)
    """
    sizes = PROFILES[profile]
    if workload == "warm_ex41":
        return [Request(example_4_1(sizes["ex41_n"]))]
    if workload == "cold_stream":
        return [
            Request(variable_distance(scale, sizes["cold_n"], cold_constant(index)))
            for scale in COLD_SCALES
            for index in range(COLD_POOL)
        ]
    if workload == "full_rank":
        return full_rank_programs(profile)
    if workload == "served":
        return [
            Request(text, initializer)
            for text in served_programs(profile)
            for initializer in SERVED_INITIALIZERS
        ]
    raise ValueError(f"unknown workload {workload!r}")
