"""``run.py reference``: compute interpreter digests for a workload's inputs.

    python3 perfbench/run.py reference --workload all --write

computes the digest of every distinct input that the committed
``reference_digests.json`` lacks (the interpreter runs in one spawned
process per CPU), prints one line per input and, with ``--write``, merges
them into the committed file.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
from typing import List

from perfbench import digests, programs


def _label(workload: str, request: programs.Request) -> str:
    body = request.text.strip().splitlines()[-1]
    loops = [line for line in request.text.splitlines() if line.startswith("loop ")]
    return f"{workload}: {loops[0]} | {body} | {request.initializer}"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py reference")
    parser.add_argument("--workload", default="all", choices=("all",) + programs.WORKLOADS)
    parser.add_argument("--write", action="store_true", help="merge into the committed file")
    args = parser.parse_args(argv)
    workloads = programs.WORKLOADS if args.workload == "all" else (args.workload,)
    committed = digests.load_committed()
    todo = []
    for workload in workloads:
        for request in programs.distinct_inputs(workload):
            key = digests.input_key(request)
            if key not in committed and all(key != queued for _, queued, _ in todo):
                todo.append((workload, key, request))
    print(f"{len(todo)} reference(s) to compute")
    requests = [request for _, _, request in todo]
    jobs = min(len(os.sched_getaffinity(0)), len(requests))
    if jobs > 1:
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            results = pool.map(digests.reference_digest, requests, chunksize=1)
    else:
        results = [digests.reference_digest(request) for request in requests]
    entries = {}
    for (workload, key, request), digest in zip(todo, results):
        entries[key] = (_label(workload, request), digest)
        print(key, entries[key][0], {name: entry[1] for name, entry in digest.items()})
    if args.write and entries:
        digests.write_committed(entries)
        print(f"wrote {len(entries)} digest(s) to {digests.REFERENCE_FILE}")
    return 0
