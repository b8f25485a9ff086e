"""Reference outputs: interpreter digests of every distinct input.

A digest records, per array, the SHA-256 of its origin, shape, dtype and
bytes, plus the array's sum.  References come from
``repro.runtime.interpreter.execute_nest`` on the original (untransformed)
nest.  The committed ``reference_digests.json`` holds every input of the
default profile's pools; anything else is computed on demand.

``repro`` is imported lazily so that importing this module costs nothing
inside a workload's measured set-up.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Tuple

from perfbench.programs import Request

REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_digests.json")

Digest = Dict[str, List]


def input_key(request: Request) -> str:
    payload = f"{request.initializer}\n{request.text}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:24]


def store_digest(store) -> Digest:
    """``{array: [sha256 hex, sum]}`` of an ``ArrayStore``."""
    digest: Digest = {}
    for name in sorted(store):
        data = store[name].data
        header = f"{store[name].origin}|{data.shape}|{data.dtype}|".encode("utf-8")
        sha = hashlib.sha256(header)
        sha.update(data.tobytes())
        digest[name] = [sha.hexdigest(), float(data.sum())]
    return digest


def same_output(digest: Digest, reference: Digest) -> bool:
    """Bit-for-bit: every array's hash matches (sums are informative)."""
    return {name: entry[0] for name, entry in digest.items()} == {
        name: entry[0] for name, entry in reference.items()
    }


def reference_digest(request: Request) -> Digest:
    """Run the interpreter on the parsed nest from a freshly built store."""
    from repro.api.inputs import parse_loop_text
    from repro.runtime.arrays import store_for_nest
    from repro.runtime.interpreter import execute_nest

    nest = parse_loop_text(request.text)
    store = store_for_nest(nest, initializer=request.initializer)
    execute_nest(nest, store)
    return store_digest(store)


def load_committed(path: str = REFERENCE_FILE) -> Dict[str, Digest]:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return {key: entry["digest"] for key, entry in json.load(handle)["inputs"].items()}


def references_for(
    requests: Iterable[Request], committed: Dict[str, Digest]
) -> Tuple[Dict[str, Digest], int]:
    """Digests for ``requests`` and how many had to be computed on demand."""
    found: Dict[str, Digest] = {}
    computed = 0
    for request in requests:
        key = input_key(request)
        if key in found:
            continue
        if key in committed:
            found[key] = committed[key]
        else:
            found[key] = reference_digest(request)
            computed += 1
    return found, computed


def write_committed(entries: Dict[str, Tuple[str, Digest]], path: str = REFERENCE_FILE) -> None:
    """Merge ``{key: (label, digest)}`` into the committed file."""
    data = {"version": 1, "inputs": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    for key, (label, digest) in entries.items():
        data["inputs"][key] = {"label": label, "digest": digest}
    data["inputs"] = dict(sorted(data["inputs"].items()))
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
