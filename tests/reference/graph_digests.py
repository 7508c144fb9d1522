"""Committed digests of the default graph builder's output.

``graph_digests.json`` pins, for every registered kernel x {baseline,
aggressive} x ``max_nodes`` in {4096, 64}, the sha256 of
``json.dumps(cdfg_to_payload(graph), sort_keys=True)`` where ``graph`` is
``GraphBuilder(function, config, max_nodes=...).build_function_graph()``
and *aggressive* unrolls every loop by 2 and partitions every array
cyclically by 4.  The digests were recorded while the dict-feature CDFG
still existed and was proven bit-equal to the columnar one, so they keep
guarding that equivalence now that only the columnar storage is left.

Regenerate after an intentional change to graph construction:

    PYTHONPATH=src python tests/reference/graph_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.frontend import ArrayDirective, LoopDirective, PartitionType, PragmaConfig
from repro.graph.cache import cdfg_to_payload
from repro.graph.construction import GraphBuilder
from repro.kernels import KERNEL_SOURCES, load_kernel

DIGESTS_PATH = Path(__file__).with_name("graph_digests.json")
MAX_NODES = (4096, 64)


def aggressive_config(function) -> PragmaConfig:
    """Unroll 2 on every loop, cyclic 4 on every array."""
    return PragmaConfig.from_dicts(
        loops={
            loop.label: LoopDirective(unroll_factor=2)
            for loop in function.all_loops()
        },
        arrays={
            name: ArrayDirective(PartitionType.CYCLIC, factor=4, dim=1)
            for name in function.arrays
        },
    )


def digest_cases():
    """``(key, function, config, max_nodes)`` for every pinned graph."""
    for kernel in sorted(KERNEL_SOURCES):
        function = load_kernel(kernel)
        configs = (
            ("baseline", PragmaConfig()),
            ("aggressive", aggressive_config(function)),
        )
        for config_name, config in configs:
            for max_nodes in MAX_NODES:
                yield (
                    f"{kernel}/{config_name}/{max_nodes}", function, config,
                    max_nodes,
                )


def graph_digest(graph) -> str:
    """sha256 of the graph's sorted-key JSON payload."""
    payload = json.dumps(cdfg_to_payload(graph), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compute_graph_digests() -> dict[str, str]:
    """Digests of the current builder's output, keyed like the JSON file."""
    return {
        key: graph_digest(
            GraphBuilder(function, config, max_nodes=max_nodes)
            .build_function_graph()
        )
        for key, function, config, max_nodes in digest_cases()
    }


def committed_graph_digests() -> dict[str, str]:
    """The digests pinned in ``graph_digests.json``."""
    return json.loads(DIGESTS_PATH.read_text())["digests"]


def main(argv: list[str]) -> int:
    """Print how many digests differ; ``--write`` rewrites the JSON file."""
    current = compute_graph_digests()
    if "--write" in argv:
        DIGESTS_PATH.write_text(json.dumps({
            "regenerate": "PYTHONPATH=src python tests/reference/graph_digests.py --write",
            "digests": current,
        }, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(current)} digests to {DIGESTS_PATH}")
        return 0
    committed = committed_graph_digests()
    changed = sorted(key for key in current if committed.get(key) != current[key])
    print(f"{len(current) - len(changed)}/{len(current)} digests match")
    for key in changed:
        print(f"  differs: {key}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
