"""Feature extraction and annotation (Section III-B of the paper).

Node features (Table II) are annotated during graph construction; this module
adds the *loop-level* features that differentiate pipelined from
non-pipelined loops — initiation interval (II), trip count (TC) and the
pipelining flag.
"""

from __future__ import annotations

import math

from repro.frontend.pragmas import PragmaConfig
from repro.graph.cdfg import LoopLevelFeatures
from repro.hls.directives import all_array_ports, effective_unroll_factors
from repro.hls.op_library import DEFAULT_LIBRARY, OperatorLibrary
from repro.hls.scheduling import initiation_interval
from repro.ir.instructions import Instruction, Opcode
from repro.ir.structure import IfRegion, IRFunction, Loop, Region


def replicated_access_counts(loop: Loop, unroll_factor: int = 1) -> dict[str, int]:
    """Memory accesses per (unrolled) iteration of a pipelined loop.

    Inner loops are fully unrolled inside a pipelined loop, so their accesses
    multiply by their trip counts; the loop's own unroll factor multiplies
    everything once more.
    """
    counts: dict[str, int] = {}

    def visit(region: Region, multiplier: int) -> None:
        for item in region.items:
            if isinstance(item, Instruction):
                if item.opcode in (Opcode.LOAD, Opcode.STORE) and item.array:
                    counts[item.array] = counts.get(item.array, 0) + multiplier
            elif isinstance(item, Loop):
                visit(item.body, multiplier * max(1, item.tripcount))
            elif isinstance(item, IfRegion):
                visit(item.then_region, multiplier)
                visit(item.else_region, multiplier)

    visit(loop.body, max(1, unroll_factor))
    return counts


def analytical_ii(
    function: IRFunction,
    loop: Loop,
    config: PragmaConfig,
    *,
    library: OperatorLibrary = DEFAULT_LIBRARY,
    unroll_factors: dict[str, int] | None = None,
) -> int:
    """The II lower bound ``max(II_rec, II_res)`` used as a loop-level feature."""
    unroll = (
        unroll_factors if unroll_factors is not None
        else effective_unroll_factors(function, config)
    )
    factor = unroll.get(loop.label, 1)
    ports = all_array_ports(function, config)
    access_counts = replicated_access_counts(loop, factor)
    instr_by_id = {instr.instr_id: instr for instr in function.all_instructions()}
    recurrences = [
        rec for rec in function.recurrences if rec.loop_label == loop.label
    ]
    if factor > 1 and recurrences:
        recurrences = [
            type(rec)(
                loop_label=rec.loop_label, distance=rec.distance,
                chain=rec.chain * factor, kind=rec.kind, array=rec.array,
            )
            for rec in recurrences
        ]
    target = config.loop(loop.label).ii
    return initiation_interval(
        recurrences, instr_by_id, access_counts, ports,
        target_ii=target, library=library,
    )


def loop_level_features(
    function: IRFunction,
    loop: Loop,
    config: PragmaConfig,
    *,
    pipelined: bool,
    flattened_levels: int = 1,
    library: OperatorLibrary = DEFAULT_LIBRARY,
    unroll_factors: dict[str, int] | None = None,
) -> LoopLevelFeatures:
    """Loop-level feature vector for one inner-hierarchy loop."""
    unroll = (
        unroll_factors if unroll_factors is not None
        else effective_unroll_factors(function, config)
    )
    factor = unroll.get(loop.label, 1)
    tripcount = max(1, loop.tripcount)
    residual_iterations = max(1, math.ceil(tripcount / max(1, factor)))
    if flattened_levels > 1:
        # flattened perfect nests multiply the iteration count of every level
        current = loop
        for _ in range(flattened_levels - 1):
            subs = current.sub_loops()
            if not subs:
                break
            current = subs[0]
            residual_iterations *= max(1, current.tripcount)
    ii = (
        analytical_ii(
            function, loop, config, library=library, unroll_factors=unroll
        )
        if pipelined else 1
    )
    return LoopLevelFeatures(
        ii=float(ii),
        tripcount=float(residual_iterations),
        pipelined=pipelined,
        unroll_factor=float(factor),
        depth=float(flattened_levels),
    )


__all__ = [
    "replicated_access_counts", "analytical_ii", "loop_level_features",
]
