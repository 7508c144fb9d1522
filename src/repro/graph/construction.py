"""Pragma-aware CDFG construction (Section III-A of the paper).

The builder turns an :class:`~repro.ir.structure.IRFunction` plus a
:class:`~repro.frontend.pragmas.PragmaConfig` into a :class:`CDFG`:

* **loop pipelining** leaves the graph unchanged (it is captured through
  loop-level features instead);
* **loop unrolling** replicates the logic nodes of the unrolled region and
  rewires data edges to the original predecessors/successors (Fig. 2b);
* **array partitioning** inserts one memory-port node per bank and connects
  each load/store to the banks it can actually touch, determined from the
  affine access map and the partition type (Fig. 2c);
* loops listed in ``condense_loops`` are emitted as a single *super node*
  (used by the hierarchical approach to represent an already-predicted inner
  loop), replicated when their parent loop is unrolled (Fig. 3).

Unrolled loops are materialized through **replica replay**: replica 0 of the
loop body is emitted node-by-node while a recorder captures the span of
nodes/edges it produced (plus the pieces that vary between replicas), and
replicas 1..F-1 are bulk copies of that span with vectorized id remapping.
Only the replica-dependent pieces are recomputed per copy: memory-bank
connections (the induction-variable offset changes the reachable banks),
replica indices of the loop's direct children, and the sequential control
edge chaining each replica to its predecessor.  Nested unrolled loops replay
recursively — their materialized copies are part of the recorded span of the
enclosing loop.  The node-by-node path remains available (``replay_unroll``
or :func:`naive_emission`) and is the reference the differential tests in
``tests/graph/test_replay_equivalence.py`` compare against.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.frontend.pragmas import ArrayDirective, PartitionType, PragmaConfig
from repro.graph.cache import FunctionSkeleton
from repro.graph.cdfg import CDFG, FEATURE_COLUMN, EdgeKind, NodeKind
from repro.hls.directives import effective_unroll_factors, partition_banks
from repro.hls.op_library import DEFAULT_LIBRARY, MEMORY_PORT, OperatorLibrary
from repro.ir.instructions import Instruction, Opcode
from repro.ir.structure import IfRegion, IRFunction, Loop, Region

#: Optype strings for the two extension node categories.
IOPORT_OPTYPE = "ioport"
SUPER_PIPELINED_OPTYPE = "super_p"
SUPER_NONPIPELINED_OPTYPE = "super_np"

#: Process-wide default for the replica-replay fast path; individual builders
#: may override it via the ``replay_unroll`` constructor argument.
DEFAULT_REPLAY_UNROLL = True

#: sentinels for the memoized bank-connection rules (compared by identity)
_BANKS_FIXED = "fixed"
_BANKS_CYCLIC = "cyclic"

#: feature-column indices written during emission
_COL_INVOCATIONS = FEATURE_COLUMN["invocations"]
_COL_IN_DEGREE = FEATURE_COLUMN["in_degree"]
_COL_OUT_DEGREE = FEATURE_COLUMN["out_degree"]


@contextmanager
def naive_emission():
    """Temporarily force node-by-node emission (the replay reference path).

    Used by the differential tests and benchmarks to build graphs through
    code paths (``decompose``, ``predict``) that do not expose the builder.
    Naive emission writes the same columnar storage as replica replay, one
    node at a time.
    """
    global DEFAULT_REPLAY_UNROLL
    previous = DEFAULT_REPLAY_UNROLL
    DEFAULT_REPLAY_UNROLL = False
    try:
        yield
    finally:
        DEFAULT_REPLAY_UNROLL = previous


@contextmanager
def _gc_paused():
    """Suspend the cyclic garbage collector for the duration of one build.

    Construction allocates tens of thousands of small acyclic objects
    (column entries, value scopes, replay records); generation-0
    collections triggered mid-build re-scan the growing graph without ever
    finding a cycle to free.  Pausing the collector removes those stalls —
    and their large run-to-run variance — from the hot path.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# --------------------------------------------------------------------------- #
# internal helpers
# --------------------------------------------------------------------------- #
class _ValueScope:
    """Maps IR instruction ids to CDFG node ids, with lexical nesting."""

    def __init__(self, parent: "_ValueScope | None" = None):
        self.parent = parent
        self._map: dict[int, int] = {}

    def bind(self, instr_id: int, node_id: int) -> None:
        self._map[instr_id] = node_id

    def lookup(self, instr_id: int) -> int | None:
        scope: _ValueScope | None = self
        while scope is not None:
            if instr_id in scope._map:
                return scope._map[instr_id]
            scope = scope.parent
        return None


@dataclass
class _LoopContext:
    """Per-enclosing-loop state during emission."""

    label: str
    var: str
    residual_tripcount: int
    unroll_factor: int
    replica: int = 0


@dataclass
class _EmitState:
    """Carried through the recursive emission of a region."""

    scope: _ValueScope
    loops: tuple[_LoopContext, ...] = ()
    #: iteration offset per induction variable introduced by unrolling
    offsets: dict[str, int] = field(default_factory=dict)
    prev_node: int | None = None
    #: recorders for which ``prev_node`` still holds the value observed at
    #: their replica entry (i.e. it was carried, never reassigned, since the
    #: recorder started its replica 0).  The sequential control edge created
    #: from such a predecessor must be rewired to the *previous replica's
    #: exit* when the span is replayed; every other edge replays by position.
    entry_recs: tuple = ()


@dataclass
class _ReplayRecorder:
    """Captures what one unrolled-loop replica emitted, for bulk replay.

    ``node_start``/``edge_start`` delimit the recorded span.  The remaining
    fields capture exactly the replica-dependent pieces:

    * ``replica_nodes`` — span-relative ids of nodes whose innermost
      enclosing loop is the recorded loop (their ``replica`` index must be
      rewritten per copy);
    * ``entry_dsts``/``entry_edge_ids`` — destinations of sequential control
      edges whose source was carried from the replica entry (rewired to the
      previous replica's exit on copy; registered even when no edge was
      created because the entry predecessor was ``None``);
    * ``mem_events`` — one record per load/store/super-node memory
      connection, so bank edges can be recomputed under the copy's
      induction-variable offset;
    * ``max_checkpoint`` — the largest span-relative node count at which a
      nested unroll performed a ``max_nodes`` budget check (-1 when none
      did).  A copy is only safe when no nested check would flip at the
      copy's base offset, and ``base + point >= max_nodes`` holds for some
      recorded point iff it holds for the maximum.
    """

    node_start: int
    edge_start: int
    context0: _LoopContext
    replica_nodes: list[int] = field(default_factory=list)
    entry_dsts: list[int] = field(default_factory=list)
    entry_edge_ids: list[int] = field(default_factory=list)
    mem_events: list[tuple] = field(default_factory=list)
    max_checkpoint: int = -1


class GraphBuilder:
    """Builds pragma-aware CDFGs from an IR function and a design point."""

    #: process-wide count of graphs actually constructed (tests use this to
    #: prove that warm caches serve sweeps without any construction at all)
    build_count = 0
    #: process-wide wall time spent inside graph construction; benchmarks use
    #: it to isolate the construction stage of a cold DSE sweep
    build_seconds = 0.0

    def __init__(
        self,
        function: IRFunction,
        config: PragmaConfig | None = None,
        library: OperatorLibrary = DEFAULT_LIBRARY,
        *,
        pragma_aware: bool = True,
        condense_loops: dict[str, bool] | None = None,
        max_replication: int = 64,
        max_nodes: int = 4096,
        skeleton: FunctionSkeleton | None = None,
        unroll_factors: dict[str, int] | None = None,
        replay_unroll: bool | None = None,
    ):
        """
        Parameters
        ----------
        function:
            The lowered kernel.
        config:
            The design point (pragma configuration).  ``None`` means the
            baseline configuration (no directives).
        pragma_aware:
            When False the graph ignores the configuration entirely (no node
            replication, a single port per array) — this reproduces the
            pragma-blind graphs of the Wu et al. baseline.
        condense_loops:
            Maps loop labels to a "pipelined" flag; those loops are emitted
            as super nodes instead of expanding their bodies.
        max_replication:
            Safety cap on the number of replicas created for one loop.
        max_nodes:
            Soft budget on the total graph size: once exceeded, further
            unroll replicas are not materialized (the already-annotated
            ``invocations`` features still carry the iteration counts).
        skeleton:
            Optional pre-computed pragma-independent analysis of ``function``
            (see :class:`~repro.graph.cache.FunctionSkeleton`); when given,
            IR walks and operator characterizations are looked up instead of
            recomputed.
        unroll_factors:
            Optional pre-computed ``effective_unroll_factors(function,
            config)`` result, so callers that already resolved the factors
            (e.g. cached decomposition) avoid re-walking the loop tree.
            Ignored when ``pragma_aware`` is False.
        replay_unroll:
            Whether unrolled loops use the replica-replay fast path.
            ``None`` defers to the module default (:data:`DEFAULT_REPLAY_UNROLL`,
            see :func:`naive_emission`); False forces node-by-node emission.
        """
        self.function = function
        self.config = config or PragmaConfig()
        self.library = library
        self.pragma_aware = pragma_aware
        self.condense_loops = dict(condense_loops or {})
        self.max_replication = max_replication
        self.max_nodes = max_nodes
        self.skeleton = skeleton
        self.replay_unroll = (
            DEFAULT_REPLAY_UNROLL if replay_unroll is None else replay_unroll
        )
        self._var_to_loop: dict[str, str] | None = (
            skeleton.var_to_loop if skeleton is not None else None
        )
        if not pragma_aware:
            self.unroll = {loop.label: 1 for loop in function.all_loops()}
        elif unroll_factors is not None:
            self.unroll = unroll_factors
        else:
            self.unroll = effective_unroll_factors(function, self.config)
        self.cdfg = CDFG(name=function.name)
        self._port_nodes: dict[str, list[int]] = {}
        #: memoized per-instruction bank-connection rules (see _bank_rule)
        self._bank_rules: dict[int, tuple] = {}
        #: stack of active replay recorders (innermost last)
        self._recorders: list[_ReplayRecorder] = []

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def build_function_graph(self) -> CDFG:
        """CDFG of the whole function body."""
        GraphBuilder.build_count += 1
        started = perf_counter()
        with _gc_paused():
            self._add_memory_ports(self.function.arrays.values())
            state = _EmitState(scope=_ValueScope())
            self._emit_region(self.function.body, state)
            self._finalize()
        GraphBuilder.build_seconds += perf_counter() - started
        return self.cdfg

    def build_loop_graph(self, loop: Loop) -> CDFG:
        """CDFG of a single loop nest (an inner-hierarchy unit)."""
        GraphBuilder.build_count += 1
        started = perf_counter()
        with _gc_paused():
            self.cdfg = CDFG(name=f"{self.function.name}:{loop.label}")
            self._port_nodes = {}
            self._bank_rules = {}
            touched = self._arrays_touched(loop)
            self._add_memory_ports(
                info for name, info in self.function.arrays.items()
                if name in touched
            )
            state = _EmitState(scope=_ValueScope())
            self._emit_loop(loop, state)
            self._finalize()
        GraphBuilder.build_seconds += perf_counter() - started
        return self.cdfg

    # ------------------------------------------------------------------ #
    # memory ports
    # ------------------------------------------------------------------ #
    #: feature row of every memory-port node (ports are characterized by the
    #: fixed MEMORY_PORT operator; in/out degree and work are finalized later)
    _PORT_FEATURE_ROW = (
        1.0, 0.0, 0.0, float(MEMORY_PORT.cycles), MEMORY_PORT.delay_ns,
        float(MEMORY_PORT.lut), float(MEMORY_PORT.dsp), float(MEMORY_PORT.ff),
        0.0,
    )

    def _add_memory_ports(self, arrays) -> None:
        feat = self.cdfg.feat
        port_row = self._PORT_FEATURE_ROW
        for info in arrays:
            directive = (
                self.config.array(info.name) if self.pragma_aware else ArrayDirective()
            )
            banks = partition_banks(info, directive) if self.pragma_aware else 1
            banks = min(banks, self.max_replication)
            node_ids = []
            for bank in range(banks):
                node_id = self.cdfg.append_node(
                    IOPORT_OPTYPE, NodeKind.MEMORY_PORT, info.dtype,
                    "", info.name, -1, bank,
                )
                feat.matrix[node_id] = port_row
                node_ids.append(node_id)
            self._port_nodes[info.name] = node_ids

    def _connected_banks(
        self, instr: Instruction, offsets: dict[str, int]
    ) -> list[int]:
        """Which memory-port banks a load/store may touch.

        Follows the paper: LLVM-pass style analysis of the index expression
        determines the target bank when it is statically known; dynamic or
        unanalysable indices connect to every port.  Everything except the
        induction-variable offsets is fixed for one builder, so the analysis
        is resolved once per instruction (:meth:`_bank_rule`) and each call
        only folds the offsets into the affine index.
        """
        rule = self._bank_rules.get(instr.instr_id)
        if rule is None:
            rule = self._bank_rule(instr)
            self._bank_rules[instr.instr_id] = rule
        kind, result, banks, const, entries = rule
        if kind is not _BANKS_CYCLIC:
            return result
        # index ≡ sum(coeff * (unroll_base + offset)) + const (mod banks);
        # the bank is fixed when every varying term is a multiple of banks.
        fixed = const
        for var, coeff, bad_present, bad_absent in entries:
            offset = offsets.get(var)
            if offset is None:
                if bad_absent:
                    return result
            elif bad_present:
                return result
            else:
                fixed += coeff * offset
        return [fixed % banks]

    def _bank_rule(self, instr: Instruction) -> tuple:
        """Offset-independent part of the bank-connection analysis.

        ``(_BANKS_FIXED, result, ...)`` rules resolve to the same bank list
        under every offset; ``(_BANKS_CYCLIC, all_banks, banks, const,
        entries)`` rules fold the offsets into the affine index at call time
        (``result`` doubles as the all-banks fallback).
        """
        ports = self._port_nodes.get(instr.array, [])
        if len(ports) <= 1:
            return (_BANKS_FIXED, list(range(len(ports))), 0, 0, ())
        info = self.function.arrays[instr.array]
        directive = self.config.array(instr.array)
        banks = len(ports)
        all_banks = list(range(banks))
        access = instr.access
        if access is None or not access.is_affine:
            return (_BANKS_FIXED, all_banks, banks, 0, ())
        dim = min(max(directive.dim, 1), max(1, access.ndims)) - 1
        coeffs = access.dim_map(dim)
        const = access.dim_const(dim)
        if directive.partition_type in (PartitionType.CYCLIC, PartitionType.COMPLETE):
            entries = []
            for var, coeff in coeffs.items():
                factor = self.unroll.get(self._loop_of_var(var), 1)
                entries.append((
                    var, coeff,
                    (coeff * factor) % banks != 0,  # unresolvable when offset known
                    coeff % banks != 0,             # unresolvable when offset unknown
                ))
            return (_BANKS_CYCLIC, all_banks, banks, const, tuple(entries))
        # block partitioning: the bank changes as outer iterations advance,
        # so only constant indices resolve to a single bank.
        if any(coeff != 0 for coeff in coeffs.values()):
            return (_BANKS_FIXED, all_banks, banks, 0, ())
        dim_size = info.dims[dim] if dim < len(info.dims) else info.total_size
        block = max(1, -(-dim_size // banks))
        return (_BANKS_FIXED, [min(banks - 1, const // block)], banks, 0, ())

    def _loop_of_var(self, var: str) -> str:
        if self._var_to_loop is None:
            # first loop wins for duplicated induction-variable names,
            # matching the original linear scan
            self._var_to_loop = {}
            for loop in self.function.all_loops():
                self._var_to_loop.setdefault(loop.var, loop.label)
        return self._var_to_loop.get(var, "")

    def _characterize(self, instr: Instruction):
        if self.skeleton is not None:
            return self.skeleton.characterize(instr, self.library)
        return self.library.lookup_instr(instr)

    def _arrays_touched(self, loop: Loop) -> set[str]:
        if self.skeleton is not None:
            return set(self.skeleton.touched_arrays(loop.label))
        touched = set()
        for instr in loop.body.walk_instructions():
            if instr.array:
                touched.add(instr.array)
        return touched

    # ------------------------------------------------------------------ #
    # replay bookkeeping
    # ------------------------------------------------------------------ #
    def _chain_edge(self, state: _EmitState, dst: int) -> None:
        """Sequential control edge from the carried predecessor.

        Registers the destination with every recorder whose replica-entry
        predecessor is still carried in ``state.prev_node`` — on replay the
        edge source becomes the previous replica's exit node (and the edge is
        created even when the recorded replica had no predecessor at all).
        """
        if state.entry_recs:
            for rec in state.entry_recs:
                rec.entry_dsts.append(dst - rec.node_start)
                if state.prev_node is not None:
                    rec.entry_edge_ids.append(self.cdfg.num_edges)
        if state.prev_node is not None:
            self.cdfg.add_edge(state.prev_node, dst, EdgeKind.CONTROL)

    def _add_memory_edges(
        self, node_id: int, instr: Instruction, offsets: dict[str, int],
        is_load: bool,
    ) -> None:
        """Connect a load/store (or super-node access) to its port banks."""
        ports = self._port_nodes[instr.array]
        if self._recorders:
            for rec in self._recorders:
                rec.mem_events.append(
                    (node_id - rec.node_start, instr, offsets, is_load)
                )
        add_edge = self.cdfg.add_edge
        for bank in self._connected_banks(instr, offsets):
            if is_load:
                add_edge(ports[bank], node_id, EdgeKind.MEMORY)
            else:
                add_edge(node_id, ports[bank], EdgeKind.MEMORY)

    def _budget_check(self) -> bool:
        """The per-replica ``max_nodes`` check, recorded for replay safety."""
        count = self.cdfg.num_nodes
        for rec in self._recorders:
            relative = count - rec.node_start
            if relative > rec.max_checkpoint:
                rec.max_checkpoint = relative
        return count >= self.max_nodes

    def _record_replica_node(self, state: _EmitState, node_id: int) -> None:
        """Note nodes whose ``replica`` index the replay must rewrite."""
        rec = self._recorders[-1]
        if state.loops and state.loops[-1] is rec.context0:
            rec.replica_nodes.append(node_id - rec.node_start)

    # ------------------------------------------------------------------ #
    # region / loop emission
    # ------------------------------------------------------------------ #
    def _emit_region(self, region: Region, state: _EmitState) -> None:
        for item in region.items:
            if isinstance(item, Instruction):
                self._emit_instruction(item, state)
            elif isinstance(item, Loop):
                self._emit_loop(item, state)
            elif isinstance(item, IfRegion):
                self._emit_if(item, state)

    def _emit_instruction(self, instr: Instruction, state: _EmitState) -> int:
        if instr.opcode is Opcode.ALLOCA:
            return -1
        loop_label = state.loops[-1].label if state.loops else ""
        replica = state.loops[-1].replica if state.loops else 0
        optype = (
            instr.opcode.value if instr.opcode is not Opcode.CALL else instr.callee
        )
        invocations = float(self._invocations(state))
        char = self._characterize(instr)
        node_id = self.cdfg.append_node(
            optype, NodeKind.OPERATION, instr.dtype, loop_label,
            instr.array, instr.instr_id, replica,
        )
        self.cdfg.feat.matrix[node_id] = (
            invocations, 0.0, 0.0, float(char.cycles), char.delay_ns,
            float(char.lut), float(char.dsp), float(char.ff),
            float(max(1, char.cycles)) * invocations,
        )
        if self._recorders:
            self._record_replica_node(state, node_id)
        # data-flow edges from producing nodes
        for operand in instr.value_operands:
            src = state.scope.lookup(operand.instr_id)
            if src is not None:
                self.cdfg.add_edge(src, node_id, EdgeKind.DATA)
        # sequential control edge (program order within the region)
        self._chain_edge(state, node_id)
        state.prev_node = node_id
        state.entry_recs = ()
        state.scope.bind(instr.instr_id, node_id)
        # memory edges to/from port banks
        if instr.opcode in (Opcode.LOAD, Opcode.STORE) and instr.array in self._port_nodes:
            self._add_memory_edges(
                node_id, instr, state.offsets, instr.opcode is Opcode.LOAD
            )
        return node_id

    def _invocations(self, state: _EmitState) -> int:
        total = 1
        for context in state.loops:
            total *= max(1, context.residual_tripcount)
        return total

    def _emit_loop(self, loop: Loop, state: _EmitState) -> None:
        if loop.label in self.condense_loops:
            self._emit_super_node(loop, state)
            return
        factor = self.unroll.get(loop.label, 1)
        tripcount = max(1, loop.tripcount)
        factor = min(factor, tripcount, self.max_replication)
        residual = max(1, tripcount // factor)
        fully_unrolled = factor >= tripcount

        header_nodes: list[int] = []
        loop_scope = _ValueScope(parent=state.scope)
        if not fully_unrolled:
            for instr in loop.header_instrs + loop.latch_instrs:
                invocations = float(self._invocations(state) * residual)
                char = self._characterize(instr)
                node_id = self.cdfg.append_node(
                    instr.opcode.value, NodeKind.OPERATION, instr.dtype,
                    loop.label, "", instr.instr_id, 0,
                )
                self.cdfg.feat.matrix[node_id] = (
                    invocations, 0.0, 0.0, float(char.cycles), char.delay_ns,
                    float(char.lut), float(char.dsp), float(char.ff),
                    float(max(1, char.cycles)) * invocations,
                )
                loop_scope.bind(instr.instr_id, node_id)
                header_nodes.append(node_id)
            # wire header control/data flow: phi -> icmp -> br, phi -> incr
            if len(header_nodes) >= 4:
                phi, icmp, br, incr = header_nodes[:4]
                self.cdfg.add_edge(phi, icmp, EdgeKind.DATA)
                self.cdfg.add_edge(icmp, br, EdgeKind.DATA)
                self.cdfg.add_edge(phi, incr, EdgeKind.DATA)
                self.cdfg.add_edge(incr, phi, EdgeKind.DATA)
                self._chain_edge(state, phi)
                state.prev_node = br
                state.entry_recs = ()

        if factor > 1 and self.replay_unroll:
            self._emit_replicated_loop(loop, state, loop_scope, factor, residual)
            return

        for replica in range(factor):
            if replica > 0 and self._budget_check():
                break
            replica_state = self._replica_state(
                loop, state, loop_scope, factor, residual, replica
            )
            self._emit_region(loop.body, replica_state)
            if replica_state.prev_node is not None:
                state.prev_node = replica_state.prev_node
                state.entry_recs = replica_state.entry_recs

    def _replica_state(
        self, loop: Loop, state: _EmitState, loop_scope: _ValueScope,
        factor: int, residual: int, replica: int,
        entry_recs: tuple | None = None,
    ) -> _EmitState:
        context = _LoopContext(
            label=loop.label, var=loop.var, residual_tripcount=residual,
            unroll_factor=factor, replica=replica,
        )
        offsets = dict(state.offsets)
        offsets[loop.var] = replica
        return _EmitState(
            scope=_ValueScope(parent=loop_scope), loops=state.loops + (context,),
            offsets=offsets, prev_node=state.prev_node,
            entry_recs=state.entry_recs if entry_recs is None else entry_recs,
        )

    def _emit_replicated_loop(
        self, loop: Loop, state: _EmitState, loop_scope: _ValueScope,
        factor: int, residual: int,
    ) -> None:
        """Replica-replay fast path: emit replica 0, bulk-copy the rest."""
        cdfg = self.cdfg
        node_start = cdfg.num_nodes
        edge_start = cdfg.num_edges
        replica_state = self._replica_state(loop, state, loop_scope, factor, residual, 0)
        rec = _ReplayRecorder(
            node_start=node_start, edge_start=edge_start,
            context0=replica_state.loops[-1],
        )
        replica_state.entry_recs = state.entry_recs + (rec,)
        self._recorders.append(rec)
        try:
            self._emit_region(loop.body, replica_state)
        finally:
            self._recorders.pop()
        if replica_state.prev_node is not None:
            state.prev_node = replica_state.prev_node
            state.entry_recs = tuple(
                r for r in replica_state.entry_recs if r is not rec
            )

        span_stop = cdfg.num_nodes
        # the replica's exit predecessor: remapped per copy when it lies in
        # the span, carried unchanged otherwise (both match naive emission)
        exit_rel = None
        if state.prev_node is not None and state.prev_node >= node_start:
            exit_rel = state.prev_node - node_start

        loop_var = loop.var
        # Bank connectivity is affine in the replica index: the all-banks
        # early returns of _connected_banks depend only on coefficients (not
        # offset values), and the single-bank case is (c0 + k*r) mod banks.
        # Every memory event is therefore either *static* (same edge set in
        # all replicas — folded into the vectorized copy template below) or
        # *linear* (one edge whose bank advances by a fixed stride).
        linear_events: list[tuple[int, list[int], int, int, bool]] = []
        template_src: list[int] = []
        template_dst: list[int] = []
        kinds: list[EdgeKind] = []
        memory_kind = EdgeKind.MEMORY
        stride_cache: dict[int, int] = {}
        for node_rel, instr, offsets, is_load in rec.mem_events:
            ports = self._port_nodes[instr.array]
            banks0 = self._connected_banks(instr, offsets)
            stride = 0
            if len(ports) > 1 and len(banks0) == 1:
                # the bank stride w.r.t. this loop's variable is a property
                # of the access expression alone, shared by all events of
                # the same instruction (their base banks differ)
                stride = stride_cache.get(instr.instr_id)
                if stride is None:
                    shifted = dict(offsets)
                    shifted[loop_var] = offsets[loop_var] + 1
                    stride = (
                        self._connected_banks(instr, shifted)[0] - banks0[0]
                    )
                    stride_cache[instr.instr_id] = stride
            if stride:
                linear_events.append(
                    (node_rel, ports, banks0[0], stride, is_load)
                )
            else:
                node_abs = node_start + node_rel
                for bank in banks0:
                    if is_load:
                        template_src.append(ports[bank])
                        template_dst.append(node_abs)
                    else:
                        template_src.append(node_abs)
                        template_dst.append(ports[bank])
                    kinds.append(memory_kind)

        # copy template: all span edges except memory edges (rebuilt from the
        # classified events) and entry control edges (rewired per copy), plus
        # the static memory edges collected above.  Vectorized remap: in-span
        # endpoints shift by the copy delta, out-of-span endpoints (values
        # produced before the loop, memory ports) stay.
        entry_ids = set(rec.entry_edge_ids)
        span_src = cdfg.edge_src.tolist()
        span_dst = cdfg.edge_dst.tolist()
        span_kinds = cdfg.edge_kinds
        for index in range(edge_start, len(span_src)):
            kind = span_kinds[index]
            if kind is memory_kind or index in entry_ids:
                continue
            template_src.append(span_src[index])
            template_dst.append(span_dst[index])
            kinds.append(kind)
        if template_src:
            src = np.array(template_src, dtype=np.int64)
            dst = np.array(template_dst, dtype=np.int64)
            src_shift = (src >= node_start).astype(np.int64)
            dst_shift = (dst >= node_start).astype(np.int64)
        max_checkpoint = rec.max_checkpoint
        max_nodes = self.max_nodes

        for replica in range(1, factor):
            if self._budget_check():
                break
            base = cdfg.num_nodes
            if max_checkpoint >= 0 and base + max_checkpoint >= max_nodes:
                # a nested unroll's budget check would flip at this offset,
                # truncating elsewhere than in the recorded span — emit this
                # replica node-by-node to preserve exact naive semantics
                fallback_state = self._replica_state(
                    loop, state, loop_scope, factor, residual, replica
                )
                self._emit_region(loop.body, fallback_state)
                if fallback_state.prev_node is not None:
                    state.prev_node = fallback_state.prev_node
                    state.entry_recs = fallback_state.entry_recs
                continue
            chain_prev = state.prev_node
            delta = base - node_start
            if self._recorders:
                if max_checkpoint >= 0:
                    # a naive emission of this replica would run every nested
                    # budget check at base + point; outer recorders need the
                    # worst position to judge the safety of *their* copies
                    for outer in self._recorders:
                        candidate = base - outer.node_start + max_checkpoint
                        if candidate > outer.max_checkpoint:
                            outer.max_checkpoint = candidate
                # events recorded in the same emission state share their
                # offsets dict; shift each distinct dict once per replica
                shift_memo: dict[int, dict] = {}
                for node_rel, instr, offsets, is_load in rec.mem_events:
                    shifted = shift_memo.get(id(offsets))
                    if shifted is None:
                        shifted = dict(offsets)
                        shifted[loop_var] = replica
                        shift_memo[id(offsets)] = shifted
                    for outer in self._recorders:
                        outer.mem_events.append(
                            (base + node_rel - outer.node_start,
                             instr, shifted, is_load)
                        )
            # one slice copy per node column
            cdfg.extend_replica_span(node_start, span_stop)
            replicas = cdfg.node_replicas
            for rel in rec.replica_nodes:
                replicas[base + rel] = replica
            if template_src:
                cdfg._edges.extend(src + delta * src_shift, dst + delta * dst_shift)
                cdfg.edge_kinds.extend(kinds)
            if chain_prev is not None:
                for dst_rel in rec.entry_dsts:
                    cdfg.add_edge(chain_prev, base + dst_rel, EdgeKind.CONTROL)
            edge_append = cdfg._edges.append
            kind_append = cdfg.edge_kinds.append
            for node_rel, ports, bank0, stride, is_load in linear_events:
                bank = (bank0 + stride * replica) % len(ports)
                if is_load:
                    edge_append(ports[bank], base + node_rel)
                else:
                    edge_append(base + node_rel, ports[bank])
                kind_append(memory_kind)
            if exit_rel is not None:
                state.prev_node = base + exit_rel
                state.entry_recs = ()

    def _emit_super_node(self, loop: Loop, state: _EmitState) -> None:
        pipelined = self.condense_loops.get(loop.label, False)
        optype = SUPER_PIPELINED_OPTYPE if pipelined else SUPER_NONPIPELINED_OPTYPE
        replica = state.loops[-1].replica if state.loops else 0
        node_id = self.cdfg.append_node(
            optype, NodeKind.SUPER_NODE, "i32", loop.label, "", -1, replica,
        )
        self.cdfg.feat.matrix[node_id, _COL_INVOCATIONS] = float(
            self._invocations(state)
        )
        if self._recorders:
            self._record_replica_node(state, node_id)
        # data edges from outer values consumed inside the condensed loop
        if self.skeleton is not None:
            inner_ids = self.skeleton.inner_instr_ids(loop.label)
            external_uses_sorted = self.skeleton.external_uses(loop.label)
            memory_instrs = self.skeleton.memory_instructions(loop.label)
        else:
            inner_ids = {instr.instr_id for instr in loop.body.walk_instructions()}
            inner_ids |= {instr.instr_id for instr in loop.header_instrs}
            inner_ids |= {instr.instr_id for instr in loop.latch_instrs}
            external_uses: set[int] = set()
            for instr in loop.body.walk_instructions():
                for operand in instr.value_operands:
                    if operand.instr_id not in inner_ids:
                        external_uses.add(operand.instr_id)
            external_uses_sorted = sorted(external_uses)
            memory_instrs = [
                instr for instr in loop.body.walk_instructions()
                if instr.opcode in (Opcode.LOAD, Opcode.STORE)
            ]
        for instr_id in external_uses_sorted:
            src = state.scope.lookup(instr_id)
            if src is not None:
                self.cdfg.add_edge(src, node_id, EdgeKind.DATA)
        # memory edges between the super node and the banks of arrays it uses
        for instr in memory_instrs:
            if instr.array not in self._port_nodes:
                continue
            self._add_memory_edges(
                node_id, instr, state.offsets, instr.opcode is Opcode.LOAD
            )
        # values defined inside and used outside resolve to the super node
        for instr_id in inner_ids:
            state.scope.bind(instr_id, node_id)
        self._chain_edge(state, node_id)
        state.prev_node = node_id
        state.entry_recs = ()

    def _emit_if(self, if_region: IfRegion, state: _EmitState) -> None:
        cond_node = state.scope.lookup(if_region.cond_instr_id)
        for region in (if_region.then_region, if_region.else_region):
            # the branch predecessor is scope-resolved (the condition node),
            # so it replays by span position — never as a replica-entry edge
            branch_state = _EmitState(
                scope=_ValueScope(parent=state.scope), loops=state.loops,
                offsets=dict(state.offsets), prev_node=cond_node,
            )
            self._emit_region(region, branch_state)
            # propagate bindings of the branch into the parent scope so that
            # select nodes emitted after the if-region find their operands.
            for instr in region.walk_instructions():
                node_id = branch_state.scope.lookup(instr.instr_id)
                if node_id is not None:
                    state.scope.bind(instr.instr_id, node_id)
            if branch_state.prev_node is not None:
                state.prev_node = branch_state.prev_node
                state.entry_recs = branch_state.entry_recs

    # ------------------------------------------------------------------ #
    # finalization
    # ------------------------------------------------------------------ #
    def _finalize(self) -> None:
        in_degree, out_degree = self.cdfg.degree_arrays()
        # every node owns its feature row, so the degree columns are written
        # in two vectorized assignments.  Write the backing matrix, not the
        # (read-only) view.
        feat = self.cdfg.feat
        count = feat.count
        feat.matrix[:count, _COL_IN_DEGREE] = in_degree
        feat.matrix[:count, _COL_OUT_DEGREE] = out_degree
        self.cdfg.metadata["kernel"] = self.function.name
        self.cdfg.metadata["config"] = self.config.describe()


# --------------------------------------------------------------------------- #
# convenience wrappers
# --------------------------------------------------------------------------- #
def build_flat_graph(
    function: IRFunction,
    config: PragmaConfig | None = None,
    *,
    pragma_aware: bool = True,
    library: OperatorLibrary = DEFAULT_LIBRARY,
    replay_unroll: bool | None = None,
) -> CDFG:
    """Whole-function CDFG (optionally pragma-blind for the Wu baseline)."""
    builder = GraphBuilder(
        function, config, library, pragma_aware=pragma_aware,
        replay_unroll=replay_unroll,
    )
    return builder.build_function_graph()


def build_loop_subgraph(
    function: IRFunction,
    loop: Loop,
    config: PragmaConfig | None = None,
    *,
    library: OperatorLibrary = DEFAULT_LIBRARY,
    replay_unroll: bool | None = None,
) -> CDFG:
    """CDFG of one loop nest under the given configuration."""
    builder = GraphBuilder(function, config, library, replay_unroll=replay_unroll)
    return builder.build_loop_graph(loop)


__all__ = [
    "GraphBuilder", "build_flat_graph", "build_loop_subgraph",
    "effective_unroll_factors", "partition_banks", "naive_emission",
    "DEFAULT_REPLAY_UNROLL",
    "IOPORT_OPTYPE", "SUPER_PIPELINED_OPTYPE", "SUPER_NONPIPELINED_OPTYPE",
]
