"""Happens-before graph representation.

The Race Detector of the paper builds a directed graph over trace
operations and computes the happens-before relation by (restricted)
transitive closure.  As an optimization, *contiguous memory accesses
without any intervening synchronization operation are modeled by a single
node* (§6, "Performance"); the paper reports this reduces node counts to
1.4%–24.8% of the trace length without losing precision.

This module provides:

* :class:`HBNode` — a graph node: either a single (synchronization-relevant)
  operation or a coalesced run of read/write operations that are contiguous
  in the trace, on the same thread, and inside the same asynchronous task;
* :class:`HBGraph` — the node array plus the three edge relations
  (``st``, ``mt`` and their union ``hb``) stored as per-node successor
  bitmasks (arbitrary-precision integers), the representation the closure
  engine in :mod:`repro.core.happens_before` operates on.

Coalescing is precision-preserving because every operation in a coalesced
run has identical happens-before relationships to all operations outside
the run: no base rule of Figures 6/7 mentions ``read``/``write`` op-codes
explicitly, and the program-order rules relate the whole run to the same
surrounding operations.  Within a run, operations are totally ordered by
program order (same thread, same task), so no intra-run races exist.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .operations import OpKind, Operation
from .reachability import BACKEND_BITMASK, BACKEND_CHAINS
from .trace import ExecutionTrace

_READ = OpKind.READ
_WRITE = OpKind.WRITE


@dataclass
class HBNode:
    """One node of the happens-before graph."""

    node_id: int
    ops: List[Operation]
    thread: str
    task: Optional[str]  # enclosing asynchronous task (in_task), if any

    @property
    def first_index(self) -> int:
        return self.ops[0].index

    @property
    def last_index(self) -> int:
        return self.ops[-1].index

    @property
    def op(self) -> Operation:
        """The single operation of a synchronization node (undefined use for
        coalesced access nodes — callers must check :attr:`is_access_block`)."""
        return self.ops[0]

    @property
    def is_access_block(self) -> bool:
        return self.ops[0].is_memory_access

    @property
    def kind(self) -> Optional[OpKind]:
        """Op-code for single-op nodes, ``None`` for coalesced blocks of
        more than one access."""
        if len(self.ops) == 1:
            return self.ops[0].kind
        return None

    def accesses(self) -> Iterator[Operation]:
        return (op for op in self.ops if op.is_memory_access)

    def location_writes(self) -> Dict[str, bool]:
        """``{location: writes_to(location)}`` for every location the node
        accesses, in first-access order, computed in one pass over the ops."""
        writes: Dict[str, bool] = {}
        for op in self.ops:
            kind = op.kind
            if kind is _WRITE:
                writes[op.location] = True
            elif kind is _READ and op.location not in writes:
                writes[op.location] = False
        return writes

    def locations(self) -> List[str]:
        seen: Dict[str, None] = {}
        for op in self.accesses():
            seen.setdefault(op.location, None)
        return list(seen)

    def accesses_to(self, location: str) -> List[Operation]:
        return [op for op in self.accesses() if op.location == location]

    def writes_to(self, location: str) -> bool:
        return any(op.is_write for op in self.accesses_to(location))

    def reads_from(self, location: str) -> bool:
        return any(op.is_read for op in self.accesses_to(location))

    def __repr__(self) -> str:
        if len(self.ops) == 1:
            return "HBNode(%d, %s)" % (self.node_id, self.ops[0].render())
        return "HBNode(%d, %d accesses on %s)" % (
            self.node_id,
            len(self.ops),
            self.thread,
        )


class HBGraph:
    """Node array + ``st``/``mt`` successor bitmasks over node ids.

    Edges always point forward in trace order (every rule of Figures 6/7
    requires ``i < j``), so the graph is a DAG topologically sorted by
    node id.

    ``backend`` selects the closure representation: ``"bitmask"``
    (default) keeps the dense ``st``/``mt`` rows; ``"chains"`` leaves
    them unallocated and delegates every edge/query operation to a
    :class:`~repro.core.reachability.ChainIndex` attached later via
    :meth:`attach_index` (the index needs the rule configuration, which
    the graph does not know).
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        coalesce: bool = True,
        backend: str = BACKEND_BITMASK,
    ):
        if backend not in (BACKEND_BITMASK, BACKEND_CHAINS):
            raise ValueError("bad backend %r" % backend)
        self.trace = trace
        self.coalesce = coalesce
        self.backend = backend
        self.reach = None  # ChainIndex, attached in chains mode
        self.nodes: List[HBNode] = []
        self.node_of_op: List[int] = [0] * len(trace)
        self._build_nodes()
        n = len(self.nodes)
        if backend == BACKEND_BITMASK:
            self.st: List[int] = [0] * n  # thread-local successors
            self.mt: List[int] = [0] * n  # inter-thread successors
        else:
            # O(n²) rows never exist in chains mode; any stray bitmask
            # access fails loudly instead of silently diverging.
            self.st = self.mt = None  # type: ignore[assignment]
        #: All node bits set — the universe every per-thread mask complements
        #: against (hot in the closure inner loop, so computed exactly once).
        self.all_mask: int = (1 << n) - 1
        self._same_thread_mask: Dict[str, int] = {}
        self._diff_thread_mask: Dict[str, int] = {}
        self._build_masks()

    def attach_index(self, index) -> None:
        """Install the chains-backend reachability index (see
        :mod:`repro.core.reachability`)."""
        self.reach = index

    # -- node construction -----------------------------------------------

    def _build_nodes(self) -> None:
        # Coalescing is per-thread: a run of accesses by one thread merges
        # into one node until that thread performs a non-access operation
        # (or switches task).  Accesses interleaved from *other* threads do
        # not break a run — no happens-before edge can exist between two
        # runs that overlap in trace order (any ordering would need a
        # synchronization operation of one thread between its own accesses),
        # so per-thread coalescing is precision-preserving.
        trace = self.trace
        current: Dict[str, Optional[HBNode]] = {}
        for op in trace:
            in_task = trace.task_name_of(op.index)
            if self.coalesce and op.is_memory_access:
                node = current.get(op.thread)
                if node is not None and node.task == in_task:
                    node.ops.append(op)
                    self.node_of_op[op.index] = node.node_id
                    continue
                node = HBNode(len(self.nodes), [op], op.thread, in_task)
                self.nodes.append(node)
                self.node_of_op[op.index] = node.node_id
                current[op.thread] = node
                continue
            node = HBNode(len(self.nodes), [op], op.thread, in_task)
            self.nodes.append(node)
            self.node_of_op[op.index] = node.node_id
            current[op.thread] = None

    def _build_masks(self) -> None:
        per_thread: Dict[str, int] = {}
        for node in self.nodes:
            per_thread[node.thread] = per_thread.get(node.thread, 0) | (
                1 << node.node_id
            )
        self._same_thread_mask = per_thread
        all_mask = self.all_mask
        self._diff_thread_mask = {
            thread: all_mask & ~mask for thread, mask in per_thread.items()
        }

    # -- structure queries --------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> HBNode:
        return self.nodes[node_id]

    def node_for(self, op_index: int) -> HBNode:
        return self.nodes[self.node_of_op[op_index]]

    def same_thread_mask(self, thread: str) -> int:
        return self._same_thread_mask.get(thread, 0)

    def diff_thread_mask(self, thread: str) -> int:
        return self._diff_thread_mask.get(thread, self.all_mask)

    @property
    def reduction_ratio(self) -> float:
        """Node count as a fraction of the trace length (the paper's
        1.4%–24.8% statistic)."""
        if not len(self.trace):
            return 1.0
        return len(self.nodes) / float(len(self.trace))

    # -- edge insertion -------------------------------------------------------

    def add_st(self, i: int, j: int) -> bool:
        """Add a thread-local edge ``i ≺st j``; returns True if new."""
        if self.reach is not None:
            return self.reach.add_st(i, j)
        if i == j:
            return False
        bit = 1 << j
        if self.st[i] & bit:
            return False
        self.st[i] |= bit
        return True

    def add_mt(self, i: int, j: int) -> bool:
        """Add an inter-thread edge ``i ≺mt j``; returns True if new."""
        if self.reach is not None:
            return self.reach.add_mt(i, j)
        if i == j:
            return False
        bit = 1 << j
        if self.mt[i] & bit:
            return False
        self.mt[i] |= bit
        return True

    def hb_row(self, i: int) -> int:
        if self.reach is not None:
            return self.reach.row_mask(i)
        return self.st[i] | self.mt[i]

    def ordered(self, i: int, j: int) -> bool:
        """Node-level ``i ≺ j`` (only meaningful after closure)."""
        if i == j:
            return True  # the paper's relation is reflexive
        if i > j:
            return False  # all edges point forward
        if self.reach is not None:
            return self.reach.ordered(i, j)
        return bool(self.hb_row(i) & (1 << j))

    def ordered_ops(self, op_i: int, op_j: int) -> bool:
        """Operation-level happens-before query ``α_i ≺ α_j``."""
        a, b = self.node_of_op[op_i], self.node_of_op[op_j]
        if a == b:
            return op_i <= op_j
        if op_i > op_j:
            return False
        return self.ordered(a, b)

    def edge_count(self) -> Tuple[int, int]:
        if self.reach is not None:
            return self.reach.edge_count()
        st_edges = sum(row.bit_count() for row in self.st)
        mt_edges = sum(row.bit_count() for row in self.mt)
        return st_edges, mt_edges

    def successors(self, i: int) -> List[int]:
        if self.reach is not None:
            return list(self.reach.successors(i))
        return _bits(self.hb_row(i))

    def memory_bytes(self) -> int:
        """Bytes held by the closure representation (the quantity the
        backend switch trades: dense rows are O(n²) bits, the chain index
        O(n·C) ints)."""
        if self.reach is not None:
            return self.reach.memory_bytes()
        total = sys.getsizeof(self.st) + sys.getsizeof(self.mt)
        for row in self.st:
            total += sys.getsizeof(row)
        for row in self.mt:
            total += sys.getsizeof(row)
        return total

    def to_dot(self, max_nodes: int = 200) -> str:
        """Graphviz rendering (for debugging small traces)."""
        lines = ["digraph hb {", "  rankdir=TB;"]
        for node in self.nodes[:max_nodes]:
            label = (
                node.ops[0].render()
                if len(node.ops) == 1
                else "%d accesses" % len(node.ops)
            )
            lines.append('  n%d [label="%d: %s"];' % (node.node_id, node.node_id, label))
        limit = min(len(self.nodes), max_nodes)
        for i in range(limit):
            if self.reach is not None:
                thread = self.nodes[i].thread
                for j in self.successors(i):
                    if j < limit:
                        style = (
                            " [style=dashed]"
                            if self.nodes[j].thread == thread
                            else ""
                        )
                        lines.append("  n%d -> n%d%s;" % (i, j, style))
                continue
            for j in _bits(self.st[i]):
                if j < limit:
                    lines.append("  n%d -> n%d [style=dashed];" % (i, j))
            for j in _bits(self.mt[i]):
                if j < limit:
                    lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines)


def _bits(mask: int) -> List[int]:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bits(mask: int) -> List[int]:
    """Public alias of :func:`_bits` for the closure engine and tests."""
    return _bits(mask)


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of set bits, ascending, as a generator — the hot-loop
    variant of :func:`bits` (no list is materialized; the closure sweeps
    and race enumeration iterate rows orders of magnitude more often than
    anything keeps the indices around)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
