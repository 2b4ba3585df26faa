"""A minimal gate-level netlist with simulation and timing analysis.

Nodes are primary inputs, constants, or cells (MAJ3, INV, XOR2); edges
carry single bits.  The netlist is a DAG (combinational logic only);
:meth:`Netlist.evaluate` computes outputs with plain Boolean semantics,
and :meth:`Netlist.depth` / :meth:`Netlist.critical_path` feed the
circuit cost model.

The topological order and level assignment are computed once and cached
(:meth:`Netlist.topological_order`, :meth:`Netlist.levels`,
:meth:`Netlist.level_schedule`); topology-changing construction methods
(``add_*``) invalidate the cache, while output bookkeeping
(:meth:`Netlist.mark_output`, including re-registration of an existing
output) deliberately does not: the cached tuples depend only on the
DAG, and every output-sensitive query (:meth:`Netlist.evaluate`,
:meth:`Netlist.depth`, :meth:`Netlist.critical_path`) reads the live
output list on top of the cache -- pinned by the regression tests in
``tests/test_circuits.py``.  :meth:`Netlist.input_block` validates a
batch of assignments once into an ``(n_inputs, n_entries)`` bit block,
and :meth:`Netlist.evaluate_block` evaluates it as whole-array
operations -- the Boolean reference the physical circuit engine
(:class:`repro.circuits.engine.CircuitEngine`, which executes the same
levelized schedule on batched spin-wave gates) is pinned against.

>>> netlist = Netlist("demo")
>>> _ = netlist.add_input("a")
>>> _ = netlist.add_input("b")
>>> _ = netlist.add_cell("x", "XOR2", ("a", "b"))
>>> _ = netlist.mark_output("x")
>>> netlist.evaluate({"a": 1, "b": 0})
{'x': 1}
>>> schedule = netlist.level_schedule()
>>> _ = netlist.mark_output("a")  # output edits leave the cache valid
>>> netlist.level_schedule() is schedule
True
>>> netlist.evaluate({"a": 1, "b": 0})
{'x': 1, 'a': 1}
"""

import hashlib
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.core.encoding import validate_bit
from repro.errors import NetlistError

#: Supported cell operations and their evaluators: each maps the fanin
#: bits -- 0/1 ints, or (n,) 0/1 arrays -- to the output bit(s).
_OPERATIONS = {
    "MAJ3": lambda bits: (
        (bits[0] & bits[1]) | (bits[0] & bits[2]) | (bits[1] & bits[2])
    ),
    "INV": lambda bits: 1 - bits[0],
    "XOR2": lambda bits: bits[0] ^ bits[1],
    "BUF": lambda bits: bits[0],
}

_ARITY = {"MAJ3": 3, "INV": 1, "XOR2": 2, "BUF": 1}

#: Bits that skip the per-element validate_bit check.
_BIT_TYPES = frozenset((bool, int, float))
_BITS = frozenset((0, 1))

_Topology = namedtuple("_Topology", ("order", "levels", "parents", "schedule"))


@dataclass(frozen=True)
class Node:
    """One netlist node: a primary input, a constant, or a cell."""

    name: str
    kind: str  # "input", "const0", "const1", or an operation name
    fanin: tuple = field(default_factory=tuple)


class Netlist:
    """A combinational majority-inverter-XOR netlist."""

    def __init__(self, name="netlist"):
        self.name = name
        # The DAG: name -> Node (insertion order, itself topological)
        # and name -> {consumer: None} (distinct, in wiring order).
        self._nodes = {}
        self._fanout = {}
        self._inputs = []
        self._outputs = []
        # _Topology of the current DAG -- rebuilt lazily after any
        # topology change (see _topology).
        self._topology_cache = None
        # Monotonic counter bumped by every topology change; consumers
        # (the circuit engine, the compile cache) key compiled artifacts
        # on it instead of on schedule identity, so pickling or cache
        # round-trips never force spurious recompiles.
        self._revision = 0
        self._signature = None  # ((revision, outputs), digest) memo

    def __getstate__(self):
        # Never pickle the signature memo: a loaded netlist re-hashes.
        state = self.__dict__.copy()
        state["_signature"] = None
        return state

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add(self, node):
        if node.name in self._nodes:
            raise NetlistError(f"node {node.name!r} already exists")
        self._nodes[node.name] = node
        self._fanout[node.name] = {}
        for driver in node.fanin:
            self._fanout[driver][node.name] = None
        self._topology_cache = None
        self._revision += 1
        return node.name

    def add_input(self, name):
        """Declare a primary input; returns its name."""
        self._add(Node(name, "input"))
        self._inputs.append(name)
        return name

    def add_const(self, name, value):
        """Declare a constant 0/1 node; returns its name."""
        return self._add(Node(name, f"const{validate_bit(value)}"))

    def add_cell(self, name, operation, fanin):
        """Add a cell ``operation`` driven by existing nodes ``fanin``.

        A fresh cell whose fanin already exists cannot close a loop.
        """
        if name in self._nodes:
            raise NetlistError(f"node {name!r} already exists")
        if operation not in _OPERATIONS:
            raise NetlistError(
                f"unknown operation {operation!r}; "
                f"supported: {sorted(_OPERATIONS)}"
            )
        fanin = tuple(fanin)
        if len(fanin) != _ARITY[operation]:
            raise NetlistError(
                f"{operation} takes {_ARITY[operation]} inputs, "
                f"got {len(fanin)}"
            )
        for driver in fanin:
            try:
                known = driver in self._nodes
            except TypeError:  # unhashable, e.g. a list from a wire payload
                known = False
            if not known:
                raise NetlistError(f"fanin node {driver!r} does not exist")
        return self._add(Node(name, operation, fanin))

    def mark_output(self, name):
        """Register an existing node as a primary output.

        Re-registering an already-marked output is a no-op (outputs keep
        their first registration order).  Output edits never touch the
        topology cache or bump :attr:`topology_revision`: the cached
        order/levels/schedule describe the DAG alone, and consumers
        keying compiled artifacts on the revision (the circuit engine,
        the compile cache) must not recompile for an output edit --
        only ``add_*`` calls invalidate.  Detector-placement
        inversion is likewise *not* a netlist edit: the engine resolves
        INV/BUF cells at the regeneration boundary, so flipping an
        output's polarity means adding an ``INV`` cell (which does
        invalidate) and marking it.
        """
        if name not in self._nodes:
            raise NetlistError(f"cannot mark unknown node {name!r} as output")
        if name not in self._outputs:
            self._outputs.append(name)
        return name

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def topology_revision(self):
        """Monotonic topology revision: bumps on every ``add_*`` call.

        Output bookkeeping (:meth:`mark_output`) does not bump it.  Two
        reads returning the same value guarantee the DAG (and therefore
        the cached level schedule) is unchanged -- a robust staleness
        key for compiled execution artifacts that survives pickling and
        cache round-trips, unlike object identity of the schedule tuple.
        """
        return self._revision

    @property
    def inputs(self):
        """Primary input names in insertion order."""
        return list(self._inputs)

    @property
    def outputs(self):
        """Primary output names in registration order."""
        return list(self._outputs)

    def cells(self, operation=None):
        """Cell nodes, optionally filtered by operation."""
        return [
            node for node in self._nodes.values()
            if node.kind in _OPERATIONS
            and (operation is None or node.kind == operation)
        ]

    def cell_counts(self):
        """Histogram {operation: count} over all cells."""
        counts = {}
        for node in self.cells():
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Topology (cached)
    # ------------------------------------------------------------------
    def _topology(self):
        """Cached order, levels, parents and schedule of the DAG.

        Kahn's algorithm one generation at a time (sources in insertion
        order, then released consumers in wiring order) fixes the
        compiled slot layout; any ``add_*`` call invalidates the cache.
        """
        if self._topology_cache is None:
            pending = {}
            ready = []
            for name, node in self._nodes.items():
                if node.fanin:
                    pending[name] = len(set(node.fanin))
                else:
                    ready.append(name)
            order = []
            while ready:
                order.extend(ready)
                generation, ready = ready, []
                for name in generation:
                    for consumer in self._fanout[name]:
                        pending[consumer] -= 1
                        if not pending[consumer]:
                            ready.append(consumer)
            levels = {}
            parents = {}
            buckets = {}
            for name in order:
                node = self._nodes[name]
                if not node.fanin:
                    levels[name] = 0
                    parents[name] = None
                else:
                    best = max(node.fanin, key=lambda d: levels[d])
                    levels[name] = 1 + levels[best]
                    parents[name] = best
                    buckets.setdefault(levels[name], []).append(node)
            schedule = tuple(
                tuple(buckets[level]) for level in sorted(buckets)
            )
            self._topology_cache = _Topology(
                tuple(order), levels, parents, schedule
            )
        return self._topology_cache

    def node(self, name):
        """The :class:`Node` record of ``name``; raises when unknown."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetlistError(f"unknown node {name!r}") from None

    def topological_order(self):
        """Cached topological node order (tuple of names)."""
        return self._topology().order

    def levels(self):
        """{node name: level}; inputs/constants are level 0 (cached)."""
        return dict(self._topology().levels)

    def level_schedule(self):
        """Cells grouped by level: entry ``l - 1`` holds the level-``l``
        :class:`Node` tuples in topological order (cached).

        This is the execution schedule of the physical circuit engine:
        every cell of one level depends only on earlier levels, so a
        level's cells evaluate as one batch
        (:class:`repro.circuits.engine.CircuitEngine`).
        """
        return self._topology().schedule

    # ------------------------------------------------------------------
    # Evaluation and timing
    # ------------------------------------------------------------------
    def evaluate(self, assignments):
        """Evaluate outputs for ``assignments`` {input name: bit}.

        Returns {output name: bit}.  Raises on missing inputs.
        """
        values = {}
        for name, node in self._nodes.items():
            if node.kind == "input":
                if name not in assignments:
                    raise NetlistError(f"no value supplied for input {name!r}")
                values[name] = validate_bit(assignments[name])
            elif node.kind == "const0":
                values[name] = 0
            elif node.kind == "const1":
                values[name] = 1
            else:
                bits = [values[d] for d in node.fanin]
                values[name] = _OPERATIONS[node.kind](bits)
        return {o: values[o] for o in self._outputs}

    def input_block(self, assignments_batch):
        """The ``(n_inputs, n_entries)`` uint8 block of a batch of
        ``{input name: bit}`` mappings -- the circuit layer's one input
        check.  Bits follow :func:`~repro.core.encoding.validate_bit`
        (``EncodingError`` unless a bool, int or float equal to 0 or 1);
        a missing input or an empty batch raises ``NetlistError``.

        >>> netlist = Netlist("block")
        >>> _ = netlist.add_input("a")
        >>> _ = netlist.add_input("b")
        >>> netlist.input_block([{"a": 1, "b": 0}, {"a": True, "b": 1.0}])
        array([[1, 1],
               [0, 1]], dtype=uint8)
        """
        batch = list(assignments_batch)
        if not batch:
            raise NetlistError("no assignments supplied")
        rows = []
        for name in self._inputs:
            try:
                rows.append([assignments[name] for assignments in batch])
            except KeyError:
                raise NetlistError(
                    f"no value supplied for input {name!r}"
                ) from None
        bits = list(chain.from_iterable(rows))
        if not (set(map(type, bits)) <= _BIT_TYPES and set(bits) <= _BITS):
            rows = [[validate_bit(bit) for bit in row] for row in rows]
        return np.array(rows, dtype=np.uint8).reshape(len(rows), len(batch))

    def evaluate_block(self, block):
        """``{output name: (n_entries,) array}`` over an
        :meth:`input_block` block; entry ``i`` equals :meth:`evaluate`
        of column ``i`` (arrays may share memory with ``block``)."""
        if np.ndim(block) != 2 or len(block) != len(self._inputs):
            raise NetlistError(f"input block needs {len(self._inputs)} rows")
        values = dict(zip(self._inputs, block))
        n_entries = block.shape[1]
        for name, node in self._nodes.items():
            if node.kind in _OPERATIONS:
                values[name] = _OPERATIONS[node.kind](
                    [values[d] for d in node.fanin]
                )
            elif node.kind != "input":
                values[name] = np.full(
                    n_entries, node.kind == "const1", dtype=block.dtype
                )
        return {o: values[o] for o in self._outputs}

    def evaluate_batch(self, assignments_batch):
        """Vectorised :meth:`evaluate`: ``{output name: list of bits}``
        over a sequence of ``{input name: bit}`` mappings."""
        outputs = self.evaluate_block(self.input_block(assignments_batch))
        return {name: bits.tolist() for name, bits in outputs.items()}

    def signature(self):
        """SHA-256 content hash of the DAG, input order and outputs,
        memoised under ``(topology revision, outputs)`` (see
        :func:`~repro.circuits.compiled.netlist_signature`).

        The input order is hashed because :meth:`input_block` rows
        follow it: equal signatures must mean equal block layouts.
        """
        key = (self._revision, tuple(self._outputs))
        if self._signature is None or self._signature[0] != key:
            text = "".join(
                repr((node.name, node.kind, node.fanin))
                for _, node in sorted(self._nodes.items())
            )
            text += repr(tuple(self._inputs)) + repr(key[1])
            digest = hashlib.sha256(text.encode())
            self._signature = (key, digest.hexdigest())
        return self._signature[1]

    def depth(self):
        """Logic depth in cell levels (inputs/constants are level 0)."""
        levels = self._topology().levels
        if not self._outputs:
            return max(levels.values(), default=0)
        return max(levels[o] for o in self._outputs)

    def critical_path(self):
        """One deepest input-to-output node path (list of names)."""
        topology = self._topology()
        levels, parents = topology.levels, topology.parents
        if not levels:
            return []
        terminals = self._outputs or list(levels)
        end = max(terminals, key=lambda n: levels[n])
        path = [end]
        while parents[path[-1]] is not None:
            path.append(parents[path[-1]])
        return list(reversed(path))

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self):
        """JSON-pure dict of the netlist (nodes in insertion order).

        The wire format of the serving layer (:mod:`repro.serve`):
        node insertion order is preserved, so :meth:`from_dict` rebuilds
        a netlist whose content hash
        (:func:`~repro.circuits.compiled.netlist_signature`) -- and
        therefore compile-cache and coalescing behaviour -- matches the
        original exactly.

        >>> netlist = Netlist("wire")
        >>> _ = netlist.add_input("a")
        >>> _ = netlist.add_cell("na", "INV", ("a",))
        >>> _ = netlist.mark_output("na")
        >>> clone = Netlist.from_dict(netlist.to_dict())
        >>> clone.evaluate({"a": 0})
        {'na': 1}
        """
        return {
            "name": self.name,
            "nodes": [
                {"name": node.name, "kind": node.kind,
                 "fanin": list(node.fanin)}
                for node in self._nodes.values()
            ],
            "outputs": list(self._outputs),
        }

    @classmethod
    def from_dict(cls, payload):
        """Rebuild a netlist from :meth:`to_dict` output.

        Every node re-enters through the validating ``add_*``
        constructors, so malformed payloads (unknown kinds, missing or
        malformed fanin) raise :class:`~repro.errors.NetlistError` rather
        than building a corrupt DAG.
        """
        if not isinstance(payload, dict):
            raise NetlistError(
                f"netlist payload must be a dict, got {type(payload).__name__}"
            )
        netlist = cls(str(payload.get("name", "netlist")))
        nodes = payload.get("nodes")
        if not isinstance(nodes, list):
            raise NetlistError("netlist payload needs a 'nodes' list")
        for entry in nodes:
            if not isinstance(entry, dict) or "name" not in entry:
                raise NetlistError(
                    f"malformed netlist node entry {entry!r}"
                )
            name = entry["name"]
            kind = entry.get("kind")
            if kind == "input":
                netlist.add_input(name)
            elif kind in ("const0", "const1"):
                netlist.add_const(name, int(kind[-1]))
            elif kind in _OPERATIONS:
                fanin = entry.get("fanin", ())
                if not isinstance(fanin, (list, tuple)):
                    raise NetlistError(f"fanin of {name!r} must be a list")
                netlist.add_cell(name, kind, fanin)
            else:
                raise NetlistError(
                    f"unknown node kind {kind!r} for node {name!r}"
                )
        for name in payload.get("outputs", ()):
            netlist.mark_output(name)
        return netlist
