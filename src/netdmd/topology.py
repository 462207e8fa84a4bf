"""Directed-graph model of a networked control system.

Vertices split into state vertices and input vertices; every edge points at
a state vertex (input vertices only emit influence). A vertex's dependence
on itself is structural, not an edge, so self-loops are never stored and the
diagonal coupling block is always estimated. Vertex declaration order fixes
every downstream block ordering.

Each topology derives one graph index on its first lookup: it runs
:func:`validate` once, collects every state vertex's parents in one pass
over the edges, and then builds each vertex's local subsystem (its parents
and local dimension) and its row of the gather plan (its positions in the
stacked vector ``[x; u]``, grouped by local shape) in one loop. A malformed
topology has no index: every lookup raises the same :class:`BadConfig`,
naming the first violation. Where each of the plan's coefficients sits is
derived on first use, as are the total state and input dimensions. Topologies are values: mutating one, ``dims``
included, after any of these is derived leaves it stale.

Systems and models store their coefficients as one vector in plan order;
only this module maps per-edge blocks to and from it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadConfig, DimensionMismatch, EmptyNetwork, UnknownVertex


@dataclass(frozen=True)
class NetworkTopology:
    """Interconnection graph with per-vertex component dimensions.

    ``dims`` maps every vertex id to the dimension of its component. The
    dataclass itself admits malformed graphs so that :func:`validate` can
    report violations instead of raising. Treat an instance as immutable:
    :func:`local_subsystem` reads an index derived from it once.
    """

    state_vertices: tuple[str, ...]
    input_vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    dims: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "state_vertices", tuple(self.state_vertices))
        object.__setattr__(self, "input_vertices", tuple(self.input_vertices))
        object.__setattr__(self, "edges", tuple((s, d) for s, d in self.edges))
        object.__setattr__(self, "dims", dict(self.dims))

    @cached_property
    def total_state_dim(self) -> int:
        return sum(self.dims[v] for v in self.state_vertices)

    @cached_property
    def total_input_dim(self) -> int:
        return sum(self.dims[e] for e in self.input_vertices)

    def state_row_ranges(self) -> dict[str, tuple[int, int]]:
        """Half-open row interval of each state vertex in a stacked state vector."""
        return _ranges(self.state_vertices, self.dims)

    def input_row_ranges(self) -> dict[str, tuple[int, int]]:
        """Half-open row interval of each input vertex in a stacked input vector."""
        return _ranges(self.input_vertices, self.dims)

    def vertex_row_ranges(self) -> dict[str, tuple[int, int]]:
        """Both range maps merged; state ids index state rows, input ids input rows."""
        merged = self.state_row_ranges()
        merged.update(self.input_row_ranges())
        return merged

    @cached_property
    def _graph(self) -> tuple[dict[str, LocalSubsystem], tuple[ShapeGroup, ...]]:
        """Every state vertex's :class:`LocalSubsystem`, and the gather plan."""
        return _build_graph(self)

    @cached_property
    def _coefficient_support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _build_coefficient_support(gather_plan(self), self.total_state_dim + self.total_input_dim)


def _ranges(vertices, dims):
    out = {}
    offset = 0
    for v in vertices:
        out[v] = (offset, offset + dims[v])
        offset += dims[v]
    return out


@dataclass(frozen=True)
class LocalSubsystem:
    """A state vertex plus everything with an edge into it.

    Parents are ordered by their position in the topology's declaration
    order, which makes all block assemblies deterministic. ``local_dim`` is
    the center dimension plus the sum of all parent dimensions.
    """

    center: str
    state_parents: tuple[str, ...]
    input_parents: tuple[str, ...]
    local_dim: int


@dataclass(frozen=True, eq=False)
class ShapeGroup:
    """The state vertices whose local data share one shape, with their gather indices.

    Every vertex in ``vertices`` has center dimension d and local dimension
    k. Row i of ``rows`` (G-by-d) holds the positions of ``vertices[i]`` in
    the stacked state vector x; row i of ``cols`` (G-by-k) holds the
    positions in ``[x; u]`` of its local data: the vertex itself, then its
    state parents, then its input parents, each in declaration order. Input
    positions are offset by the total state dimension.
    """

    vertices: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        """(G, d, k): the shape of the group's stack of d-by-k local solutions."""
        return len(self.vertices), self.rows.shape[1], self.cols.shape[1]


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate`."""

    code: str
    subject: str
    message: str


def validate(t: NetworkTopology) -> list[Violation]:
    """Check all topology invariants; returns an empty list iff the graph is valid.

    Never raises: every problem becomes a :class:`Violation` naming the
    offending vertex or edge.
    """
    violations = []
    seen = set()
    for v in t.state_vertices + t.input_vertices:
        if v in seen:
            violations.append(Violation("duplicate_id", v, f"vertex id {v!r} declared twice"))
        seen.add(v)
    for v in t.state_vertices + t.input_vertices:
        if v not in t.dims:
            violations.append(Violation("missing_dim", v, f"no dimension for vertex {v!r}"))
        elif t.dims[v] < 1:
            violations.append(Violation("bad_dim", v, f"dimension of {v!r} must be >= 1, got {t.dims[v]}"))
    for v in t.dims:
        if v not in seen:
            violations.append(Violation("unknown_dim", v, f"dimension given for undeclared vertex {v!r}"))
    input_set = set(t.input_vertices)
    seen_edges = set()
    for src, dst in t.edges:
        label = f"{src}->{dst}"
        if src not in seen:
            violations.append(Violation("unknown_vertex", src, f"edge {label} has unknown source {src!r}"))
        if dst not in seen:
            violations.append(Violation("unknown_vertex", dst, f"edge {label} has unknown target {dst!r}"))
        elif dst in input_set:
            violations.append(Violation("input_vertex_has_in_edge", dst, f"edge {label} points into input vertex {dst!r}"))
        if src == dst:
            violations.append(Violation("self_edge", src, f"self edge on {src!r}; self-dependence is implicit"))
        if (src, dst) in seen_edges:
            violations.append(Violation("duplicate_edge", label, f"edge {label} declared twice"))
        seen_edges.add((src, dst))
    return violations


def _build_graph(t: NetworkTopology) -> tuple[dict[str, LocalSubsystem], tuple[ShapeGroup, ...]]:
    """Validate once, group the edges by target, then build each vertex's subsystem and plan row in one loop."""
    violations = validate(t)
    if violations:
        raise BadConfig(f"invalid topology: {violations[0].message}")
    order = t.state_vertices + t.input_vertices
    rank = {w: i for i, w in enumerate(order)}
    pos = _ranges(order, t.dims)
    n = len(t.state_vertices)
    parents: dict[str, list[str]] = {v: [] for v in t.state_vertices}
    for src, dst in t.edges:
        parents[dst].append(src)
    subs = {}
    groups: dict[tuple[int, int], tuple[list, list, list]] = {}
    for v, ps in parents.items():
        ps.sort(key=rank.__getitem__)
        n_state = sum(rank[w] < n for w in ps)
        cols = [p for w in (v, *ps) for p in range(*pos[w])]
        subs[v] = LocalSubsystem(v, tuple(ps[:n_state]), tuple(ps[n_state:]), len(cols))
        vertices, plan_rows, plan_cols = groups.setdefault((t.dims[v], len(cols)), ([], [], []))
        vertices.append(v)
        plan_rows.append(range(*pos[v]))
        plan_cols.append(cols)
    plan = tuple(ShapeGroup(tuple(v), _index_array(rows), _index_array(cols)) for v, rows, cols in groups.values())
    return subs, plan


def local_subsystem(t: NetworkTopology, v: str) -> LocalSubsystem:
    """In-neighborhood of state vertex ``v``, split into state and input parents.

    Reads the topology's graph index, so a lookup costs O(1) after the first
    one on ``t``. Raises :class:`BadConfig` naming the first violation
    :func:`validate` reports, and :class:`UnknownVertex` for a vertex that is
    not a state vertex.
    """
    sub = t._graph[0].get(v)
    if sub is None:
        raise UnknownVertex(f"{v!r} is not a state vertex")
    return sub


def gather_plan(t: NetworkTopology) -> tuple[ShapeGroup, ...]:
    """The topology's state vertices grouped by local shape (center dim, local dim).

    Groups appear in the order of their first vertex, and vertices keep
    declaration order within a group. Derived once per topology; raises
    :class:`BadConfig` naming the first violation :func:`validate` reports.
    """
    return t._graph[1]


def coefficient_support(t: NetworkTopology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, order)``: where each coefficient of the gather plan sits, and their row-major order.

    Coefficients are in plan order: group by group, each group's (G, d, k)
    stack of local solutions row-major. Coefficient i couples position
    ``cols[i]`` of ``[x; u]`` into state position ``rows[i]``, and ``order``
    sorts the coefficients by row and then by column of ``[A B]``. Derived
    once per topology.
    """
    return t._coefficient_support


def _build_coefficient_support(plan, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    empty = np.zeros(0, dtype=np.intp)
    rows = np.concatenate([empty, *(np.broadcast_to(g.rows[:, :, None], g.shape).reshape(-1) for g in plan)])
    cols = np.concatenate([empty, *(np.broadcast_to(g.cols[:, None, :], g.shape).reshape(-1) for g in plan)])
    return _index_array(rows), _index_array(cols), _index_array(np.argsort(rows * width + cols))


def _densify(t: NetworkTopology, values: np.ndarray, inputs: bool = False) -> np.ndarray:
    """The state (A) or, with ``inputs``, the input (B) part of plan-order coefficients as a dense matrix.

    ``values`` holds one entry per coefficient of :func:`coefficient_support`;
    every position the topology has no coefficient for is an exact zero.
    """
    n = t.total_state_dim
    rows, cols, _ = coefficient_support(t)
    part = cols >= n if inputs else cols < n
    out = np.zeros((n, t.total_input_dim if inputs else n))
    out[rows[part], cols[part] - (n if inputs else 0)] = values[part]
    return out


def _group_stacks(t: NetworkTopology, coeffs: np.ndarray):
    """``(group, stack)`` for each shape group of the plan: its (G, d, k) view of plan-order ``coeffs``."""
    offset = 0
    for group in gather_plan(t):
        size = math.prod(group.shape)
        yield group, coeffs[offset : offset + size].reshape(group.shape)
        offset += size


def _block_slots(t: NetworkTopology, coeffs: np.ndarray):
    """``(v, w, cols, view)`` for every block of plan-order ``coeffs``: w couples into state vertex v.

    Vertex by vertex, each vertex's own block (w == v) first, then its state
    parents', then its input parents'. ``cols`` is the slice of w's columns
    in v's local data, and ``view`` the block's view of ``coeffs``.
    """
    strips = {v: strip for group, stack in _group_stacks(t, coeffs) for v, strip in zip(group.vertices, stack)}
    for v in t.state_vertices:
        sub = local_subsystem(t, v)
        offset = 0
        for w in (v, *sub.state_parents, *sub.input_parents):
            cols = slice(offset, offset + t.dims[w])
            yield v, w, cols, strips[v][:, cols]
            offset += t.dims[w]


def _write_coefficients(t: NetworkTopology, block_of) -> np.ndarray:
    """A new read-only plan-order coefficient vector, filled with ``block_of(v, w, cols)`` for each block.

    Blocks are asked for in :func:`_block_slots`' order. One that is not a
    (dims[v], dims[w]) matrix raises :class:`DimensionMismatch`.
    """
    coeffs = np.zeros(coefficient_support(t)[0].size)
    for v, w, cols, slot in _block_slots(t, coeffs):
        block = block_of(v, w, cols)
        try:
            block = np.asarray(block, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch(f"block for {w}->{v} is not a matrix: {exc}") from exc
        if block.shape != slot.shape:
            raise DimensionMismatch(f"block for {w}->{v} must be {slot.shape}, got {block.shape}")
        slot[...] = block
    coeffs.flags.writeable = False
    return coeffs


def _coefficient_views(t: NetworkTopology, coeffs: np.ndarray):
    """``(v, w, block)`` for every block of plan-order ``coeffs``, in :func:`_block_slots`' order, as read-only views."""
    for v, w, _, block in _block_slots(t, coeffs):
        block.flags.writeable = False
        yield v, w, block


def _index_array(rows) -> np.ndarray:
    out = np.array(rows, dtype=np.intp)
    out.flags.writeable = False
    return out


def max_local_dim(t: NetworkTopology) -> int:
    """Largest local-subsystem dimension over all state vertices, read from the gather plan."""
    plan = gather_plan(t)
    if not plan:
        raise EmptyNetwork("topology has no state vertices")
    return max(group.cols.shape[1] for group in plan)


def topology_to_dict(t: NetworkTopology) -> dict:
    """JSON-ready form; round-trips exactly through :func:`topology_from_dict`."""
    return {
        "state_vertices": [{"id": v, "dim": t.dims[v]} for v in t.state_vertices],
        "input_vertices": [{"id": e, "dim": t.dims[e]} for e in t.input_vertices],
        "edges": [[src, dst] for src, dst in t.edges],
    }


def topology_from_dict(d: dict) -> NetworkTopology:
    """Read :func:`topology_to_dict`'s form.

    A vertex id or edge end that is not a string, or a dim that is not an
    integer, raises TypeError.
    """
    dims = {}
    states = []
    inputs = []
    for entry in d["state_vertices"]:
        states.append(_json_value(entry["id"], str))
        dims[entry["id"]] = _json_value(entry["dim"], int)
    for entry in d["input_vertices"]:
        inputs.append(_json_value(entry["id"], str))
        dims[entry["id"]] = _json_value(entry["dim"], int)
    edges = tuple((_json_value(src, str), _json_value(dst, str)) for src, dst in d["edges"])
    return NetworkTopology(tuple(states), tuple(inputs), edges, dims)


def _json_value(value, kind: type):
    """``value`` if its type is exactly ``kind``, else TypeError: neither a bool nor a float passes as an int."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value
