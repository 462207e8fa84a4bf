"""Directed-graph model of a networked control system.

Vertices split into state vertices and input vertices; every edge points at
a state vertex (input vertices only emit influence). A vertex's dependence
on itself is structural, not an edge, so self-loops are never stored and the
diagonal coupling block is always estimated. Vertex declaration order fixes
every downstream block ordering.

Each topology derives one graph index on its first lookup, in whole-array
steps over its edges: :func:`validate` checks the collections once, every
edge end becomes its declaration rank, and one sort of the edges by target
and then source rank gives every state vertex's parents. Those arrays give
the gather plan (each vertex's positions in the stacked vector ``[x; u]``,
grouped by local shape); a vertex's local subsystem (its parents and local
dimension) is built from them on its first lookup. A malformed topology has
no index: every lookup, total dimension and row range raises the same
:class:`BadConfig`, naming the first violation. Where each of the plan's
coefficients sits, and where each block's entries go in plan order, are
derived on first use, as are the total state and input dimensions.
Topologies are values: mutating one, ``dims`` included, after any of these
is derived leaves it stale.

Systems and models store their coefficients as one vector in plan order.
Only this module maps per-edge blocks to and from it: it fixes their order,
checks a block map's keys and spells a block's JSON key.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import BadConfig, DimensionMismatch, EmptyNetwork, UnknownVertex, _json_value

#: Separator of serialized block keys: ``"w→v"`` is the block coupling w into v.
BLOCK_KEY_SEP = "→"


@dataclass(frozen=True)
class NetworkTopology:
    """Interconnection graph with per-vertex component dimensions.

    ``dims`` maps every vertex id to the dimension of its component. The
    dataclass itself admits malformed graphs so that :func:`validate` can
    report violations instead of raising. Treat an instance as immutable:
    :func:`local_subsystem` reads an index derived from it once. Edges are
    stored as a tuple of pairs; an edge that is not a pair raises ValueError.
    """

    state_vertices: tuple[str, ...]
    input_vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    dims: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "state_vertices", tuple(self.state_vertices))
        object.__setattr__(self, "input_vertices", tuple(self.input_vertices))
        edges = tuple(map(tuple, self.edges))
        if set(map(len, edges)) - {2}:
            raise ValueError("every edge must be a (source, target) pair")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "dims", dict(self.dims))

    @cached_property
    def total_state_dim(self) -> int:
        return sum(map(self._valid_dims.__getitem__, self.state_vertices))

    @cached_property
    def total_input_dim(self) -> int:
        return sum(map(self._valid_dims.__getitem__, self.input_vertices))

    def state_row_ranges(self) -> dict[str, tuple[int, int]]:
        """Half-open row interval of each state vertex in a stacked state vector."""
        return _ranges(self.state_vertices, self._valid_dims)

    def input_row_ranges(self) -> dict[str, tuple[int, int]]:
        """Half-open row interval of each input vertex in a stacked input vector."""
        return _ranges(self.input_vertices, self._valid_dims)

    def vertex_row_ranges(self) -> dict[str, tuple[int, int]]:
        """Both range maps merged; state ids index state rows, input ids input rows."""
        merged = self.state_row_ranges()
        merged.update(self.input_row_ranges())
        return merged

    @cached_property
    def _valid_dims(self) -> dict[str, int]:
        """``dims``, once the graph index is built: a malformed topology raises its :class:`BadConfig` here."""
        gather_plan(self)
        return self.dims

    @cached_property
    def _graph(self) -> _GraphIndex:
        return _build_graph(self)

    @cached_property
    def _state_index(self) -> dict[str, int]:
        """Each state vertex's position in ``state_vertices``."""
        return {v: i for i, v in enumerate(self.state_vertices)}

    @property
    def _vertex_dims(self) -> np.ndarray:
        """Each vertex's dimension, read-only: state vertices, then inputs, in declaration order."""
        return self._graph.dims

    @cached_property
    def _coefficient_support(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _build_coefficient_support(gather_plan(self), self.total_state_dim + self.total_input_dim)

    @cached_property
    def _block_to_plan(self) -> np.ndarray:
        """Plan-order position of every block entry, read-only: blocks in :func:`_block_order`, each row-major."""
        return _build_block_to_plan(self._graph)


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
    positions are offset by the total state dimension. ``vertex_index[i]``
    is the position of ``vertices[i]`` in the topology's ``state_vertices``.
    """

    vertices: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    vertex_index: np.ndarray

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
    offending vertex or edge. The collections are checked whole first, one
    pass per invariant (:func:`_edge_ranks`); only a topology that fails
    there is walked id by id and edge by edge, which writes the violations
    in the order it meets them.
    """
    return [] if _edge_ranks(t) is not None else _violations(t)


def _violations(t: NetworkTopology) -> list[Violation]:
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


def _edge_ranks(t: NetworkTopology) -> tuple[np.ndarray, np.ndarray] | None:
    """Every edge's (source, target) declaration ranks, sorted by target rank and then source rank; None unless ``t`` is valid.

    Ranks count state vertices, then inputs. One pass each checks that the
    ids are unique, that ``dims`` has exactly the declared ids as keys and
    no dimension below 1, and that every edge joins two known vertices,
    points at a state vertex, is no self edge and is listed once.
    """
    vertices = t.state_vertices + t.input_vertices
    rank = dict(zip(vertices, range(len(vertices))))
    if len(rank) != len(vertices) or t.dims.keys() != rank.keys() or any(map(operator.lt, t.dims.values(), repeat(1))):
        return None
    ends = np.fromiter(map(rank.get, chain.from_iterable(t.edges), repeat(-1)), dtype=np.intp, count=2 * len(t.edges))
    src, dst = ends[0::2], ends[1::2]
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    repeated = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if (ends < 0).any() or (dst >= len(t.state_vertices)).any() or (src == dst).any() or repeated.any():
        return None
    return src, dst


@dataclass(frozen=True, eq=False)
class _GraphIndex:
    """A valid topology's graph as arrays over declaration ranks (state vertices, then inputs), and its gather plan.

    State vertex i has one block per column group of its local data: its
    own, then one per parent in rank order. ``block_sources`` holds every
    block's source rank, vertex by vertex; vertex i's blocks are
    ``block_sources[block_starts[i]:block_starts[i + 1]]``. ``dims`` holds
    each vertex's dimension, ``local_dims`` each state vertex's local
    dimension, and ``plan_starts`` where each state vertex's coefficients
    begin in plan order. ``subsystems`` caches the
    :class:`LocalSubsystem` of each vertex looked up.
    """

    vertices: tuple[str, ...]
    dims: np.ndarray
    block_sources: np.ndarray
    block_starts: np.ndarray
    local_dims: np.ndarray
    plan: tuple[ShapeGroup, ...]
    plan_starts: np.ndarray
    subsystems: dict[str, LocalSubsystem] = field(default_factory=dict)


def _build_graph(t: NetworkTopology) -> _GraphIndex:
    """Validate once, then build the index and the gather plan in whole-array steps over the sorted edges."""
    ranks = _edge_ranks(t)
    if ranks is None:
        raise BadConfig(f"invalid topology: {_violations(t)[0].message}")
    parents, targets = ranks
    vertices = t.state_vertices + t.input_vertices
    n = len(t.state_vertices)
    dims = _index_array(np.fromiter(map(t.dims.__getitem__, vertices), dtype=np.intp, count=len(vertices)))
    position = np.cumsum(dims) - dims  # each vertex's first position in [x; u]
    block_starts = _offsets(np.bincount(targets, minlength=n) + 1)
    own = np.zeros(block_starts[-1], dtype=bool)
    own[block_starts[:-1]] = True
    sources = np.empty(block_starts[-1], dtype=np.intp)
    sources[own] = np.arange(n)
    sources[~own] = parents
    widths = dims[sources]
    column_starts = _offsets(widths)  # each block's first column, counting every vertex's columns in turn
    columns = np.repeat(position[sources] - column_starts[:-1], widths) + np.arange(column_starts[-1])
    first_column = column_starts[block_starts]
    local_dims = np.diff(first_column)
    center_dims = dims[:n]
    # shape groups (d, k), numbered in the order of their first vertex
    _, first, label = np.unique(center_dims * (local_dims.max(initial=0) + 1) + local_dims, return_index=True, return_inverse=True)
    renumber = np.empty_like(first)
    renumber[np.argsort(first)] = np.arange(first.size)
    label = renumber[label]
    members = np.argsort(label, kind="stable")
    group_starts = _offsets(np.bincount(label, minlength=first.size))
    plan_starts = np.empty(n, dtype=np.intp)
    plan, offset = [], 0
    for lo, hi in zip(group_starts[:-1].tolist(), group_starts[1:].tolist()):
        index = members[lo:hi]
        d, k = int(center_dims[index[0]]), int(local_dims[index[0]])
        plan_starts[index] = offset + np.arange(hi - lo) * (d * k)
        offset += (hi - lo) * d * k
        rows = position[index, None] + np.arange(d)
        cols = columns[first_column[index, None] + np.arange(k)]
        names = tuple(map(t.state_vertices.__getitem__, index.tolist()))
        plan.append(ShapeGroup(names, _index_array(rows), _index_array(cols), _index_array(index)))
    return _GraphIndex(
        vertices,
        dims,
        _index_array(sources),
        _index_array(block_starts),
        _index_array(local_dims),
        tuple(plan),
        _index_array(plan_starts),
    )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each of ``counts``' runs starts, laid end to end, then the total."""
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


def local_subsystem(t: NetworkTopology, v: str) -> LocalSubsystem:
    """In-neighborhood of state vertex ``v``, split into state and input parents.

    Reads the topology's graph index and builds a vertex's subsystem on its
    first lookup, so a lookup costs O(1) after the first one on ``t``.
    Raises :class:`BadConfig` naming the first violation :func:`validate`
    reports, and :class:`UnknownVertex` for a vertex that is not a state
    vertex.
    """
    g = t._graph
    sub = g.subsystems.get(v)
    if sub is None:
        i = t._state_index.get(v)
        if i is None:
            raise UnknownVertex(f"{v!r} is not a state vertex")
        parents = g.block_sources[g.block_starts[i] + 1 : g.block_starts[i + 1]].tolist()
        n_state = bisect_left(parents, len(t.state_vertices))
        names = tuple(map(g.vertices.__getitem__, parents))
        sub = g.subsystems[v] = LocalSubsystem(v, names[:n_state], names[n_state:], int(g.local_dims[i]))
    return sub


def gather_plan(t: NetworkTopology) -> tuple[ShapeGroup, ...]:
    """The topology's state vertices grouped by local shape (center dim, local dim).

    Groups appear in the order of their first vertex, and vertices keep
    declaration order within a group. Derived once per topology; raises
    :class:`BadConfig` naming the first violation :func:`validate` reports.
    """
    return t._graph.plan


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


def _block_order(t: NetworkTopology):
    """``(v, w)`` for every block, w coupling into state vertex v, in the one block order.

    Vertex by vertex, each vertex's own block (w == v) first, then its state
    parents', then its input parents': the column order of v's local data.
    """
    g = t._graph
    centers = chain.from_iterable(map(repeat, t.state_vertices, np.diff(g.block_starts).tolist()))
    return zip(centers, map(g.vertices.__getitem__, g.block_sources.tolist()))


def _block_slots(t: NetworkTopology, coeffs: np.ndarray):
    """``(v, w, view)`` for every block of plan-order ``coeffs``, in :func:`_block_order`: ``view`` is the block's view of ``coeffs``, w's columns of v's strip."""
    strips = {v: strip for group, stack in _group_stacks(t, coeffs) for v, strip in zip(group.vertices, stack)}
    for v, w in _block_order(t):
        if w == v:
            offset = 0
        yield v, w, strips[v][:, offset : offset + t.dims[w]]
        offset += t.dims[w]


def _build_block_to_plan(g: _GraphIndex) -> np.ndarray:
    """Plan-order position of every entry of every block, blocks in :func:`_block_order` and each row-major."""
    center = np.repeat(np.arange(len(g.local_dims)), np.diff(g.block_starts))
    widths = g.dims[g.block_sources]
    column_starts = _offsets(widths)
    sizes = g.dims[center] * widths
    entry_starts = _offsets(sizes)
    block = np.repeat(np.arange(sizes.size), sizes)
    row, col = np.divmod(np.arange(entry_starts[-1]) - entry_starts[block], widths[block])
    # block b's entry (r, c) sits at row r, column (b's first column in its strip) + c of its center's strip
    first = g.plan_starts[center] + column_starts[:-1] - column_starts[g.block_starts[center]]
    return _index_array(first[block] + row * g.local_dims[center][block] + col)


def _from_block_order(t: NetworkTopology, values: np.ndarray) -> np.ndarray:
    """A new read-only plan-order coefficient vector holding ``values``: every block's entries, blocks in :func:`_block_order`, each row-major."""
    coeffs = np.empty(values.size)
    coeffs[t._block_to_plan] = values
    coeffs.flags.writeable = False
    return coeffs


def _read_blocks(t: NetworkTopology, blocks: dict) -> np.ndarray:
    """A new read-only plan-order coefficient vector of ``blocks[(w, v)]``, coupling w into state vertex v; (v, v) is v's own block.

    After the topology's own check, keys other than one per state vertex and
    one per edge raise :class:`BadConfig` naming the missing and extra ones.
    Then the first block, in :func:`_block_order`, that is not a
    (dims[v], dims[w]) matrix raises :class:`DimensionMismatch`. The blocks'
    entries are laid end to end and placed in plan order in one step.
    """
    gather_plan(t)
    expected = {(v, v) for v in t.state_vertices}.union(t.edges)
    missing, extra = expected - blocks.keys(), blocks.keys() - expected
    if missing or extra:
        missing, extra = (sorted(_block_key(w, v) for w, v in keys) for keys in (missing, extra))
        raise BadConfig(f"blocks do not match the topology: missing {missing}, extra {extra}")
    dims = t.dims
    values = [np.zeros(0)]
    for v, w in _block_order(t):
        try:
            block = np.asarray(blocks[(w, v)], dtype=float)
        except (TypeError, ValueError) as exc:
            raise DimensionMismatch(f"block for {w}->{v} is not a matrix: {exc}") from exc
        if block.shape != (dims[v], dims[w]):
            raise DimensionMismatch(f"block for {w}->{v} must be {(dims[v], dims[w])}, got {block.shape}")
        values.append(block.reshape(-1))
    return _from_block_order(t, np.concatenate(values))


def _block_key(w: str, v: str) -> str:
    return f"{w}{BLOCK_KEY_SEP}{v}"


def _split_block_key(key: str) -> tuple[str, str]:
    """``(w, v)`` of a :func:`_block_key`; a key without the separator reads as ``(key, "")``."""
    return key.partition(BLOCK_KEY_SEP)[::2]


def _coefficient_views(t: NetworkTopology, coeffs: np.ndarray):
    """``(v, w, block)`` for every block of plan-order ``coeffs``, in :func:`_block_slots`' order, as read-only views."""
    for v, w, block in _block_slots(t, coeffs):
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
    entries = [*d["state_vertices"], *d["input_vertices"]]
    dims = {_json_value(entry["id"], str): _json_value(entry["dim"], int) for entry in entries}
    states, inputs = (tuple(entry["id"] for entry in d[key]) for key in ("state_vertices", "input_vertices"))
    edges = tuple((_json_value(src, str), _json_value(dst, str)) for src, dst in d["edges"])
    return NetworkTopology(states, inputs, edges, dims)


