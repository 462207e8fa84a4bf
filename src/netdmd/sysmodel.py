"""Ground-truth linear network dynamics, simulation, and random generators.

Systems and trajectories are immutable values; simulation is a pure function
of (system, x0, inputs). A system stores its coefficients once, as a
read-only vector in its topology's coefficient order; with the topology's
coefficient positions that vector is the transition operator, a sparse
matrix over the stacked vector ``[x; u]`` in coordinate (COO) form, applied
with ``np.bincount``. Random generation goes through one PRNG
algorithm project-wide (PCG64 keyed by integer tuples) so that results are
bit-stable regardless of execution order.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType

import numpy as np

from .errors import BadConfig, DimensionMismatch, Divergence, RowRangeMismatch
from .topology import (
    BLOCK_KEY_SEP,  # re-exported: the key separator of system and model JSON
    NetworkTopology,
    _block_key,
    _block_order,
    _coefficient_views,
    _densify,
    _from_block_order,
    _read_blocks,
    _split_block_key,
    coefficient_support,
    topology_from_dict,
    topology_to_dict,
)


@dataclass(frozen=True, eq=False, init=False)
class LinearNetworkSystem:
    """A topology plus the coefficients of its linear transition map.

    Built from ``self_blocks[v]``, the square block coupling vertex ``v`` to
    itself, and ``edge_blocks[(w, v)]``, coupling parent ``w`` (state or
    input) into ``v``. Construction checks the blocks against the topology
    (a missing or extra block is :class:`BadConfig`, a mis-shaped one
    :class:`DimensionMismatch`) and copies them once into ``coeffs``, one
    read-only vector in the topology's coefficient order
    (:func:`coefficient_support`), as a network model stores its estimate. ``self_blocks`` and ``edge_blocks`` are
    read-only views of ``coeffs``, vertex by vertex: its self block, then
    its state parents' blocks, then its input parents'.
    """

    topology: NetworkTopology
    coeffs: np.ndarray

    def __init__(self, topology: NetworkTopology, self_blocks: dict, edge_blocks: dict):
        blocks = {(v, v): block for v, block in self_blocks.items()}
        blocks.update(edge_blocks)
        coeffs = _read_blocks(topology, blocks)
        loops = sorted(v for w, v in edge_blocks if w == v)
        if loops:
            raise BadConfig(f"self-dependence is a self block, not an edge block, for {loops}")
        _fill(self, topology, coeffs)

    @cached_property
    def self_blocks(self) -> Mapping[str, np.ndarray]:
        return MappingProxyType({v: b for v, w, b in _coefficient_views(self.topology, self.coeffs) if w == v})

    @cached_property
    def edge_blocks(self) -> Mapping[tuple[str, str], np.ndarray]:
        return MappingProxyType({(w, v): b for v, w, b in _coefficient_views(self.topology, self.coeffs) if w != v})


def _fill(system: LinearNetworkSystem, topology: NetworkTopology, coeffs: np.ndarray) -> LinearNetworkSystem:
    """``system`` with its two fields set: the topology and the read-only plan-order ``coeffs`` its writer made."""
    object.__setattr__(system, "topology", topology)
    object.__setattr__(system, "coeffs", coeffs)
    return system


@dataclass(frozen=True, eq=False)
class TrajectoryData:
    """Aligned snapshot triples: states ``z``, inputs ``gamma``, successors ``y``.

    Column k of ``y`` is the successor of column k of ``z`` under column k of
    ``gamma``; when produced by :func:`simulate`, column k+1 of ``z`` equals
    column k of ``y``. ``vertex_row_ranges`` locates each vertex's rows
    (state ids index ``z``/``y`` rows, input ids index ``gamma`` rows);
    :func:`_trajectory_rows` is its only reader.
    :func:`simulate` and :func:`read_trajectory_csv` return read-only arrays,
    so every consumer of one trajectory sees the same data.
    """

    z: np.ndarray
    gamma: np.ndarray
    y: np.ndarray
    vertex_row_ranges: dict[str, tuple[int, int]]

    @property
    def n_snapshots(self) -> int:
        return self.z.shape[1]


def _trajectory_rows(t: NetworkTopology, traj: TrajectoryData) -> np.ndarray:
    """Row of ``[traj.z; traj.gamma]`` holding each position of ``[x; u]``, read-only.

    First the trajectory's arrays must line up, else
    :class:`DimensionMismatch` naming the array: z, gamma and y must be
    matrices, y must have z's rows, and gamma and y z's column count. Then
    it raises :class:`RowRangeMismatch` for the first vertex, in
    :func:`_block_order`, whose row range is missing or mis-sized, or does
    not lie inside its array (z for a state vertex, gamma for an input). A
    vertex that no node reads (an input without edges) may lack rows; its
    positions map to -1.
    """
    for name, a in (("z", traj.z), ("gamma", traj.gamma), ("y", traj.y)):
        if np.ndim(a) != 2:
            raise DimensionMismatch(f"trajectory {name} must be a matrix, got shape {np.shape(a)}")
    if traj.y.shape[0] != traj.z.shape[0]:
        raise DimensionMismatch(f"trajectory y has {traj.y.shape[0]} rows but z has {traj.z.shape[0]}")
    for name, a in (("gamma", traj.gamma), ("y", traj.y)):
        if a.shape[1] != traj.z.shape[1]:
            raise DimensionMismatch(f"trajectory {name} has {a.shape[1]} columns but z has {traj.z.shape[1]}")
    vertices = t.state_vertices + t.input_vertices
    n = len(t.state_vertices)
    spans = map(traj.vertex_row_ranges.get, vertices, repeat((0, -1)))
    lo, hi = np.fromiter(chain.from_iterable(spans), dtype=np.intp, count=2 * len(vertices)).reshape(-1, 2).T
    dim = t._vertex_dims
    height = np.repeat([traj.z.shape[0], traj.gamma.shape[0]], [n, len(vertices) - n])
    bad = (hi - lo != dim) | (lo < 0) | (hi > height)
    lo[n:] += traj.z.shape[0]
    source = np.repeat(lo - (np.cumsum(dim) - dim), dim) + np.arange(dim.sum())
    if bad.any():
        failing = {w: i for i, (w, b) in enumerate(zip(vertices, bad)) if b}
        for w in (w for _, w in _block_order(t) if w in failing):
            if w not in traj.vertex_row_ranges:
                raise RowRangeMismatch(f"trajectory has no rows for vertex {w!r}")
            w_lo, w_hi = traj.vertex_row_ranges[w]
            if w_hi - w_lo != t.dims[w]:
                raise RowRangeMismatch(f"vertex {w!r} spans {w_hi - w_lo} trajectory rows but has dimension {t.dims[w]}")
            name = "z" if failing[w] < n else "gamma"
            raise RowRangeMismatch(f"vertex {w!r} spans rows {w_lo} to {w_hi} of {name}, which has {height[failing[w]]}")
        source[np.repeat(bad, dim)] = -1
    source.flags.writeable = False
    return source


@dataclass(frozen=True)
class Circular:
    """Ring of scalar state vertices with an input attached every ``input_period``-th one."""

    n_states: int
    input_period: int = 2

    def __post_init__(self):
        if self.n_states < 2:
            raise BadConfig(f"circular family needs n_states >= 2, got {self.n_states}")
        if self.input_period < 1:
            raise BadConfig(f"input_period must be >= 1, got {self.input_period}")


@dataclass(frozen=True)
class ErdosRenyi:
    """Autonomous random digraph: each ordered non-self pair is an edge with probability p."""

    n: int
    p: float

    def __post_init__(self):
        if self.n < 1:
            raise BadConfig(f"erdos-renyi family needs n >= 1, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise BadConfig(f"p must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class GeneratorConfig:
    """Family plus coefficient/input ranges and the seed that fixes all draws."""

    family: Circular | ErdosRenyi
    coeff_range: tuple[float, float] = (-1.0, 1.0)
    input_range: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        _check_range("coeff_range", self.coeff_range)
        _check_range("input_range", self.input_range)


def _check_range(name: str, bounds) -> None:
    """BadConfig unless ``bounds`` is a pair ``lo <= hi`` of finite width, as ``rng.uniform`` needs."""
    if not (len(bounds) == 2 and bounds[0] <= bounds[1] and math.isfinite(bounds[1] - bounds[0])):
        raise BadConfig(f"{name} must be a nonempty interval of finite width, got {bounds}")


def derive_rng(*key: int) -> np.random.Generator:
    """PCG64 stream keyed by a tuple of integers.

    The project-wide convention for deriving independent streams, e.g.
    ``derive_rng(master_seed, trial)``; equal keys give bit-identical streams.
    """
    return np.random.default_rng(tuple(int(k) & 0xFFFFFFFFFFFFFFFF for k in key))


def step(system: LinearNetworkSystem, x, u) -> np.ndarray:
    """One transition of the full network.

    Each output entry is a plain double sum accumulated left to right from
    0.0: the self block's row times the vertex's own component, then each
    state parent's block row times that parent's component, then each input
    parent's, parents in declaration order. For scalar vertices that is the
    order of the per-vertex block products, so those trajectories equal
    summing ``block @ component`` per vertex exactly (a sum of zeros is +0.0
    where that loop could give -0.0).
    """
    t = system.topology
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x.size != t.total_state_dim:
        raise DimensionMismatch(f"state vector has {x.size} entries, topology needs {t.total_state_dim}")
    if u.size != t.total_input_dim:
        raise DimensionMismatch(f"input vector has {u.size} entries, topology needs {t.total_input_dim}")
    rows, cols, _ = coefficient_support(t)
    return np.bincount(rows, weights=system.coeffs * np.concatenate([x, u])[cols], minlength=x.size)


def simulate(system: LinearNetworkSystem, x0, inputs) -> TrajectoryData:
    """Roll the system forward one column of ``inputs`` at a time.

    ``inputs`` is l-by-m (use an l=0 array for autonomous systems; its column
    count still sets the number of snapshot triples m). Each step is
    :func:`step`'s operator. Raises :class:`Divergence`, naming the first
    step whose state is not finite, if the trajectory overflows.
    """
    t = system.topology
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise DimensionMismatch(f"inputs must be 2-D (l x m), got shape {inputs.shape}")
    if inputs.shape[0] != t.total_input_dim:
        raise DimensionMismatch(f"inputs have {inputs.shape[0]} rows, topology needs {t.total_input_dim}")
    m = inputs.shape[1]
    if m < 1:
        raise DimensionMismatch("need at least one input column (m >= 1)")
    n = t.total_state_dim
    if x0.size != n:
        raise DimensionMismatch(f"state vector has {x0.size} entries, topology needs {n}")
    rows, cols, _ = coefficient_support(t)
    z = np.empty((n, m))
    y = np.empty((n, m))
    xu = np.empty(n + inputs.shape[0])
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m):
            z[:, k] = x
            xu[:n] = x
            xu[n:] = inputs[:, k]
            x = np.bincount(rows, weights=system.coeffs * xu[cols], minlength=n)
            y[:, k] = x
    finite = np.isfinite(y).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite)) + 1
        raise Divergence(f"state is not finite after step {k} of {m}")
    return _read_only_trajectory(z, inputs.copy(), y, t.vertex_row_ranges())


def _read_only_trajectory(z, gamma, y, ranges) -> TrajectoryData:
    """A trajectory over freshly built arrays, which are made read-only."""
    for arr in (z, gamma, y):
        arr.flags.writeable = False
    return TrajectoryData(z=z, gamma=gamma, y=y, vertex_row_ranges=ranges)


def _draw_blocks(topology: NetworkTopology, rng: np.random.Generator, coeff_range) -> LinearNetworkSystem:
    """Draw every coefficient block i.i.d. uniform, in the order the topology writes blocks.

    That is vertex by vertex, its self block, then its state parents', then
    its input parents', each block row-major. All of them come from one
    ``rng.uniform`` call in that order, which the topology then places in
    plan order: the same values, and the same generator state after, as one
    call per block. Equal seeds give bit-identical systems.
    """
    lo, hi = coeff_range
    coeffs = _from_block_order(topology, rng.uniform(lo, hi, size=topology._block_to_plan.size))
    return _fill(object.__new__(LinearNetworkSystem), topology, coeffs)


def gen_circular(cfg: GeneratorConfig, rng: np.random.Generator | None = None) -> LinearNetworkSystem:
    """Random ring system: v_j feeds v_{j+1} (wrapping), inputs every ``input_period``-th vertex.

    All component dimensions are 1; input vertices attach starting at the
    first state vertex. Equal (cfg, seed) produce bit-identical systems.
    """
    if not isinstance(cfg.family, Circular):
        raise BadConfig("gen_circular requires a Circular family config")
    if rng is None:
        rng = derive_rng(cfg.seed)
    n = cfg.family.n_states
    states = [f"v{j}" for j in range(1, n + 1)]
    fed = states[:: cfg.family.input_period]
    inputs = [f"e{count}" for count in range(1, len(fed) + 1)]
    edges = [*zip(states, states[1:] + states[:1]), *zip(inputs, fed)]
    dims = dict.fromkeys(states + inputs, 1)
    topology = NetworkTopology(tuple(states), tuple(inputs), tuple(edges), dims)
    return _draw_blocks(topology, rng, cfg.coeff_range)


#: Uniforms per call when :func:`gen_erdos_renyi` draws its edges: whole rows of at most 2 MiB of doubles.
_EDGE_DRAW_BLOCK = 2**18


def gen_erdos_renyi(cfg: GeneratorConfig, rng: np.random.Generator | None = None) -> LinearNetworkSystem:
    """Random autonomous digraph: each ordered non-self pair is an edge w.p. p.

    Edge existence is drawn first: one uniform per ordered pair (i, j),
    including i == j, in row-major order. The generator draws them a block
    of whole rows per call, about ``_EDGE_DRAW_BLOCK`` uniforms, so the
    draws take O(n + block) memory and the stream is the one a single
    n-by-n draw would give. Pair (i, j) is an edge when i != j and its
    uniform is below p. Coefficients follow, in the same per-vertex order as
    every other generator.
    """
    if not isinstance(cfg.family, ErdosRenyi):
        raise BadConfig("gen_erdos_renyi requires an ErdosRenyi family config")
    if rng is None:
        rng = derive_rng(cfg.seed)
    n = cfg.family.n
    states = [f"v{j}" for j in range(1, n + 1)]
    rows = max(1, _EDGE_DRAW_BLOCK // n)
    pairs = []
    for first in range(0, n, rows):
        hits = np.flatnonzero(rng.random(min(rows, n - first) * n) < cfg.family.p) + first * n
        pairs.append(hits[hits % (n + 1) != 0])  # flat index i * n + j with i == j is a multiple of n + 1
    src, dst = np.divmod(np.concatenate([np.zeros(0, dtype=np.intp), *pairs]), n)
    edges = tuple(zip(map(states.__getitem__, src.tolist()), map(states.__getitem__, dst.tolist())))
    topology = NetworkTopology(tuple(states), (), edges, dict.fromkeys(states, 1))
    return _draw_blocks(topology, rng, cfg.coeff_range)


def true_full_matrices(system: LinearNetworkSystem) -> tuple[np.ndarray, np.ndarray]:
    """Assembled ground-truth (A, B): the transition operator with exact zeros wherever there is no edge."""
    return _densify(system.topology, system.coeffs), _densify(system.topology, system.coeffs, inputs=True)


def system_to_dict(system: LinearNetworkSystem) -> dict:
    """JSON-ready form: the topology plus all coefficient blocks."""
    return {
        "topology": topology_to_dict(system.topology),
        "self_blocks": {v: block.tolist() for v, block in system.self_blocks.items()},
        "edge_blocks": {_block_key(src, dst): block.tolist() for (src, dst), block in system.edge_blocks.items()},
    }


def system_from_dict(d: dict) -> LinearNetworkSystem:
    edge_blocks = {_split_block_key(key): block for key, block in d["edge_blocks"].items()}
    return LinearNetworkSystem(topology_from_dict(d["topology"]), d["self_blocks"], edge_blocks)


def write_trajectory_csv(traj: TrajectoryData, topology: NetworkTopology, path) -> None:
    """CSV export: one row per time index with the state and input columns.

    Header is ``k, <vertex>:<component>..., u:<vertex>:<component>...`` in
    the topology's vertex order, and each column holds its vertex's own
    rows, found through :func:`_trajectory_rows`; rows that no vertex maps
    to are not written. The successor matrix is recoverable from the
    one-step shift plus a final row flagged ``y_final`` that carries the
    last successor column and leaves the input cells empty. Arrays or a
    row map that :func:`_trajectory_rows` rejects raise its error, and an
    input vertex without rows :class:`RowRangeMismatch`.
    """
    source = _trajectory_rows(topology, traj)
    if (source < 0).any():
        vertices = topology.state_vertices + topology.input_vertices
        w = vertices[np.repeat(np.arange(len(vertices)), topology._vertex_dims)[np.argmax(source < 0)]]
        raise RowRangeMismatch(f"trajectory has no rows for vertex {w!r}")
    header = ["k"]
    header += [f"{v}:{c}" for v in topology.state_vertices for c in range(topology.dims[v])]
    header += [f"u:{e}:{c}" for e in topology.input_vertices for c in range(topology.dims[e])]
    n = topology.total_state_dim
    table = np.concatenate([traj.z, traj.gamma], dtype=float)[source].T.tolist()
    final = traj.y[source[:n], -1].astype(float).tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([str(k), *map(repr, row)] for k, row in enumerate(table, start=1))
        writer.writerow(["y_final", *map(repr, final), *[""] * (source.size - n)])


def read_trajectory_csv(path) -> TrajectoryData:
    """Rebuild a read-only :class:`TrajectoryData` written by :func:`write_trajectory_csv`.

    The cells are read with ``float``, row by row, each row's state columns
    before its input columns, and the ``y_final`` row last. Raises
    :class:`DimensionMismatch` for a row whose field count differs from the
    header's, a ``y_final`` row with anything in an input cell (the writer
    leaves them empty) or the first cell ``float`` cannot read, naming its
    row (counted from 1, the header included) and column, and
    :class:`RowRangeMismatch` when a vertex's columns are not contiguous or
    an id names both a state and an input vertex.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise DimensionMismatch("trajectory CSV is empty")
    header = rows[0]
    numbered = list(enumerate(rows[1:], start=2))
    for number, row in numbered:
        if len(row) != len(header):
            raise DimensionMismatch(f"trajectory CSV row {number} has {len(row)} fields, the header has {len(header)}")
    data_rows = [(number, r) for number, r in numbered if r[0] != "y_final"]
    final_rows = [(number, r) for number, r in numbered if r[0] == "y_final"]
    if not data_rows or len(final_rows) != 1:
        raise DimensionMismatch("trajectory CSV needs data rows and exactly one y_final row")
    is_input = [name.startswith("u:") for name in header]
    order = sorted(range(1, len(header)), key=is_input.__getitem__)  # state columns, then input columns
    n = is_input[1:].count(False)
    final = final_rows[0][1]
    for i in order[n:]:
        if final[i]:
            raise DimensionMismatch(f"trajectory CSV y_final row has {final[i]!r} in input column {header[i]!r}, which must be empty")
    table = np.array(_read_cells(data_rows, order, header), dtype=float)
    states = np.vstack([table[:, :n], _read_cells(final_rows, order[:n], header)])
    vertices = [header[i].removeprefix("u:").rsplit(":", 1)[0] for i in order]
    ranges = _column_ranges(vertices[:n])
    input_ranges = _column_ranges(vertices[n:])
    shared = sorted(ranges.keys() & input_ranges.keys())
    if shared:
        raise RowRangeMismatch(f"trajectory CSV uses {shared[0]!r} as both a state and an input vertex")
    ranges.update(input_ranges)
    z, gamma, y = (np.ascontiguousarray(a.T) for a in (states[:-1], table[:, n:], states[1:]))
    return _read_only_trajectory(z, gamma, y, ranges)


def _read_cells(numbered_rows, columns, header) -> list[list[float]]:
    """``float`` of each row's cells in ``columns``, for ``(row number, row)`` pairs; the first cell that is not a number raises :class:`DimensionMismatch`."""
    try:
        return [[float(row[i]) for i in columns] for _, row in numbered_rows]
    except ValueError:
        for number, row in numbered_rows:
            for i in columns:
                try:
                    float(row[i])
                except ValueError as exc:
                    raise DimensionMismatch(f"trajectory CSV row {number} has {row[i]!r} in column {header[i]!r}, which is not a number") from exc
        raise


def _column_ranges(vertices) -> dict[str, tuple[int, int]]:
    """Half-open row range of each vertex, given one vertex id per row."""
    ranges: dict[str, tuple[int, int]] = {}
    for r, vertex in enumerate(vertices):
        lo, hi = ranges.get(vertex, (r, r))
        if hi != r:
            raise RowRangeMismatch(f"trajectory CSV columns of vertex {vertex!r} are not contiguous")
        ranges[vertex] = (lo, r + 1)
    return ranges
