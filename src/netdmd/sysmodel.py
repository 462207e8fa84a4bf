"""Ground-truth linear network dynamics, simulation, and random generators.

Systems and trajectories are immutable values; simulation is a pure function
of (system, x0, inputs). A system stores its coefficient blocks read-only and
derives its transition operator from them once, on first use: a sparse
matrix over the stacked vector ``[x; u]`` held as coordinate (COO) arrays and
applied with ``np.bincount``. Random generation goes through one PRNG
algorithm project-wide (PCG64 keyed by integer tuples) so that results are
bit-stable regardless of execution order.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadConfig, DimensionMismatch, Divergence, RowRangeMismatch
from .topology import NetworkTopology, _densify, coefficient_support, gather_plan, local_subsystem

#: Separator used in serialized edge-block keys ("src->dst" with an arrow).
BLOCK_KEY_SEP = "→"


@dataclass(frozen=True, eq=False)
class LinearNetworkSystem:
    """A topology plus the coefficient blocks of each linear transition map.

    ``self_blocks[v]`` is the square block coupling vertex ``v`` to itself;
    ``edge_blocks[(w, v)]`` couples parent ``w`` (state or input) into ``v``.
    Construction verifies block/edge consistency eagerly and stores read-only
    copies of the blocks, so the transition operator derived from them cannot
    go stale. The system is a value: do not rebind entries of the block dicts.
    """

    topology: NetworkTopology
    self_blocks: dict[str, np.ndarray]
    edge_blocks: dict[tuple[str, str], np.ndarray]

    def __post_init__(self):
        t = self.topology
        self_blocks = {v: _frozen(b) for v, b in self.self_blocks.items()}
        edge_blocks = {e: _frozen(b) for e, b in self.edge_blocks.items()}
        for v in t.state_vertices:
            if v not in self_blocks:
                raise BadConfig(f"state vertex {v!r} has no self block")
            n = t.dims[v]
            if self_blocks[v].shape != (n, n):
                raise DimensionMismatch(f"self block of {v!r} must be {(n, n)}, got {self_blocks[v].shape}")
        extra = set(self_blocks) - set(t.state_vertices)
        if extra:
            raise BadConfig(f"self blocks for non-state vertices: {sorted(extra)}")
        edge_set = set(t.edges)
        for (src, dst), block in edge_blocks.items():
            if (src, dst) not in edge_set:
                raise BadConfig(f"block for non-edge {src}->{dst}")
            want = (t.dims[dst], t.dims[src])
            if block.shape != want:
                raise DimensionMismatch(f"block for {src}->{dst} must be {want}, got {block.shape}")
        missing = edge_set - set(edge_blocks)
        if missing:
            raise BadConfig(f"edges without blocks: {sorted(missing)}")
        object.__setattr__(self, "self_blocks", self_blocks)
        object.__setattr__(self, "edge_blocks", edge_blocks)

    @cached_property
    def _operator(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The transition map as COO arrays (rows, cols, vals) over ``[x; u]``.

        Entries come in the topology's coefficient order
        (:func:`coefficient_support`), one shape group of its gather plan at
        a time. Row i's entries appear in the order ``step`` sums them: the
        self block's row, then each state parent's block row, then each input
        parent's, parents in declaration order.
        """
        t = self.topology
        rows, cols, _ = coefficient_support(t)
        vals = [np.zeros(0)]
        for group in gather_plan(t):
            g, d, k = group.shape
            blocks = []
            for v in group.vertices:
                sub = local_subsystem(t, v)
                blocks.append(self.self_blocks[v])
                blocks.extend(self.edge_blocks[(w, v)] for w in sub.state_parents + sub.input_parents)
            # The d-by-(G*k) strip of every block row side by side, regrouped into the (G, d, k) stack.
            vals.append(np.concatenate(blocks, axis=1).reshape(d, g, k).transpose(1, 0, 2).reshape(-1))
        return rows, cols, np.concatenate(vals)


def _frozen(block) -> np.ndarray:
    """A read-only float copy, so later writes by the caller cannot reach the system."""
    out = np.array(block, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class TrajectoryData:
    """Aligned snapshot triples: states ``z``, inputs ``gamma``, successors ``y``.

    Column k of ``y`` is the successor of column k of ``z`` under column k of
    ``gamma``; when produced by :func:`simulate`, column k+1 of ``z`` equals
    column k of ``y``. ``vertex_row_ranges`` locates each vertex's rows
    (state ids index ``z``/``y`` rows, input ids index ``gamma`` rows).
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
        for name, (lo, hi) in (("coeff_range", self.coeff_range), ("input_range", self.input_range)):
            if not lo <= hi:
                raise BadConfig(f"{name} is empty: ({lo}, {hi})")


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
    return _apply(system._operator, np.concatenate([x, u]), x.size)


def _apply(operator, xu: np.ndarray, n: int) -> np.ndarray:
    rows, cols, vals = operator
    return np.bincount(rows, weights=vals * xu[cols], minlength=n)


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
    operator = system._operator
    z = np.empty((n, m))
    y = np.empty((n, m))
    xu = np.empty(n + inputs.shape[0])
    x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m):
            z[:, k] = x
            xu[:n] = x
            xu[n:] = inputs[:, k]
            x = _apply(operator, xu, n)
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
    """Draw every coefficient block i.i.d. uniform, in a fixed per-vertex order.

    Draw order is: for each state vertex in declaration order, the self block,
    then each in-edge block with state parents before input parents. This
    pins the stream layout so equal seeds give bit-identical systems.
    """
    lo, hi = coeff_range
    self_blocks = {}
    edge_blocks = {}
    for v in topology.state_vertices:
        n = topology.dims[v]
        self_blocks[v] = rng.uniform(lo, hi, size=(n, n))
        sub = local_subsystem(topology, v)
        for w in sub.state_parents + sub.input_parents:
            edge_blocks[(w, v)] = rng.uniform(lo, hi, size=(n, topology.dims[w]))
    return LinearNetworkSystem(topology, self_blocks, edge_blocks)


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
    edges = [(states[j], states[(j + 1) % n]) for j in range(n)]
    inputs = []
    for count, j in enumerate(range(0, n, cfg.family.input_period), start=1):
        e = f"e{count}"
        inputs.append(e)
        edges.append((e, states[j]))
    dims = {v: 1 for v in states + inputs}
    topology = NetworkTopology(tuple(states), tuple(inputs), tuple(edges), dims)
    return _draw_blocks(topology, rng, cfg.coeff_range)


def gen_erdos_renyi(cfg: GeneratorConfig, rng: np.random.Generator | None = None) -> LinearNetworkSystem:
    """Random autonomous digraph: each ordered non-self pair is an edge w.p. p.

    Edge existence is drawn first: one uniform per ordered pair (i, j),
    including i == j, in row-major order, drawn one row of n at a time so the
    draws take O(n) memory. Pair (i, j) is an edge when i != j and its
    uniform is below p. Coefficients follow, in the same per-vertex order as
    every other generator.
    """
    if not isinstance(cfg.family, ErdosRenyi):
        raise BadConfig("gen_erdos_renyi requires an ErdosRenyi family config")
    if rng is None:
        rng = derive_rng(cfg.seed)
    n = cfg.family.n
    states = [f"v{j}" for j in range(1, n + 1)]
    edges = []
    for i, src in enumerate(states):
        targets = np.flatnonzero(rng.random(n) < cfg.family.p).tolist()
        edges.extend((src, states[j]) for j in targets if j != i)
    dims = {v: 1 for v in states}
    topology = NetworkTopology(tuple(states), (), tuple(edges), dims)
    return _draw_blocks(topology, rng, cfg.coeff_range)


def true_full_matrices(system: LinearNetworkSystem) -> tuple[np.ndarray, np.ndarray]:
    """Assembled ground-truth (A, B): the transition operator with exact zeros wherever there is no edge."""
    vals = system._operator[2]
    return _densify(system.topology, vals), _densify(system.topology, vals, inputs=True)


def system_to_dict(system: LinearNetworkSystem) -> dict:
    """JSON-ready form: the topology plus all coefficient blocks."""
    from .topology import topology_to_dict

    return {
        "topology": topology_to_dict(system.topology),
        "self_blocks": {v: block.tolist() for v, block in system.self_blocks.items()},
        "edge_blocks": {
            f"{src}{BLOCK_KEY_SEP}{dst}": block.tolist() for (src, dst), block in system.edge_blocks.items()
        },
    }


def system_from_dict(d: dict) -> LinearNetworkSystem:
    from .topology import topology_from_dict

    topology = topology_from_dict(d["topology"])
    self_blocks = {v: np.asarray(block, dtype=float) for v, block in d["self_blocks"].items()}
    edge_blocks = {}
    for key, block in d["edge_blocks"].items():
        src, _, dst = key.partition(BLOCK_KEY_SEP)
        edge_blocks[(src, dst)] = np.asarray(block, dtype=float)
    return LinearNetworkSystem(topology, self_blocks, edge_blocks)


def write_trajectory_csv(traj: TrajectoryData, topology: NetworkTopology, path) -> None:
    """CSV export: one row per time index with the state and input columns.

    Header is ``k, <vertex>:<component>..., u:<vertex>:<component>...``. The
    successor matrix is recoverable from the one-step shift plus a final row
    flagged ``y_final`` that carries the last successor column.
    """
    header = ["k"]
    header += [f"{v}:{c}" for v in topology.state_vertices for c in range(topology.dims[v])]
    header += [f"u:{e}:{c}" for e in topology.input_vertices for c in range(topology.dims[e])]
    m = traj.n_snapshots
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(m):
            row = [str(k + 1)]
            row += [repr(float(x)) for x in traj.z[:, k]]
            row += [repr(float(x)) for x in traj.gamma[:, k]]
            writer.writerow(row)
        final = ["y_final"]
        final += [repr(float(x)) for x in traj.y[:, -1]]
        final += [""] * traj.gamma.shape[0]
        writer.writerow(final)


def read_trajectory_csv(path) -> TrajectoryData:
    """Rebuild a read-only :class:`TrajectoryData` written by :func:`write_trajectory_csv`.

    Raises :class:`DimensionMismatch` for a row whose field count differs
    from the header's, and :class:`RowRangeMismatch` when a vertex's columns
    are not contiguous or an id names both a state and an input vertex.
    """
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if not rows:
        raise DimensionMismatch("trajectory CSV is empty")
    header = rows[0]
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DimensionMismatch(f"trajectory CSV row {number} has {len(row)} fields, the header has {len(header)}")
    state_cols = []
    input_cols = []
    for idx, name in enumerate(header[1:], start=1):
        if name.startswith("u:"):
            vertex = name[2:].rsplit(":", 1)[0]
            input_cols.append((idx, vertex))
        else:
            vertex = name.rsplit(":", 1)[0]
            state_cols.append((idx, vertex))
    data_rows = [r for r in rows[1:] if r[0] != "y_final"]
    final_rows = [r for r in rows[1:] if r[0] == "y_final"]
    if not data_rows or len(final_rows) != 1:
        raise DimensionMismatch("trajectory CSV needs data rows and exactly one y_final row")
    m = len(data_rows)
    z = np.empty((len(state_cols), m))
    gamma = np.empty((len(input_cols), m))
    for k, row in enumerate(data_rows):
        for r, (idx, _) in enumerate(state_cols):
            z[r, k] = float(row[idx])
        for r, (idx, _) in enumerate(input_cols):
            gamma[r, k] = float(row[idx])
    y = np.empty_like(z)
    if m > 1:
        y[:, : m - 1] = z[:, 1:]
    for r, (idx, _) in enumerate(state_cols):
        y[r, m - 1] = float(final_rows[0][idx])
    ranges = _column_ranges([vertex for _, vertex in state_cols])
    input_ranges = _column_ranges([vertex for _, vertex in input_cols])
    shared = sorted(ranges.keys() & input_ranges.keys())
    if shared:
        raise RowRangeMismatch(f"trajectory CSV uses {shared[0]!r} as both a state and an input vertex")
    ranges.update(input_ranges)
    return _read_only_trajectory(z, gamma, y, ranges)


def _column_ranges(vertices) -> dict[str, tuple[int, int]]:
    """Half-open row range of each vertex, given one vertex id per row."""
    ranges: dict[str, tuple[int, int]] = {}
    for r, vertex in enumerate(vertices):
        lo, hi = ranges.get(vertex, (r, r))
        if hi != r:
            raise RowRangeMismatch(f"trajectory CSV columns of vertex {vertex!r} are not contiguous")
        ranges[vertex] = (lo, r + 1)
    return ranges
