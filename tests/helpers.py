"""Shared constructors for randomized test systems, and reference oracles.

The oracles are the straightforward per-vertex forms of the package's
indexed and vectorized code: a topology rescan per lookup, a per-vertex
block loop per simulation step, a per-pair loop over one n-by-n draw for the
Erdős–Rényi edges, a per-vertex block row for the transition operator's
values, a per-node gather for both network DMDc solvers, and a lift of the
reduced network model through one dense block-diagonal projector.
"""
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from netdmd.dmdcore import dmdc_exact, dmdc_reduced
from netdmd.errors import DimensionMismatch, NetdmdError, RowRangeMismatch, UnknownVertex
from netdmd.numkernel import DEFAULT_RCOND, ConditioningRecord, MachineDefault, TruncationRule, conditioning_record
from netdmd.sysmodel import (
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    TrajectoryData,
    _draw_blocks,
    derive_rng,
)
from netdmd.topology import LocalSubsystem, NetworkTopology, gather_plan, local_subsystem


def random_small_system(rng: np.random.Generator, max_states: int = 4, max_inputs: int = 2) -> LinearNetworkSystem:
    """Random scalar-vertex system with arbitrary edges, for oracle comparisons."""
    n = int(rng.integers(1, max_states + 1))
    l = int(rng.integers(0, max_inputs + 1))
    states = [f"v{i}" for i in range(1, n + 1)]
    inputs = [f"e{i}" for i in range(1, l + 1)]
    edges = []
    for src in states:
        for dst in states:
            if src != dst and rng.random() < 0.5:
                edges.append((src, dst))
    for src in inputs:
        for dst in states:
            if rng.random() < 0.5:
                edges.append((src, dst))
    dims = {v: 1 for v in states + inputs}
    topology = NetworkTopology(tuple(states), tuple(inputs), tuple(edges), dims)
    self_blocks = {v: rng.uniform(-1, 1, (1, 1)) for v in states}
    edge_blocks = {e: rng.uniform(-1, 1, (1, 1)) for e in edges}
    return LinearNetworkSystem(topology, self_blocks, edge_blocks)


@st.composite
def topologies(draw, max_states=5, max_inputs=3, max_dim=3):
    """Valid topology with shuffled edge order and vertex dims in 1..max_dim."""
    n_states = draw(st.integers(1, max_states))
    n_inputs = draw(st.integers(0, max_inputs))
    states = tuple(f"v{i}" for i in range(n_states))
    inputs = tuple(f"e{i}" for i in range(n_inputs))
    candidates = [(s, d) for s in states + inputs for d in states if s != d]
    edges = draw(st.permutations(sorted(draw(st.sets(st.sampled_from(candidates)))))) if candidates else []
    dims = {v: draw(st.integers(1, max_dim)) for v in states + inputs}
    return NetworkTopology(states, inputs, tuple(edges), dims)


@st.composite
def systems(draw, max_dim=3):
    """Topology from :func:`topologies` with uniform [-1, 1] blocks."""
    t = draw(topologies(max_dim=max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    self_blocks = {v: rng.uniform(-1, 1, (t.dims[v], t.dims[v])) for v in t.state_vertices}
    edge_blocks = {(s, d): rng.uniform(-1, 1, (t.dims[d], t.dims[s])) for s, d in t.edges}
    return LinearNetworkSystem(t, self_blocks, edge_blocks)


def rescan_local_subsystem(t: NetworkTopology, v: str) -> LocalSubsystem:
    """Reference parent lookup: one full scan of the edges per call."""
    if v not in set(t.state_vertices):
        raise UnknownVertex(f"{v!r} is not a state vertex")
    state_order = {w: i for i, w in enumerate(t.state_vertices)}
    input_order = {e: i for i, e in enumerate(t.input_vertices)}
    state_parents = []
    input_parents = []
    for src, dst in t.edges:
        if dst != v:
            continue
        if src in state_order:
            state_parents.append(src)
        elif src in input_order:
            input_parents.append(src)
        else:
            raise UnknownVertex(f"edge source {src!r} is not declared")
    state_parents.sort(key=state_order.__getitem__)
    input_parents.sort(key=input_order.__getitem__)
    dim = t.dims[v] + sum(t.dims[w] for w in state_parents) + sum(t.dims[e] for e in input_parents)
    return LocalSubsystem(v, tuple(state_parents), tuple(input_parents), dim)


@dataclass(frozen=True, eq=False)
class LocalData:
    """Snapshot triple of one local subsystem.

    ``gamma_j`` stacks the parents' rows (state parents first, then input
    parents, each group in declaration order); ``parent_row_ranges`` locates
    every parent's rows inside it, its keys in that same order.
    """

    center: str
    z_j: np.ndarray
    y_j: np.ndarray
    gamma_j: np.ndarray
    parent_row_ranges: dict


def build_local_data(t: NetworkTopology, traj: TrajectoryData, v: str) -> LocalData:
    """Reference per-node gather: slice one vertex's rows and stack its parents' rows as local controls.

    Checks the vertex's own rows and then each parent's, in local-data
    order, raising :class:`RowRangeMismatch` for the first that is missing
    or mis-sized.
    """
    sub = rescan_local_subsystem(t, v)
    parents = sub.state_parents + sub.input_parents
    ranges = traj.vertex_row_ranges
    for w in (v, *parents):
        if w not in ranges:
            raise RowRangeMismatch(f"trajectory has no rows for vertex {w!r}")
        lo, hi = ranges[w]
        if hi - lo != t.dims[w]:
            raise RowRangeMismatch(f"vertex {w!r} spans {hi - lo} trajectory rows but has dimension {t.dims[w]}")
    pieces = [traj.z[slice(*ranges[w])] for w in sub.state_parents]
    pieces += [traj.gamma[slice(*ranges[e])] for e in sub.input_parents]
    parent_row_ranges = {}
    offset = 0
    for w in parents:
        parent_row_ranges[w] = (offset, offset + t.dims[w])
        offset += t.dims[w]
    lo, hi = ranges[v]
    return LocalData(
        center=v,
        z_j=traj.z[lo:hi, :].copy(),
        y_j=traj.y[lo:hi, :].copy(),
        gamma_j=np.vstack(pieces) if pieces else np.zeros((0, traj.z.shape[1])),
        parent_row_ranges=parent_row_ranges,
    )


def reference_gen_erdos_renyi(cfg: GeneratorConfig, rng: np.random.Generator | None = None) -> LinearNetworkSystem:
    """Reference Erdős–Rényi generator: one n-by-n draw, then a Python test per ordered pair."""
    assert isinstance(cfg.family, ErdosRenyi)
    if rng is None:
        rng = derive_rng(cfg.seed)
    n = cfg.family.n
    states = [f"v{j}" for j in range(1, n + 1)]
    draws = rng.random((n, n))
    edges = [
        (states[i], states[j])
        for i in range(n)
        for j in range(n)
        if i != j and draws[i, j] < cfg.family.p
    ]
    dims = {v: 1 for v in states}
    topology = NetworkTopology(tuple(states), (), tuple(edges), dims)
    return _draw_blocks(topology, rng, cfg.coeff_range)


def reference_operator_values(system: LinearNetworkSystem) -> np.ndarray:
    """Reference operator values: one hstacked block row per vertex, stacked per shape group."""

    def block_row(v):
        sub = local_subsystem(system.topology, v)
        parents = sub.state_parents + sub.input_parents
        return np.hstack([system.self_blocks[v], *(system.edge_blocks[(w, v)] for w in parents)])

    vals = [np.stack([block_row(v) for v in group.vertices]).reshape(-1) for group in gather_plan(system.topology)]
    return np.concatenate([np.zeros(0), *vals])


def reference_step(system: LinearNetworkSystem, x, u) -> np.ndarray:
    """Reference transition: a block product per vertex, parents summed in declaration order."""
    t = system.topology
    x = np.asarray(x, dtype=float).reshape(-1)
    u = np.asarray(u, dtype=float).reshape(-1)
    if x.size != t.total_state_dim or u.size != t.total_input_dim:
        raise DimensionMismatch("state or input vector does not match the topology")
    srows = t.state_row_ranges()
    irows = t.input_row_ranges()
    out = np.empty_like(x)
    for v in t.state_vertices:
        a, b = srows[v]
        sub = rescan_local_subsystem(t, v)
        acc = system.self_blocks[v] @ x[a:b]
        for w in sub.state_parents:
            wa, wb = srows[w]
            acc = acc + system.edge_blocks[(w, v)] @ x[wa:wb]
        for e in sub.input_parents:
            ea, eb = irows[e]
            acc = acc + system.edge_blocks[(e, v)] @ u[ea:eb]
        out[a:b] = acc
    return out


def reference_simulate(system: LinearNetworkSystem, x0, inputs) -> TrajectoryData:
    """Reference rollout: :func:`reference_step` once per input column."""
    t = system.topology
    inputs = np.asarray(inputs, dtype=float)
    m = inputs.shape[1]
    z = np.empty((t.total_state_dim, m))
    y = np.empty((t.total_state_dim, m))
    x = np.asarray(x0, dtype=float).reshape(-1)
    for k in range(m):
        z[:, k] = x
        x = reference_step(system, x, inputs[:, k])
        y[:, k] = x
    return TrajectoryData(z=z, gamma=inputs.copy(), y=y, vertex_row_ranges=t.vertex_row_ranges())


def reference_network_dmdc_exact(t: NetworkTopology, traj: TrajectoryData, rcond: float = DEFAULT_RCOND, failures=None):
    """Reference assembled (A, B): rescan, gather and solve each node on its own.

    A node whose solve raises propagates the error, unless a ``failures``
    dict is given: then the node's message goes there and its blocks stay zero.
    """
    srows = t.state_row_ranges()
    irows = t.input_row_ranges()
    ranges = traj.vertex_row_ranges
    a = np.zeros((t.total_state_dim, t.total_state_dim))
    b = np.zeros((t.total_state_dim, t.total_input_dim))
    for v in t.state_vertices:
        sub = rescan_local_subsystem(t, v)
        lo, hi = ranges[v]
        parents = [(w, traj.z, srows, a) for w in sub.state_parents]
        parents += [(e, traj.gamma, irows, b) for e in sub.input_parents]
        pieces = [data[slice(*ranges[w]), :] for w, data, _, _ in parents]
        gamma_j = np.vstack(pieces) if pieces else np.zeros((0, traj.z.shape[1]))
        try:
            model = dmdc_exact(traj.z[lo:hi, :], traj.y[lo:hi, :], gamma_j, rcond)
        except NetdmdError as exc:
            if failures is None:
                raise
            failures[v] = str(exc)
            continue
        a[lo:hi, lo:hi] = model.a
        offset = 0
        for w, _, rows, target in parents:
            width = t.dims[w]
            target[lo:hi, slice(*rows[w])] = model.b[:, offset : offset + width]
            offset += width
    return a, b


def reference_network_dmdc_reduced(
    t: NetworkTopology,
    traj: TrajectoryData,
    input_rule: TruncationRule = MachineDefault(),
    output_rule: TruncationRule = MachineDefault(),
) -> SimpleNamespace:
    """Reference reduced network model: gather, solve and record each node on its own.

    The per-node loop is the package's former ``network_dmdc_reduced``, which
    also ran a third SVD per node for its record and kept the blocks next to
    the assembled matrices; the result carries the same fields.
    """
    u_hat: dict[str, np.ndarray] = {}
    diag: dict[str, np.ndarray] = {}
    raw_cross: dict[tuple[str, str], np.ndarray] = {}
    blocks_b: dict[tuple[str, str], np.ndarray] = {}
    conditioning: dict[str, ConditioningRecord] = {}
    failures: dict[str, str] = {}
    srows = t.state_row_ranges()
    for v in t.state_vertices:
        ld = build_local_data(t, traj, v)
        try:
            model, _ = dmdc_reduced(ld.z_j, ld.y_j, ld.gamma_j, input_rule, output_rule)
        except NetdmdError as exc:
            failures[v] = str(exc)
            u_hat[v] = np.eye(t.dims[v])
            diag[v] = np.zeros((t.dims[v], t.dims[v]))
            for w in ld.parent_row_ranges:
                (raw_cross if w in srows else blocks_b)[(v, w)] = np.zeros((t.dims[v], t.dims[w]))
            continue
        conditioning[v] = conditioning_record(np.vstack([ld.z_j, ld.gamma_j]))
        u_hat[v] = model.u_hat
        diag[v] = model.a_tilde
        for w, (plo, phi) in ld.parent_row_ranges.items():
            (raw_cross if w in srows else blocks_b)[(v, w)] = model.b_tilde[:, plo:phi]
    blocks_a = {(v, v): diag[v] for v in t.state_vertices}
    for (v, w), block in raw_cross.items():
        blocks_a[(v, w)] = block @ u_hat[w]
    ranges = {}
    offset = 0
    for v in t.state_vertices:
        r = u_hat[v].shape[1]
        ranges[v] = (offset, offset + r)
        offset += r
    total_r = offset
    l = t.total_input_dim
    irows = t.input_row_ranges()
    assembled_a = np.zeros((total_r, total_r))
    assembled_b = np.zeros((total_r, l))
    for (v, w), block in blocks_a.items():
        rlo, rhi = ranges[v]
        clo, chi = ranges[w]
        assembled_a[rlo:rhi, clo:chi] = block
    for (v, e), block in blocks_b.items():
        rlo, rhi = ranges[v]
        clo, chi = irows[e]
        assembled_b[rlo:rhi, clo:chi] = block
    return SimpleNamespace(
        topology=t,
        u_hat=u_hat,
        blocks_a=blocks_a,
        blocks_b=blocks_b,
        assembled_a=assembled_a,
        assembled_b=assembled_b,
        per_node_conditioning=conditioning,
        node_failures=failures,
    )


def reference_lift_reduced_network(model) -> tuple[np.ndarray, np.ndarray]:
    """Reference full-space (A, B) of :func:`reference_network_dmdc_reduced`'s model, through a dense projector.

    This is the package's former dense lift: ``U A~ U^T`` and ``U B~`` with U
    the n-by-r block-diagonal stack of the nodes' ``u_hat``, each node's
    reduced columns in vertex order.
    """
    t = model.topology
    srows = t.state_row_ranges()
    ublk = np.zeros((t.total_state_dim, model.assembled_a.shape[0]))
    offset = 0
    for v in t.state_vertices:
        lo, hi = srows[v]
        r = model.u_hat[v].shape[1]
        ublk[lo:hi, offset : offset + r] = model.u_hat[v]
        offset += r
    return ublk @ model.assembled_a @ ublk.T, ublk @ model.assembled_b
