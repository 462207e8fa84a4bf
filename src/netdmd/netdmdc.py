"""Per-node DMDc on local subsystems, composed into a block network model.

Each state vertex is identified from its own rows of the trajectory plus the
rows of its parents (states and inputs alike enter the local regression as
controls). The per-node results are assembled into full matrices whose
blocks are exactly zero wherever the topology has no edge. Node
identifications are independent of one another, so both network solvers
gather all nodes of one local shape into a stack: the exact solve factors
the stack with one batched SVD and scatters the solutions into the
assembled matrices; the reduced solve runs its two truncated SVDs per node
on slices of the stack. Either model stores only its assembled matrices.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NetdmdError, RowRangeMismatch
from .numkernel import (
    DEFAULT_RCOND,
    ConditioningRecord,
    MachineDefault,
    TruncationRule,
    as_matrix,
    conditioning_from_dict,
    conditioning_to_dict,
    pinv_conditioning,
)
from .dmdcore import ExactLinearModel, ReducedLinearModel, dmdc_reduced
from .sysmodel import BLOCK_KEY_SEP, TrajectoryData
from .topology import (
    NetworkTopology,
    ShapeGroup,
    _ranges,
    gather_plan,
    local_subsystem,
    topology_from_dict,
    topology_to_dict,
)


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
    parent_row_ranges: dict[str, tuple[int, int]]


class _BlockViews:
    """Per-edge read-only views into a network model's assembled matrices.

    ``blocks_a[(j, i)]`` couples state vertex i into j (including the
    structural diagonal j == i) and ``blocks_b[(j, i)]`` couples input
    vertex i into j, one per edge, vertex by vertex: each vertex's own block,
    then its state parents', then its input parents'. ``_row_ranges`` gives
    each state vertex's rows of A, which are also its columns: by default
    its rows in the stacked state vector.
    """

    def _row_ranges(self) -> dict[str, tuple[int, int]]:
        return self.topology.state_row_ranges()

    @property
    def blocks_a(self) -> Mapping[tuple[str, str], np.ndarray]:
        return self._blocks[0]

    @property
    def blocks_b(self) -> Mapping[tuple[str, str], np.ndarray]:
        return self._blocks[1]

    @cached_property
    def _blocks(self):
        t = self.topology
        srows = self._row_ranges()
        irows = t.input_row_ranges()
        blocks_a: dict[tuple[str, str], np.ndarray] = {}
        blocks_b: dict[tuple[str, str], np.ndarray] = {}
        for v in t.state_vertices:
            sub = local_subsystem(t, v)
            rows = slice(*srows[v])
            blocks_a[(v, v)] = _view(self.assembled_a[rows, rows])
            for w in sub.state_parents:
                blocks_a[(v, w)] = _view(self.assembled_a[rows, slice(*srows[w])])
            for e in sub.input_parents:
                blocks_b[(v, e)] = _view(self.assembled_b[rows, slice(*irows[e])])
        return MappingProxyType(blocks_a), MappingProxyType(blocks_b)


def _view(block: np.ndarray) -> np.ndarray:
    block = block.view()
    block.flags.writeable = False
    return block


@dataclass(frozen=True, eq=False)
class NetworkModel(_BlockViews):
    """Block-structured full-order model identified node by node.

    ``assembled_a``/``assembled_b`` are the full matrices, with exact zeros
    at non-edges; they are the model's only stored coefficients, and
    ``blocks_a``/``blocks_b`` view them edge by edge. Nodes whose local
    regression failed appear in ``node_failures`` with zeroed blocks.
    """

    topology: NetworkTopology
    assembled_a: np.ndarray
    assembled_b: np.ndarray
    per_node_conditioning: dict[str, ConditioningRecord]
    node_failures: dict[str, str]


@dataclass(frozen=True, eq=False)
class ReducedNetworkModel(_BlockViews):
    """Blockwise reduced model with one projector per state vertex.

    Node j's reduced state is ``u_hat[j].T @ x_j``. Diagonal blocks are
    r_j-by-r_j; cross blocks map node k's reduced coordinates into node j's;
    input blocks keep the raw input coordinates. ``assembled_a``/
    ``assembled_b`` are the model's only stored coefficients, and
    ``blocks_a``/``blocks_b`` view them edge by edge.
    """

    topology: NetworkTopology
    u_hat: dict[str, np.ndarray]
    assembled_a: np.ndarray
    assembled_b: np.ndarray
    per_node_conditioning: dict[str, ConditioningRecord]
    node_failures: dict[str, str]

    def reduced_row_ranges(self) -> dict[str, tuple[int, int]]:
        return _ranges(self.topology.state_vertices, {v: u.shape[1] for v, u in self.u_hat.items()})

    _row_ranges = reduced_row_ranges


def build_local_data(t: NetworkTopology, traj: TrajectoryData, v: str) -> LocalData:
    """Slice one vertex's rows and stack its parents' rows as local controls."""
    sub = local_subsystem(t, v)
    parents = sub.state_parents + sub.input_parents
    for w in (v, *parents):
        _vertex_rows(t, traj, w)
    ranges = traj.vertex_row_ranges
    pieces = [traj.z[slice(*ranges[w])] for w in sub.state_parents]
    pieces += [traj.gamma[slice(*ranges[e])] for e in sub.input_parents]
    lo, hi = ranges[v]
    return LocalData(
        center=v,
        z_j=traj.z[lo:hi, :].copy(),
        y_j=traj.y[lo:hi, :].copy(),
        gamma_j=np.vstack(pieces) if pieces else np.zeros((0, traj.z.shape[1])),
        parent_row_ranges=_ranges(parents, t.dims),
    )


def network_dmdc_exact(t: NetworkTopology, traj: TrajectoryData, rcond: float = DEFAULT_RCOND) -> NetworkModel:
    """Identify every local subsystem with exact DMDc and assemble the blocks.

    Each node's solution is ``G_j = Y_j pinv(Omega_j)`` with
    ``Omega_j = [Z_j; Gamma_j]``, as :func:`dmdc_exact` computes it. Nodes are
    solved a shape group of the topology's gather plan at a time, with one
    batched SVD per group. A node whose data are not finite, or whose SVD
    does not converge, is recorded in ``node_failures`` with the message
    :func:`dmdc_exact` would raise and contributes zero blocks; the rest of
    the model is still assembled. The assembled A and B are views into one
    buffer, which each group fills through the plan's flat destinations.
    """
    n = t.total_state_dim
    l = t.total_input_dim
    coeffs = np.zeros(n * n + n * l)
    conditioning: dict[str, ConditioningRecord] = {}
    failures: dict[str, str] = {}
    for group, ok, kept, omega, y in _gathered(t, traj, failures):
        solution, records = _solve_stack(omega, y, rcond)
        for v, record in zip(kept, records):
            (failures if isinstance(record, str) else conditioning)[v] = record
        coeffs[group.dest[ok]] = solution
    return NetworkModel(
        topology=t,
        assembled_a=coeffs[: n * n].reshape(n, n),
        assembled_b=coeffs[n * n :].reshape(n, l),
        per_node_conditioning={v: conditioning[v] for v in t.state_vertices if v in conditioning},
        node_failures={v: failures[v] for v in t.state_vertices if v in failures},
    )


def _gathered(t: NetworkTopology, traj: TrajectoryData, failures: dict[str, str]):
    """Each shape group's local data as stacks, for the nodes whose data are finite.

    Yields ``(group, ok, kept, omega, y)`` for every group of the gather plan
    that keeps a node: ``ok`` masks the group's nodes whose z, y and gamma
    parts are all finite, ``kept`` names them, and ``omega`` (G-by-k-by-m)
    and ``y`` (G-by-d-by-m) stack their ``Omega_j = [Z_j; Gamma_j]`` and
    ``Y_j``. Each other node gets, in ``failures``, the message
    :func:`dmdc_exact` would raise for its data.
    """
    plan = gather_plan(t)
    source = _trajectory_rows(t, traj)
    data = np.vstack([traj.z, traj.gamma])
    not_finite = ~np.isfinite(data).all(axis=1)
    y_not_finite = ~np.isfinite(traj.y).all(axis=1)
    for group in plan:
        cols = source[group.cols]
        rows = source[group.rows]
        ok = np.ones(len(group.vertices), dtype=bool)
        for i, message in _non_finite_nodes(group, not_finite[cols], y_not_finite[rows]):
            failures[group.vertices[i]] = message
            ok[i] = False
        if ok.any():
            kept = [v for v, keep in zip(group.vertices, ok) if keep]
            yield group, ok, kept, data[cols[ok]], traj.y[rows[ok]]


def _vertex_rows(t: NetworkTopology, traj: TrajectoryData, w: str) -> tuple[int, int]:
    """Vertex w's half-open row range in the trajectory, checked against its dimension."""
    if w not in traj.vertex_row_ranges:
        raise RowRangeMismatch(f"trajectory has no rows for vertex {w!r}")
    lo, hi = traj.vertex_row_ranges[w]
    if hi - lo != t.dims[w]:
        raise RowRangeMismatch(f"vertex {w!r} spans {hi - lo} trajectory rows but has dimension {t.dims[w]}")
    return lo, hi


def _trajectory_rows(t: NetworkTopology, traj: TrajectoryData) -> np.ndarray:
    """Row of ``[traj.z; traj.gamma]`` holding each position of ``[x; u]``.

    Raises what :func:`build_local_data` raises for the first node, in
    vertex order, whose own or parent rows are missing or mis-sized; a
    vertex that no node reads (an input without edges) may lack rows.
    """
    vertices = t.state_vertices + t.input_vertices
    spans = [traj.vertex_row_ranges.get(w, (0, -1)) for w in vertices]
    lo, hi = np.fromiter(chain.from_iterable(spans), dtype=np.intp).reshape(len(vertices), 2).T
    dim = np.fromiter(map(t.dims.__getitem__, vertices), dtype=np.intp, count=len(vertices))
    bad = hi - lo != dim
    lo[len(t.state_vertices) :] += traj.z.shape[0]
    source = np.repeat(lo - (np.cumsum(dim) - dim), dim) + np.arange(dim.sum())
    if bad.any():
        failing = {w for w, b in zip(vertices, bad) if b}
        for v in t.state_vertices:
            sub = local_subsystem(t, v)
            for w in (v, *sub.state_parents, *sub.input_parents):
                if w in failing:
                    _vertex_rows(t, traj, w)  # raises
        source[np.repeat(bad, dim)] = -1
    return source


def _non_finite_nodes(group: ShapeGroup, bad_cols: np.ndarray, bad_rows: np.ndarray):
    """(index, message) of each node in the group whose z, y or gamma part is not finite."""
    d = group.rows.shape[1]
    parts = (("z", bad_cols[:, :d]), ("y", bad_rows), ("gamma", bad_cols[:, d:]))
    for i in np.flatnonzero(bad_cols.any(axis=1) | bad_rows.any(axis=1)):
        name = next(name for name, bad in parts if bad[i].any())
        yield int(i), f"{name} contains NaN or Inf entries"


def _solve_stack(omega: np.ndarray, y: np.ndarray, rcond: float):
    """``y @ pinv(omega)`` for a stack, plus each node's record or failure message.

    If the batched SVD does not converge, the stack is solved node by node so
    that only the nodes that fail themselves get a message (and zero rows).
    """
    try:
        pinv, records = pinv_conditioning(omega, rcond)
    except ConvergenceFailure:
        pass
    else:
        return y @ pinv, records
    solution = np.zeros((y.shape[0], y.shape[1], omega.shape[1]))
    records: list[ConditioningRecord | str] = []
    for i in range(omega.shape[0]):
        try:
            pinv, record = pinv_conditioning(omega[i], rcond)
        except ConvergenceFailure as exc:
            records.append(str(exc))
            continue
        solution[i] = y[i] @ pinv
        records.append(record)
    return solution, records


def network_dmdc_reduced(
    t: NetworkTopology,
    traj: TrajectoryData,
    input_rule: TruncationRule = MachineDefault(),
    output_rule: TruncationRule = MachineDefault(),
) -> ReducedNetworkModel:
    """Per-node reduced DMDc composed into a blockwise reduced network model.

    Nodes are gathered a shape group at a time, as in
    :func:`network_dmdc_exact`, and each is identified by :func:`dmdc_reduced`
    on its slices of the stacks; its record comes from that call's SVD of
    ``Omega_j``. Once every projector is known, each node's blocks are
    written into the assembled matrices, every cross block rewritten into
    the parent's reduced coordinates (right-multiplied by the parent's
    projector). A failed node keeps an identity projector and zero blocks.
    """
    failures: dict[str, str] = {}
    solved: dict[str, ReducedLinearModel] = {}
    for _, _, kept, omega, y in _gathered(t, traj, failures):
        d = y.shape[1]
        for v, omega_j, y_j in zip(kept, omega, y):
            try:
                solved[v], _ = dmdc_reduced(omega_j[:d], y_j, omega_j[d:], input_rule, output_rule)
            except NetdmdError as exc:
                failures[v] = str(exc)
    u_hat = {v: solved[v].u_hat if v in solved else np.eye(t.dims[v]) for v in t.state_vertices}
    ranges = _ranges(t.state_vertices, {v: u.shape[1] for v, u in u_hat.items()})
    irows = t.input_row_ranges()
    total_r = sum(u.shape[1] for u in u_hat.values())
    assembled_a = np.zeros((total_r, total_r))
    assembled_b = np.zeros((total_r, t.total_input_dim))
    for v, node in solved.items():
        sub = local_subsystem(t, v)
        rows = slice(*ranges[v])
        spans = _ranges(sub.state_parents + sub.input_parents, t.dims)
        assembled_a[rows, rows] = node.a_tilde
        for w in sub.state_parents:
            assembled_a[rows, slice(*ranges[w])] = node.b_tilde[:, slice(*spans[w])] @ u_hat[w]
        for e in sub.input_parents:
            assembled_b[rows, slice(*irows[e])] = node.b_tilde[:, slice(*spans[e])]
    return ReducedNetworkModel(
        topology=t,
        u_hat=u_hat,
        assembled_a=assembled_a,
        assembled_b=assembled_b,
        per_node_conditioning={v: solved[v].conditioning for v in t.state_vertices if v in solved},
        node_failures={v: failures[v] for v in t.state_vertices if v in failures},
    )


def lift_reduced_network(model: ReducedNetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """Full-space (A, B) obtained through the block-diagonal projector."""
    t = model.topology
    n = t.total_state_dim
    srows = t.state_row_ranges()
    rranges = model.reduced_row_ranges()
    total_r = model.assembled_a.shape[0]
    ublk = np.zeros((n, total_r))
    for v in t.state_vertices:
        lo, hi = srows[v]
        rlo, rhi = rranges[v]
        ublk[lo:hi, rlo:rhi] = model.u_hat[v]
    return ublk @ model.assembled_a @ ublk.T, ublk @ model.assembled_b


#: Elements of :func:`model_error`'s difference buffer: 96 KiB of float64, which
#: stays in cache and below glibc's default 128 KiB mmap threshold.
_SCORE_BLOCK_ELEMENTS = 12 * 1024


def model_error(model, truth_a, truth_b=None) -> float:
    """Frobenius norm of ``[A B] - [A_true B_true]``.

    Accepts a :class:`NetworkModel` or :class:`ExactLinearModel`. The input
    part is skipped when both the model and the truth lack one (None or zero
    columns); a one-sided input operator is a dimension error. The squared
    differences are summed a few rows at a time through one small buffer, so
    no n-by-n temporary is made. A NaN or Inf difference raises
    :class:`NonFiniteEntry`; finite differences whose squares overflow give inf.
    """
    if isinstance(model, NetworkModel):
        a, b = model.assembled_a, model.assembled_b
    elif isinstance(model, ExactLinearModel):
        a, b = model.a, model.b
    else:
        raise DimensionMismatch(f"unsupported model type {type(model).__name__}")
    truth_a = np.asarray(truth_a, dtype=float)
    if a.shape != truth_a.shape:
        raise DimensionMismatch(f"A is {a.shape} but truth is {truth_a.shape}")
    pairs = [(a, truth_a)]
    b_width = 0 if b is None else b.shape[1]
    truth_width = 0 if truth_b is None else np.asarray(truth_b).shape[1]
    if b_width != truth_width:
        raise DimensionMismatch(f"B has {b_width} columns but truth has {truth_width}")
    if b_width:
        truth_b = np.asarray(truth_b, dtype=float)
        if b.shape != truth_b.shape:
            raise DimensionMismatch(f"B is {b.shape} but truth is {truth_b.shape}")
        pairs.append((b, truth_b))
    total = _squared_distance(pairs)
    if not math.isfinite(total):
        for x, y in pairs:
            as_matrix(x - y)  # raises NonFiniteEntry unless only the squares overflowed
    return math.sqrt(total)


def _squared_distance(pairs) -> float:
    """Sum of squared entries of ``[x1 - y1, x2 - y2, ...]``, row blocks at a time."""
    n = pairs[0][0].shape[0]
    width = sum(x.shape[1] for x, _ in pairs)
    buffer = np.empty((max(1, _SCORE_BLOCK_ELEMENTS // max(width, 1)), width))
    total = 0.0
    for lo in range(0, n, buffer.shape[0]):
        hi = min(lo + buffer.shape[0], n)
        block = buffer[: hi - lo]
        col = 0
        for x, y in pairs:
            np.subtract(x[lo:hi], y[lo:hi], out=block[:, col : col + x.shape[1]])
            col += x.shape[1]
        flat = block.ravel()
        total += float(flat @ flat)
    return total


def network_model_to_dict(model: NetworkModel) -> dict:
    """JSON-ready form; block keys are "src->dst" strings with an arrow."""

    def key(dst, src):
        return f"{src}{BLOCK_KEY_SEP}{dst}"

    return {
        "topology": topology_to_dict(model.topology),
        "blocks_a": {key(j, i): blk.tolist() for (j, i), blk in model.blocks_a.items()},
        "blocks_b": {key(j, i): blk.tolist() for (j, i), blk in model.blocks_b.items()},
        "assembled_a": model.assembled_a.tolist(),
        "assembled_b": model.assembled_b.tolist(),
        "per_node_conditioning": {v: conditioning_to_dict(rec) for v, rec in model.per_node_conditioning.items()},
        "node_failures": dict(model.node_failures),
    }


def network_model_from_dict(d: dict) -> NetworkModel:
    """Rebuild a model from :func:`network_model_to_dict`'s output.

    The blocks are derived from the assembled matrices, so the document's
    ``blocks_a``/``blocks_b`` entries are not read.
    """
    topology = topology_from_dict(d["topology"])
    n = topology.total_state_dim
    l = topology.total_input_dim
    return NetworkModel(
        topology=topology,
        assembled_a=np.asarray(d["assembled_a"], dtype=float).reshape(n, n),
        assembled_b=np.asarray(d["assembled_b"], dtype=float).reshape(n, l),
        per_node_conditioning={v: conditioning_from_dict(rec) for v, rec in d["per_node_conditioning"].items()},
        node_failures=dict(d["node_failures"]),
    )
