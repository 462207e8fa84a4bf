"""Per-node DMDc on local subsystems, composed into a block network model.

Each state vertex is identified from its own rows of the trajectory plus the
rows of its parents (states and inputs alike enter the local regression as
controls). The per-node results are assembled into full matrices whose
blocks are exactly zero wherever the topology has no edge. Node
identifications are independent of one another; assembly is a keyed merge in
vertex order, so any processing schedule yields the same model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NetdmdError, DimensionMismatch, RowRangeMismatch, UnknownVertex
from .numkernel import (
    DEFAULT_RCOND,
    ConditioningRecord,
    MachineDefault,
    TruncationRule,
    conditioning_record,
    frobenius_norm,
)
from .dmdcore import ExactLinearModel, dmdc_exact, dmdc_reduced
from .sysmodel import BLOCK_KEY_SEP, TrajectoryData
from .topology import NetworkTopology, local_subsystem, topology_from_dict, topology_to_dict


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


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Block-structured full-order model identified node by node.

    ``blocks_a[(j, i)]`` couples state vertex i into j (including the
    structural diagonal j == i); ``blocks_b[(j, i)]`` couples input vertex i
    into j. ``assembled_a``/``assembled_b`` hold the same information as full
    matrices with exact zeros at non-edges. Nodes whose local regression
    failed appear in ``node_failures`` with zeroed blocks.
    """

    topology: NetworkTopology
    blocks_a: dict[tuple[str, str], np.ndarray]
    blocks_b: dict[tuple[str, str], np.ndarray]
    assembled_a: np.ndarray
    assembled_b: np.ndarray
    per_node_conditioning: dict[str, ConditioningRecord]
    node_failures: dict[str, str]


@dataclass(frozen=True, eq=False)
class ReducedNetworkModel:
    """Blockwise reduced model with one projector per state vertex.

    Node j's reduced state is ``u_hat[j].T @ x_j``. Diagonal blocks are
    r_j-by-r_j; cross blocks map node k's reduced coordinates into node j's;
    input blocks keep the raw input coordinates.
    """

    topology: NetworkTopology
    u_hat: dict[str, np.ndarray]
    blocks_a: dict[tuple[str, str], np.ndarray]
    blocks_b: dict[tuple[str, str], np.ndarray]
    assembled_a: np.ndarray
    assembled_b: np.ndarray
    per_node_conditioning: dict[str, ConditioningRecord]
    node_failures: dict[str, str]

    def reduced_row_ranges(self) -> dict[str, tuple[int, int]]:
        out = {}
        offset = 0
        for v in self.topology.state_vertices:
            r = self.u_hat[v].shape[1]
            out[v] = (offset, offset + r)
            offset += r
        return out


def build_local_data(t: NetworkTopology, traj: TrajectoryData, v: str) -> LocalData:
    """Slice one vertex's rows and stack its parents' rows as local controls."""
    sub = local_subsystem(t, v)
    ranges = traj.vertex_row_ranges
    for w in (v, *sub.state_parents, *sub.input_parents):
        if w not in ranges:
            raise RowRangeMismatch(f"trajectory has no rows for vertex {w!r}")
        lo, hi = ranges[w]
        if hi - lo != t.dims[w]:
            raise RowRangeMismatch(
                f"vertex {w!r} spans {hi - lo} trajectory rows but has dimension {t.dims[w]}"
            )
    lo, hi = ranges[v]
    m = traj.z.shape[1]
    pieces = []
    parent_ranges = {}
    offset = 0
    for w in sub.state_parents:
        wlo, whi = ranges[w]
        pieces.append(traj.z[wlo:whi, :])
        parent_ranges[w] = (offset, offset + (whi - wlo))
        offset += whi - wlo
    for e in sub.input_parents:
        elo, ehi = ranges[e]
        pieces.append(traj.gamma[elo:ehi, :])
        parent_ranges[e] = (offset, offset + (ehi - elo))
        offset += ehi - elo
    gamma_j = np.vstack(pieces) if pieces else np.zeros((0, m))
    return LocalData(
        center=v,
        z_j=traj.z[lo:hi, :].copy(),
        y_j=traj.y[lo:hi, :].copy(),
        gamma_j=gamma_j,
        parent_row_ranges=parent_ranges,
    )


def _check_node_order(t: NetworkTopology, node_order):
    if node_order is None:
        return t.state_vertices
    if sorted(node_order) != sorted(t.state_vertices):
        raise UnknownVertex("node_order must be a permutation of the state vertices")
    return tuple(node_order)


def network_dmdc_exact(
    t: NetworkTopology,
    traj: TrajectoryData,
    rcond: float = DEFAULT_RCOND,
    node_order=None,
) -> NetworkModel:
    """Identify every local subsystem with exact DMDc and assemble the blocks.

    A node whose regression raises is recorded in ``node_failures`` and
    contributes zero blocks; the rest of the model is still assembled.
    ``node_order`` only schedules the per-node work (useful for parallel
    drivers); the assembled result is independent of it.
    """
    n = t.total_state_dim
    l = t.total_input_dim
    assembled_a = np.zeros((n, n))
    assembled_b = np.zeros((n, l))
    blocks_a: dict[tuple[str, str], np.ndarray] = {}
    blocks_b: dict[tuple[str, str], np.ndarray] = {}
    conditioning: dict[str, ConditioningRecord] = {}
    failures: dict[str, str] = {}
    srows = t.state_row_ranges()
    irows = t.input_row_ranges()
    for v in _check_node_order(t, node_order):
        ld = build_local_data(t, traj, v)
        try:
            model = dmdc_exact(ld.z_j, ld.y_j, ld.gamma_j, rcond)
        except NetdmdError as exc:
            failures[v] = str(exc)
            blocks_a[(v, v)] = np.zeros((t.dims[v], t.dims[v]))
            for w in ld.parent_row_ranges:
                (blocks_a if w in srows else blocks_b)[(v, w)] = np.zeros((t.dims[v], t.dims[w]))
            continue
        conditioning[v] = model.conditioning
        blocks_a[(v, v)] = model.a
        lo, hi = srows[v]
        assembled_a[lo:hi, lo:hi] = model.a
        for w, (plo, phi) in ld.parent_row_ranges.items():
            block = model.b[:, plo:phi]
            if w in srows:
                blocks_a[(v, w)] = block
                clo, chi = srows[w]
                assembled_a[lo:hi, clo:chi] = block
            else:
                blocks_b[(v, w)] = block
                clo, chi = irows[w]
                assembled_b[lo:hi, clo:chi] = block
    return NetworkModel(
        topology=t,
        blocks_a=blocks_a,
        blocks_b=blocks_b,
        assembled_a=assembled_a,
        assembled_b=assembled_b,
        per_node_conditioning=conditioning,
        node_failures=failures,
    )


def network_dmdc_reduced(
    t: NetworkTopology,
    traj: TrajectoryData,
    input_rule: TruncationRule = MachineDefault(),
    output_rule: TruncationRule = MachineDefault(),
    node_order=None,
) -> ReducedNetworkModel:
    """Per-node reduced DMDc composed into a blockwise reduced network model.

    Pass one runs every node's reduced identification; pass two rewrites each
    cross block into the parent's reduced coordinates (right-multiplying by
    the parent's projector) and assembles the block matrices. A failed node
    keeps an identity projector and zero blocks.
    """
    order = _check_node_order(t, node_order)
    u_hat: dict[str, np.ndarray] = {}
    diag: dict[str, np.ndarray] = {}
    raw_cross: dict[tuple[str, str], np.ndarray] = {}
    blocks_b: dict[tuple[str, str], np.ndarray] = {}
    conditioning: dict[str, ConditioningRecord] = {}
    failures: dict[str, str] = {}
    srows = t.state_row_ranges()
    for v in order:
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
    return ReducedNetworkModel(
        topology=t,
        u_hat=u_hat,
        blocks_a=blocks_a,
        blocks_b=blocks_b,
        assembled_a=assembled_a,
        assembled_b=assembled_b,
        per_node_conditioning=conditioning,
        node_failures=failures,
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


def model_error(model, truth_a, truth_b=None) -> float:
    """Frobenius norm of ``[A B] - [A_true B_true]``.

    Accepts a :class:`NetworkModel` or :class:`ExactLinearModel`. The input
    part is skipped when both the model and the truth lack one (None or zero
    columns); a one-sided input operator is a dimension error.
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
    b_width = 0 if b is None else b.shape[1]
    truth_width = 0 if truth_b is None else np.asarray(truth_b).shape[1]
    if b_width == 0 and truth_width == 0:
        return frobenius_norm(a - truth_a)
    if b_width != truth_width:
        raise DimensionMismatch(f"B has {b_width} columns but truth has {truth_width}")
    truth_b = np.asarray(truth_b, dtype=float)
    return frobenius_norm(np.hstack([a - truth_a, b - truth_b]))


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
        "per_node_conditioning": {
            v: {
                "sigma_max": rec.sigma_max,
                "sigma_min": rec.sigma_min,
                "rcond_used": rec.rcond_used,
                "warning": rec.warning,
            }
            for v, rec in model.per_node_conditioning.items()
        },
        "node_failures": dict(model.node_failures),
    }


def network_model_from_dict(d: dict) -> NetworkModel:
    topology = topology_from_dict(d["topology"])

    def unkey(s):
        src, _, dst = s.partition(BLOCK_KEY_SEP)
        return dst, src

    blocks_a = {unkey(k): np.asarray(blk, dtype=float) for k, blk in d["blocks_a"].items()}
    blocks_b = {unkey(k): np.asarray(blk, dtype=float) for k, blk in d["blocks_b"].items()}
    conditioning = {
        v: ConditioningRecord(
            sigma_max=float(rec["sigma_max"]),
            sigma_min=float(rec["sigma_min"]),
            rcond_used=float(rec["rcond_used"]),
            warning=bool(rec["warning"]),
        )
        for v, rec in d["per_node_conditioning"].items()
    }
    n = topology.total_state_dim
    l = topology.total_input_dim
    assembled_a = np.asarray(d["assembled_a"], dtype=float).reshape(n, n)
    assembled_b = np.asarray(d["assembled_b"], dtype=float).reshape(n, l)
    return NetworkModel(
        topology=topology,
        blocks_a=blocks_a,
        blocks_b=blocks_b,
        assembled_a=assembled_a,
        assembled_b=assembled_b,
        per_node_conditioning=conditioning,
        node_failures=dict(d["node_failures"]),
    )
