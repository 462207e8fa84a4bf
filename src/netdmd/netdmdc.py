"""Per-node DMDc on local subsystems, composed into a block network model.

Each state vertex is identified from its own rows of the trajectory plus the
rows of its parents (states and inputs alike enter the local regression as
controls). Node identifications are independent of one another, so both
network solvers gather all nodes of one local shape into a stack and factor
it with the one batched QR that :func:`netdmd.numkernel._pinv_stack`
describes, cutting singular values where the solver's truncation rule does.

The full-space network model stores only its coefficients, one flat vector
in the topology's gather-plan order: group by group, each group's (G, d, k)
solution stack, the layout of ``LinearNetworkSystem.coeffs``. Its blocks are
views of that vector, and its dense A and B, exact zeros wherever the
topology has no edge, are built on request; scoring reads the coefficients
and the truth, never a dense model. Both solvers write that model directly;
the reduced solve then multiplies the strips that read a vector vertex
through its output projector. The layout itself is known only to
:mod:`netdmd.topology`.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import (
    BadConfig,
    ConvergenceFailure,
    DimensionMismatch,
    NetdmdError,
    UnknownVertex,
    _json_value,
)
from .numkernel import (
    EXACT_RULE,
    ConditioningRecord,
    MachineDefault,
    TruncationRule,
    _ill_conditioned,
    _kept,
    _pinv_stack,
    _rule_cut,
    _svd,
    as_matrix,
    conditioning_from_dict,
)
from .dmdcore import ExactLinearModel, _check_regression
from .sysmodel import TrajectoryData, _trajectory_rows
from .topology import (
    NetworkTopology,
    _block_key,
    _coefficient_views,
    _densify,
    _group_stacks,
    _read_blocks,
    _split_block_key,
    coefficient_support,
    gather_plan,
    topology_from_dict,
    topology_to_dict,
)


@dataclass(frozen=True, eq=False)
class NodeConditioning:
    """Every state vertex's conditioning record, as vertex-ordered arrays.

    Entry i belongs to the topology's ``state_vertices[i]``: the fields of
    its :class:`ConditioningRecord`. ``present[i]`` is False for a node
    without a record, such as a failed one; its ``warning`` is then False
    and its other entries mean nothing. The five arrays are 1-D and of one
    length, ``present`` and ``warning`` bool and the others float, else
    :class:`DimensionMismatch`; the constructor makes them read-only.
    """

    present: np.ndarray
    sigma_max: np.ndarray
    sigma_min: np.ndarray
    rcond_used: np.ndarray
    warning: np.ndarray

    def __post_init__(self):
        arrays = {field.name: getattr(self, field.name) for field in fields(self)}
        kinds = {name: "b" if name in ("present", "warning") else "f" for name in arrays}
        bad = [
            f"{name} {a.dtype}{a.shape}"
            for name, a in arrays.items()
            if a.ndim != 1 or a.shape != self.present.shape or a.dtype.kind != kinds[name]
        ]
        if bad:
            raise DimensionMismatch(f"conditioning needs 1-D arrays of one length, bool present/warning, float others; got {bad}")
        for a in arrays.values():
            a.flags.writeable = False

    @property
    def ratio(self) -> np.ndarray:
        """Each node's ``ConditioningRecord.ratio``: sigma_min / sigma_max, or 0.0 where sigma_max is not > 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.sigma_max > 0, self.sigma_min / self.sigma_max, 0.0)


#: The fields of a :class:`ConditioningRecord`, in order: the arrays of :class:`NodeConditioning` besides ``present``, and the keys of :func:`conditioning_to_dict`.
_RECORD_FIELDS = tuple(field.name for field in fields(ConditioningRecord))


def _present_records(t: NetworkTopology, c: NodeConditioning):
    """``(vertex, record fields as Python scalars)`` for every node with a record, in vertex order."""
    rows = zip(t.state_vertices, *(getattr(c, name).tolist() for name in ("present", *_RECORD_FIELDS)))
    return ((v, record) for v, present, *record in rows if present)


def _node_conditioning(t: NetworkTopology, records: Mapping[str, ConditioningRecord]) -> NodeConditioning:
    """The arrays of a map from state vertex to record; a key that is not a state vertex raises :class:`UnknownVertex`."""
    index = t._state_index
    unknown = records.keys() - index.keys()
    if unknown:
        raise UnknownVertex(f"conditioning records for vertices that are not state vertices: {sorted(unknown)}")
    at = [index[v] for v in records]
    present = np.zeros(len(index), dtype=bool)
    present[at] = True
    columns = [np.full(len(index), np.nan) for _ in range(3)] + [np.zeros(len(index), dtype=bool)]
    for column, name in zip(columns, _RECORD_FIELDS):
        column[at] = [getattr(r, name) for r in records.values()]
    return NodeConditioning(present, *columns)


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Block-structured full-order model identified node by node.

    ``coeffs`` is the model's only stored data: every estimated coefficient
    once, in the topology's gather-plan order. Group by group of
    :func:`gather_plan`, it holds each node's d-by-k solution row-major,
    its columns in the node's local-data order (itself, then its state
    parents, then its input parents): the layout of the group's
    (G, d, k) solution stack, and of ``LinearNetworkSystem.coeffs``.
    ``blocks_a``/``blocks_b`` are read-only views of each node's slice,
    edge by edge. ``assembled_a``/``assembled_b`` densify the model
    through the plan's coefficient positions (:func:`coefficient_support`),
    exact zeros at non-edges; each access allocates a new n-by-n (n-by-l)
    array. Nodes whose local regression failed appear in ``node_failures``
    with zero coefficients; a key that is not a state vertex raises
    :class:`UnknownVertex`.

    ``conditioning`` holds the nodes' conditioning records once, as
    vertex-ordered arrays. ``per_node_conditioning`` is the map from state
    vertex to :class:`ConditioningRecord`, read-only and in vertex order,
    built from the arrays on first read.
    """

    topology: NetworkTopology
    coeffs: np.ndarray
    conditioning: NodeConditioning
    node_failures: dict[str, str]

    def __post_init__(self):
        size = coefficient_support(self.topology)[0].size
        if self.coeffs.shape != (size,):
            raise DimensionMismatch(f"coeffs must have shape ({size},), got {self.coeffs.shape}")
        n = len(self.topology.state_vertices)
        if self.conditioning.present.shape != (n,):
            raise DimensionMismatch(f"conditioning must have {n} entries, got {self.conditioning.present.shape}")
        unknown = self.node_failures.keys() - self.topology._state_index.keys()
        if unknown:
            raise UnknownVertex(f"node failures for vertices that are not state vertices: {sorted(unknown)}")

    @cached_property
    def per_node_conditioning(self) -> Mapping[str, ConditioningRecord]:
        records = _present_records(self.topology, self.conditioning)
        return MappingProxyType({v: ConditioningRecord(*record) for v, record in records})

    @property
    def assembled_a(self) -> np.ndarray:
        return _densify(self.topology, self.coeffs)

    @property
    def assembled_b(self) -> np.ndarray:
        return _densify(self.topology, self.coeffs, inputs=True)

    @cached_property
    def blocks_a(self) -> Mapping[tuple[str, str], np.ndarray]:
        """``blocks_a[(j, i)]`` couples state vertex i into j, the structural diagonal j == i included."""
        inputs = set(self.topology.input_vertices)
        views = _coefficient_views(self.topology, self.coeffs)
        return MappingProxyType({(v, w): b for v, w, b in views if w not in inputs})

    @cached_property
    def blocks_b(self) -> Mapping[tuple[str, str], np.ndarray]:
        """``blocks_b[(j, i)]`` couples input vertex i into state vertex j."""
        inputs = set(self.topology.input_vertices)
        views = _coefficient_views(self.topology, self.coeffs)
        return MappingProxyType({(v, w): b for v, w, b in views if w in inputs})


def network_dmdc_exact(t: NetworkTopology, traj: TrajectoryData, rule: TruncationRule = EXACT_RULE) -> NetworkModel:
    """Identify every local subsystem with exact DMDc and assemble the blocks.

    Each node's solution is ``G_j = Y_j pinv(Omega_j)`` with
    ``Omega_j = [Z_j; Gamma_j]``, as :func:`dmdc_exact` computes it. Nodes are
    solved a shape group of the topology's gather plan at a time, on the
    group's one gathered ``[Omega_j; Y_j]`` stack, by the batched QR that
    :func:`_pinv_stack` describes, with ``rule`` as the cut
    (:func:`_solve_groups`). A node whose data are not finite, or whose
    factorization fails, is recorded in ``node_failures`` with the message
    :func:`dmdc_exact` raises and contributes zero blocks; the rest of the
    model is still assembled. Each group writes its solution stack into its
    contiguous slice of the model's plan-order ``coeffs``, and its nodes'
    singular-value extremes and cut into the model's vertex-ordered
    ``conditioning``; no per-node record is built.
    """
    return _network_model(t, *_solve_groups(t, traj, _trajectory_rows(t, traj), rule))


def _solve_groups(t: NetworkTopology, traj: TrajectoryData, source: np.ndarray, rule: TruncationRule):
    """Plan-order coefficients of every node's ``Y_j pinv_p(Omega_j)``, its (sigma_max, sigma_min, rcond), and failures by vertex index.

    A group's ``[Omega_j; Y_j]`` stack (G-by-(k + d)-by-m) is one fancy
    index over ``[traj.z; traj.gamma; traj.y]`` through the row map
    ``source`` (:func:`_trajectory_rows`). ``pinv_p`` keeps what
    :func:`_pinv_stack` keeps under ``rule``'s cut (:func:`_rule_cut`) for
    a group's k-by-m Omegas, and rcond is that cut's relative part, so an
    all-zero Omega_j or Y_j gives zero coefficients. A group that is not
    finite, or whose batch fails, is solved node by node,
    :func:`_check_regression` then the kernel alone: only a node that fails
    fails, with :func:`dmdc_exact`'s message.
    """
    coeffs = np.zeros(coefficient_support(t)[0].size)
    record = np.full((3, len(t.state_vertices)), np.nan)
    failures: dict[int, str] = {}
    trajectory = np.concatenate([traj.z, traj.gamma, traj.y])
    y_rows = source + (traj.z.shape[0] + traj.gamma.shape[0])  # a state position's row of y follows its row of z
    for group, solution in _group_stacks(t, coeffs):
        data = trajectory[np.concatenate([source[group.cols], y_rows[group.rows]], axis=1)]
        (_, d, k), index = group.shape, group.vertex_index
        rcond, rank = _rule_cut(rule, (k, data.shape[2]))
        record[2, index] = rcond
        if np.isfinite(data).all():
            with suppress(ConvergenceFailure):  # else node by node, below
                solution[...], s = _pinv_stack(data, k, rcond, rank)
                record[:2, index] = s[:, [0, -1]].T
                continue
        for j, (i, data_j) in enumerate(zip(index.tolist(), data)):
            try:
                _check_regression(data_j[:d], data_j[k:], data_j[d:k])
                solution[j : j + 1], s = _pinv_stack(data_j[None], k, rcond, rank)
                record[:2, i] = s[0, [0, -1]]
            except NetdmdError as exc:
                failures[i] = str(exc)
    return coeffs, record, failures


def network_dmdc_reduced(
    t: NetworkTopology,
    traj: TrajectoryData,
    input_rule: TruncationRule = MachineDefault(),
    output_rule: TruncationRule = MachineDefault(),
) -> NetworkModel:
    """Per-node reduced DMDc, lifted into the full-space network model.

    Node j's reduced model is :func:`dmdc_reduced` on its local data, by the
    same steps, and lifts to the strip ``P_j G_j diag(P_j, P_w, ..., I, ...)``.
    ``G_j = Y_j pinv_p(Omega_j)``, with the p singular values ``input_rule``
    keeps, is the exact solve with the rule as its cut (:func:`_rule_cut`);
    ``P = u_hat u_hat^T`` projects onto a vertex's leading left singular
    vectors of Y under ``output_rule`` (:func:`_project`). A failed node
    keeps zero coefficients, and the identity as its P. All-zero data are
    no failure: an all-zero Omega_j or Y_j keeps no singular value, so the
    node's coefficients are zero, and a vertex whose Y is all zero keeps the
    identity as its P; so on scalar vertices the model is
    ``network_dmdc_exact(t, traj, input_rule)`` bit for bit. Records come
    from the solve's singular values of Omega_j, with the input rule's
    relative cut for each shape group as ``rcond_used``, as
    :func:`dmdc_reduced`'s do.
    """
    source = _trajectory_rows(t, traj)
    coeffs, record, failures = _solve_groups(t, traj, source, input_rule)
    _project(t, traj, source, coeffs, failures, output_rule)
    return _network_model(t, coeffs, record, failures)


def _project(t: NetworkTopology, traj: TrajectoryData, source: np.ndarray, coeffs: np.ndarray, failures: dict, rule: TruncationRule):
    """Multiply each solved strip of plan-order ``coeffs`` by its projectors, in place.

    ``P`` is the identity for an input, a failed node, a vertex whose ``rule``
    keeps all dims of its Y (so for a scalar vertex) and one whose Y is all zero;
    others come from one batched SVD of a group's Ys, read through the solve's row
    map ``source``, per node if it fails (a node whose own fails fails). Each
    strip that reads one becomes ``P_j strip M``, M holding its vertices' Ps.
    """
    dims = t._vertex_dims
    start = np.repeat(np.cumsum(dims) - dims, dims)  # first position in [x; u] of each position's vertex
    proj = np.eye(dims.max(initial=1))[np.arange(start.size) - start]  # each position's row of its vertex's P
    lifted = np.zeros(start.size, dtype=bool)
    for group in gather_plan(t):
        d, solved = group.shape[1], np.flatnonzero(~np.isin(group.vertex_index, list(failures)))
        threshold = _rule_cut(rule, (d, traj.y.shape[1]))  # for every group, so that a value that is not a rule always raises
        if d == 1 or solved.size == 0:
            continue
        y = traj.y[source[group.rows[solved]]]
        try:
            u, s, _ = _svd(y)
        except ConvergenceFailure:  # per node: a node whose SVD fails keeps s = 0, and so the identity
            u, s = np.zeros((len(y), d, min(y.shape[1:]))), np.zeros((len(y), min(y.shape[1:])))
            for i, y_i in enumerate(y):
                try:
                    u[i], s[i], _ = _svd(y_i)
                except ConvergenceFailure as exc:
                    failures[int(group.vertex_index[solved[i]])] = str(exc)
        keep = _kept(s, *threshold)
        cut = (keep.sum(axis=1) < d) & (s[:, 0] > 0)  # an all-zero Y keeps nothing, and reads as the identity
        rows, u = group.rows[solved[cut]], u[cut] * keep[cut][:, None, :]
        proj[rows[:, :, None], np.arange(d)] = u @ np.swapaxes(u, 1, 2)
        lifted[rows] = True
    for group, stack in _group_stacks(t, coeffs):
        at = np.flatnonzero(lifted[group.cols].any(axis=1))
        cols, first = group.cols[at], start[group.cols[at]]
        block = np.where(first[:, :, None] == first[:, None, :], proj[cols[:, :, None], cols[:, None, :] - first[:, None, :]], 0.0)
        stack[at] = proj[group.rows[at], : group.shape[1]] @ stack[at] @ block
        stack[np.isin(group.vertex_index, list(failures))] = 0.0


def _network_model(t: NetworkTopology, coeffs: np.ndarray, record: np.ndarray, failures: dict) -> NetworkModel:
    """The read-only model over plan-order ``coeffs``, with each node's (sigma_max, sigma_min, rcond) and failures by vertex index; a failed node has no record."""
    present = np.ones(len(t.state_vertices), dtype=bool)
    present[list(failures)] = False
    coeffs.flags.writeable = False
    conditioning = NodeConditioning(present, *record, _ill_conditioned(*record[:2]) & present)
    return NetworkModel(t, coeffs, conditioning, {t.state_vertices[i]: failures[i] for i in sorted(failures)})


#: Elements of :func:`model_error`'s difference buffer, at most: 512 KiB of
#: float64. A model of a few thousand states is then scored in a few dozen
#: blocks rather than a few hundred, and the buffer still fits in a core's L2
#: cache; a smaller matrix gets a buffer of its own size.
_SCORE_BLOCK_ELEMENTS = 64 * 1024


def model_error(model, truth_a, truth_b=None) -> float:
    """Frobenius norm of ``[A B] - [A_true B_true]``.

    Accepts a :class:`NetworkModel` or :class:`ExactLinearModel`. The input
    part is skipped when both the model and the truth lack one (None or zero
    columns); a one-sided input operator, or a truth B that is not a
    matrix, is a dimension error. The squared differences are summed a few
    rows at a time through one small buffer, so no n-by-n temporary is
    made. A network model is read only at its coefficients: each block of
    rows holds the truth's entries, negated, and the block's share of
    ``coeffs`` is added at its positions, so the truth's mass off the
    support is counted in full without densifying the model. A NaN or Inf
    difference raises :class:`NonFiniteEntry`; finite differences whose
    squares overflow give inf.
    """
    if isinstance(model, NetworkModel):
        n = model.topology.total_state_dim
        a_shape, b_shape = (n, n), (n, model.topology.total_input_dim)
        dense = [None, None]
    elif isinstance(model, ExactLinearModel):
        a_shape, b_shape = model.a.shape, None if model.b is None else model.b.shape
        dense = [model.a, model.b]
    else:
        raise DimensionMismatch(f"unsupported model type {type(model).__name__}")
    truth_a = np.asarray(truth_a, dtype=float)
    if a_shape != truth_a.shape:
        raise DimensionMismatch(f"A is {a_shape} but truth is {truth_a.shape}")
    truths = [truth_a]
    b_width = 0 if b_shape is None else b_shape[1]
    truth_width = 0
    if truth_b is not None:
        truth_b = np.asarray(truth_b, dtype=float)
        if truth_b.ndim != 2:
            raise DimensionMismatch(f"truth B must be a matrix, got shape {truth_b.shape}")
        truth_width = truth_b.shape[1]
    if b_width != truth_width:
        raise DimensionMismatch(f"B has {b_width} columns but truth has {truth_width}")
    if b_width:
        if b_shape != truth_b.shape:
            raise DimensionMismatch(f"B is {b_shape} but truth is {truth_b.shape}")
        truths.append(truth_b)
    pairs = list(zip(dense, truths))
    support = _support(model, sum(t.shape[1] for t in truths)) if isinstance(model, NetworkModel) else None
    total = 0.0
    for flat in _difference_blocks(pairs, support):
        total += float(flat @ flat)
    if not math.isfinite(total):
        for block in _difference_blocks(pairs, support):
            as_matrix(block)  # raises NonFiniteEntry unless only the squares overflowed
    return math.sqrt(total)


def _support(model: NetworkModel, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The model's coefficients as ascending flat positions in the row-major difference, and their values."""
    rows, cols, order = coefficient_support(model.topology)
    return (rows * width + cols)[order], model.coeffs[order]


def _difference_blocks(pairs, support=None):
    """``[x1 - y1, x2 - y2, ...]`` a few rows at a time, flattened, each block in one reused buffer.

    An ``x`` of None stands for zeros. ``support``, if given, is
    ``(positions, values)``: ascending flat positions in the row-major
    difference and the entries added there, the sparse part of the x's.
    """
    n = pairs[0][1].shape[0]
    width = sum(y.shape[1] for _, y in pairs)
    height = max(1, min(n, _SCORE_BLOCK_ELEMENTS // max(width, 1)))
    buffer = np.empty((height, width))
    if support is not None:
        positions, values = support
        step = height * width
        bounds = np.searchsorted(positions, np.arange(0, n * width + step, step)).tolist()
        positions = positions % step
    for i, lo in enumerate(range(0, n, height)):
        hi = min(lo + height, n)
        block = buffer[: hi - lo]
        col = 0
        for x, y in pairs:
            out = block[:, col : col + y.shape[1]]
            if x is None:
                np.negative(y[lo:hi], out=out)
            else:
                np.subtract(x[lo:hi], y[lo:hi], out=out)
            col += y.shape[1]
        flat = block.reshape(-1)
        if support is not None:
            inside = slice(bounds[i], bounds[i + 1])
            flat[positions[inside]] += values[inside]
        yield flat


def network_model_to_dict(model: NetworkModel) -> dict:
    """JSON-ready form; block keys are "src→dst" strings.

    The coefficients are written once, as the per-edge blocks; no assembled
    (n-by-n) matrix is written. ``per_node_conditioning`` holds
    :func:`conditioning_to_dict`'s form of each record, written straight
    from the model's conditioning arrays without building the records.
    """
    records = _present_records(model.topology, model.conditioning)
    return {
        "topology": topology_to_dict(model.topology),
        "blocks_a": {_block_key(i, j): blk.tolist() for (j, i), blk in model.blocks_a.items()},
        "blocks_b": {_block_key(i, j): blk.tolist() for (j, i), blk in model.blocks_b.items()},
        "per_node_conditioning": {v: dict(zip(_RECORD_FIELDS, record)) for v, record in records},
        "node_failures": dict(model.node_failures),
    }


def network_model_from_dict(d: dict) -> NetworkModel:
    """Rebuild a model from :func:`network_model_to_dict`'s output.

    The coefficients are read from ``blocks_a``/``blocks_b``, which hold one
    block per edge and one per state vertex. Documents that also carry
    ``assembled_a``/``assembled_b`` (as earlier versions wrote) load the
    same; those entries are not read. A mis-shaped block raises
    :class:`DimensionMismatch`; a missing or unexpected block, or one under
    the wrong map (``blocks_a`` holds the blocks from state vertices,
    ``blocks_b`` those from inputs), raises :class:`BadConfig`. A failure
    message that is not a JSON string raises TypeError, and one for a vertex
    that is not a state vertex :class:`UnknownVertex`.
    """
    topology = topology_from_dict(d["topology"])
    blocks = {}
    for name in ("blocks_a", "blocks_b"):
        blocks.update((_split_block_key(key), block) for key, block in d[name].items())
    coeffs = _read_blocks(topology, blocks)
    inputs = set(topology.input_vertices)
    misplaced = [key for key in d["blocks_a"] if _split_block_key(key)[0] in inputs]
    misplaced += [key for key in d["blocks_b"] if _split_block_key(key)[0] not in inputs]
    if misplaced:
        raise BadConfig(f"blocks_a is for state sources, blocks_b for inputs; misplaced: {sorted(misplaced)}")
    records = {v: conditioning_from_dict(rec) for v, rec in d["per_node_conditioning"].items()}
    return NetworkModel(
        topology=topology,
        coeffs=coeffs,
        conditioning=_node_conditioning(topology, records),
        node_failures={v: _json_value(message, str) for v, message in d["node_failures"].items()},
    )
