"""Shared constructors for randomized test systems, and reference oracles.

The oracles are the straightforward per-vertex forms of the package's
indexed and vectorized code: topology validation one id and one edge at a
time, a topology rescan per lookup, a per-vertex block loop per simulation
step, a per-pair loop over one n-by-n draw for the Erdős–Rényi edges, a
per-vertex block row for the transition operator's values, a per-node
gather for both network DMDc solvers, a lift of the reduced network model
through one dense block-diagonal projector, the exact solve through an explicit pseudoinverse of each matrix as given, and
reduced DMD and DMDc through numpy's SVD, each cut at the rank its rule's
definition gives. :func:`conditioning_record` is the record the solvers
write, from one SVD of the matrix as given. :func:`pinv_conditioning` is
the solvers' kernel applied to an identity: the pseudoinverse of one
matrix, for checks of the kernel.
"""
from contextlib import contextmanager
from dataclasses import dataclass
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from netdmd.dmdcore import ReducedLinearModel, _check_regression, dmdc_exact
from netdmd.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NetdmdError,
    RowRangeMismatch,
    UnknownVertex,
)
from netdmd.numkernel import (
    EXACT_RULE,
    ConditioningRecord,
    FixedRank,
    MachineDefault,
    RelativeThreshold,
    TruncationRule,
    _pinv_stack,
    _record,
    _svd,
    as_matrix,
)
from netdmd.sysmodel import (
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    TrajectoryData,
    _draw_blocks,
    derive_rng,
)
from netdmd.topology import LocalSubsystem, NetworkTopology, Violation, gather_plan, local_subsystem


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


def reference_validate(t: NetworkTopology) -> list[Violation]:
    """Reference validation: every id, dimension and edge checked one at a time, violations in the order met."""
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
    order, raising :class:`RowRangeMismatch` for the first that is missing,
    mis-sized or outside its array (z for a state vertex, gamma for an
    input).
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
        name = "gamma" if w in sub.input_parents else "z"
        rows = getattr(traj, name).shape[0]
        if lo < 0 or hi > rows:
            raise RowRangeMismatch(f"vertex {w!r} spans rows {lo} to {hi} of {name}, which has {rows}")
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


def reference_network_dmdc_exact(t: NetworkTopology, traj: TrajectoryData, rule: TruncationRule = EXACT_RULE, failures=None):
    """Reference assembled (A, B): rescan, gather and solve each node on its own, with :func:`dmdc_exact` under ``rule``.

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
            model = dmdc_exact(traj.z[lo:hi, :], traj.y[lo:hi, :], gamma_j, rule)
        except NetdmdError as exc:
            if failures is None:
                raise
            failures[v] = str(exc)
            continue
        # the data sit at the trajectory's rows, the blocks at the topology's
        rows_v = slice(*srows[v])
        a[rows_v, rows_v] = model.a
        offset = 0
        for w, _, rows, target in parents:
            width = t.dims[w]
            target[rows_v, slice(*rows[w])] = model.b[:, offset : offset + width]
            offset += width
    return a, b


def rcond_by_definition(rule: TruncationRule, shape) -> float:
    """The relative cut a rule's definition gives a matrix of ``shape``: ``tau``, ``max(shape) * eps`` for ``MachineDefault``, and 0.0 (none) for ``FixedRank``."""
    if isinstance(rule, FixedRank):
        return 0.0
    return rule.tau if isinstance(rule, RelativeThreshold) else max(shape) * np.finfo(float).eps


def rank_by_definition(sigma: np.ndarray, rule: TruncationRule, shape) -> int:
    """How many of a matrix's singular values ``rule`` keeps, counted as each rule's definition reads.

    ``sigma`` holds the values of a matrix of ``shape``, descending. Every
    rule keeps only values above zero, so an all-zero matrix keeps none:
    ``FixedRank(r)`` keeps the first min(r, len(sigma)) of them,
    ``RelativeThreshold(tau)`` those ``>= tau * sigma_max``, and
    ``MachineDefault`` those with ``tau = max(shape) * eps``.
    """
    positive = sigma[sigma > 0.0]
    if isinstance(rule, FixedRank):
        return min(rule.rank, positive.size)
    return int(np.count_nonzero(positive >= rcond_by_definition(rule, shape) * sigma[0]))


def reference_svd(a: np.ndarray):
    """``np.linalg.svd(a, full_matrices=False)``, with LAPACK's LinAlgError raised as :class:`ConvergenceFailure`."""
    try:
        return np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def reference_dmd_reduced(z, y, rule: TruncationRule = MachineDefault()) -> ReducedLinearModel:
    """Reference reduced DMD: one SVD of z, cut at :func:`rank_by_definition`'s p.

    After ``dmd_reduced``'s data check: with ``z = u s v.T`` and ``u_hat``
    u's first p columns, ``a_tilde = u_hat.T y v_p s_p^-1``; the record is
    :func:`conditioning_record`'s of z, labelled with the rule's cut.
    """
    z, y, _ = _check_regression(z, y)
    u, s, vt = reference_svd(z)
    p = rank_by_definition(s, rule, z.shape)
    u_hat = u[:, :p]
    a_tilde = u_hat.T @ ((y @ vt[:p].T) / s[:p])
    return ReducedLinearModel(a_tilde, None, u_hat, p, p, conditioning_record(z, rcond_by_definition(rule, z.shape)))


def reference_dmdc_reduced(
    z,
    y,
    gamma,
    input_rule: TruncationRule = MachineDefault(),
    output_rule: TruncationRule = MachineDefault(),
) -> ReducedLinearModel:
    """Reference reduced DMDc through two SVDs, each cut at :func:`rank_by_definition`'s rank.

    After ``dmdc_reduced``'s data check: an SVD of ``omega = [z; gamma]``
    cut at rank p, its left factor split into state rows ``u1`` and input
    rows ``u2``; an SVD of y cut at rank r giving ``u_hat``; then
    ``a_tilde = u_hat.T y v s^-1 u1.T u_hat`` and ``b_tilde = u_hat.T y v s^-1 u2.T``.
    The record is :func:`conditioning_record`'s of omega, labelled with the input rule's cut.
    """
    z, y, gammas = _check_regression(z, y, gamma)
    omega = np.vstack([z, *gammas])
    u, s, vt = reference_svd(omega)
    u_y, s_y, _ = reference_svd(y)
    p, r = rank_by_definition(s, input_rule, omega.shape), rank_by_definition(s_y, output_rule, y.shape)
    u1, u2 = u[: z.shape[0], :p], u[z.shape[0] :, :p]
    u_hat = u_y[:, :r]
    core = (y @ vt[:p].T) / s[:p]
    return ReducedLinearModel(
        a_tilde=u_hat.T @ core @ (u1.T @ u_hat),
        b_tilde=u_hat.T @ core @ u2.T,
        u_hat=u_hat,
        p=p,
        r=r,
        conditioning=conditioning_record(omega, rcond_by_definition(input_rule, omega.shape)),
    )


def reference_network_dmdc_reduced(
    t: NetworkTopology,
    traj: TrajectoryData,
    input_rule: TruncationRule = MachineDefault(),
    output_rule: TruncationRule = MachineDefault(),
) -> SimpleNamespace:
    """Reference reduced network model: gather, solve and record each node on its own.

    The per-node loop is the package's former ``network_dmdc_reduced``, with
    :func:`reference_dmdc_reduced` as its node solve. It also ran a third SVD
    per node for its record and kept the blocks next to the assembled
    matrices; the result carries the same fields. A node that fails, or
    whose Y_j is all zero, keeps zero blocks and the identity as its
    projector, as the package's ``_project`` gives it.
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
            model = reference_dmdc_reduced(ld.z_j, ld.y_j, ld.gamma_j, input_rule, output_rule)
        except NetdmdError as exc:
            failures[v] = str(exc)
            model = None
        else:
            conditioning[v] = model.conditioning
        if model is None or model.r == 0:
            # a failed node, or one whose Y_j is all zero (r = 0, and its solve is zero), has zero blocks
            # and the identity as its projector
            u_hat[v] = np.eye(t.dims[v])
            diag[v] = np.zeros((t.dims[v], t.dims[v]))
            for w in ld.parent_row_ranges:
                (raw_cross if w in srows else blocks_b)[(v, w)] = np.zeros((t.dims[v], t.dims[w]))
            continue
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


def reference_pinv_solve(omega: np.ndarray, y: np.ndarray | None, rcond: float, rank: int | None = None):
    """Reference ``y @ pinv(omega)`` for a G-by-k-by-m stack, forming each pseudoinverse.

    Each matrix is factored as given, wide or tall, ``omega = U S V^T``; its
    pseudoinverse ``(V^T)^T S^-1 U^T`` is built with the same rule
    (sigma >= rcond * sigma_max and sigma > 0, and with ``rank`` only the
    first ``rank`` of those), then applied to y (``y=None`` returns the
    pseudoinverses). Returns it with each matrix's sigma_max and sigma_min.
    """
    u, sigma, vt = np.linalg.svd(omega, full_matrices=False)
    keep = (sigma >= rcond * sigma[:, :1]) & (sigma > 0.0)
    if rank is not None:
        keep[:, rank:] = False
    s_inv = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=keep)
    pinv = (np.swapaxes(vt, 1, 2) * s_inv[:, None, :]) @ np.swapaxes(u, 1, 2)
    return (pinv if y is None else y @ pinv), sigma[:, 0], sigma[:, -1]


#: An entry equal to this makes every SVD and QR that sees it fail (:func:`factorizations_failing_on_marker`).
MARKER = 12345.678


@contextmanager
def factorizations_failing_on_marker():
    """Patch ``np.linalg.svd`` and ``np.linalg.qr`` to raise LinAlgError on any input that holds MARKER.

    Both, since node data reach LAPACK through a QR first and only R factors
    and output projectors through an SVD: a solve whose data hold the marker
    fails, and only such a solve.
    """

    def failing(routine):
        def call(a, *args, **kwargs):
            if np.any(np.asarray(a) == MARKER):
                raise np.linalg.LinAlgError(f"{routine.__name__} did not converge")
            return routine(a, *args, **kwargs)

        return call

    with mock.patch.object(np.linalg, "svd", failing(np.linalg.svd)), mock.patch.object(np.linalg, "qr", failing(np.linalg.qr)):
        yield


def conditioning_record(m, rcond: float = EXACT_RULE.tau) -> ConditioningRecord:
    """Singular-value extremes of a data matrix, flagging near-singularity.

    The warning trips when sigma_min/sigma_max < ILL_CONDITIONED_RATIO, the
    regime where pseudoinverse-based estimates become unreliable. ``rcond``
    is only the record's ``rcond_used`` label; nothing is cut here.
    """
    a = as_matrix(m)
    return _record(_svd(a, compute_uv=False) if a.size else np.zeros(0), rcond)


def pinv_conditioning(m, rcond: float = EXACT_RULE.tau):
    """Pseudoinverse and conditioning record of a matrix, from one QR and the singular values of its R.

    Returns the Moore-Penrose pseudoinverse of the k-by-n matrix ``m``
    (n-by-k), with singular values below ``rcond * sigma_max`` treated as
    zero, and the record :func:`conditioning_record` describes, both read
    from the same singular values (see :func:`_pinv_stack`). The
    pseudoinverse is the solve of an identity with min(k, n) rows: of the
    tall side's, as ``pinv(m^T)^T`` when k < n. An array of more than two
    dimensions raises :class:`DimensionMismatch` (:func:`as_matrix`).
    """
    a = as_matrix(m)
    wide = a.shape[0] < a.shape[1]
    tall = a.T if wide else a
    (pinv,), (sigma,) = _pinv_stack(np.concatenate([tall, np.eye(tall.shape[1])])[None], tall.shape[0], rcond)
    return pinv.T if wide else pinv, _record(sigma, rcond)
