"""Both network DMDc solvers and their shared gather plan against per-node oracles."""
import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_local_data,
    conditioning_record,
    rcond_by_definition,
    reference_lift_reduced_network,
    reference_network_dmdc_exact,
    reference_network_dmdc_reduced,
    reference_pinv_solve,
    rescan_local_subsystem,
    systems,
    topologies,
)
from netdmd.bench import _identify, generate_system
from netdmd.dmdcore import dmd_reduced, dmdc_exact, dmdc_reduced
from netdmd.errors import DimensionMismatch, NetdmdError, RowRangeMismatch
from netdmd.netdmdc import network_dmdc_exact, network_dmdc_reduced, network_model_to_dict
from netdmd.numkernel import (
    EPS,
    EXACT_RULE,
    ConditioningRecord,
    FixedRank,
    MachineDefault,
    RelativeThreshold,
    _kept,
    _pinv_stack,
    _rule_cut,
    conditioning_to_dict,
)
from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    TrajectoryData,
    _trajectory_rows,
    derive_rng,
    simulate,
    write_trajectory_csv,
)
from netdmd.topology import NetworkTopology, coefficient_support, gather_plan, max_local_dim


def _trajectory(system, m, seed):
    t = system.topology
    rng = np.random.default_rng(seed)
    return simulate(system, rng.uniform(-1, 1, t.total_state_dim), rng.uniform(-1, 1, (t.total_input_dim, m)))


def _close(got, want, rtol=1e-12):
    return np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def _strip(model, t, v):
    """Node v's row of blocks, in the column order of its local data."""
    sub = rescan_local_subsystem(t, v)
    blocks = [model.blocks_a[(v, v)]]
    blocks += [model.blocks_a[(v, w)] for w in sub.state_parents]
    blocks += [model.blocks_b[(v, e)] for e in sub.input_parents]
    return np.hstack(blocks)


@given(topologies(max_states=30, max_inputs=10))
@settings(max_examples=80, deadline=None)
def test_gather_plan_matches_rescan(t):
    n = t.total_state_dim
    pos = {v: list(range(*r)) for v, r in t.state_row_ranges().items()}
    pos.update({e: [n + p for p in range(*r)] for e, r in t.input_row_ranges().items()})
    plan = gather_plan(t)
    grouped = [v for group in plan for v in group.vertices]
    assert sorted(grouped) == sorted(t.state_vertices)
    # groups in the order of their first vertex, vertices in declaration order within each
    assert [group.vertex_index[0] for group in plan] == sorted(group.vertex_index[0] for group in plan)
    for group in plan:
        order = [t.state_vertices.index(v) for v in group.vertices]
        assert order == sorted(order)
        assert group.vertex_index.tolist() == order
        for a in (group.rows, group.cols, group.vertex_index):
            assert a.dtype == np.intp and a.flags.c_contiguous and not a.flags.writeable
        for i, v in enumerate(group.vertices):
            sub = rescan_local_subsystem(t, v)
            assert group.rows[i].tolist() == pos[v]
            assert group.cols[i].tolist() == [p for w in (v, *sub.state_parents, *sub.input_parents) for p in pos[w]]
        shapes = {(t.dims[v], rescan_local_subsystem(t, v).local_dim) for v in group.vertices}
        assert shapes == {(group.rows.shape[1], group.cols.shape[1])}
    assert len({(g.rows.shape[1], g.cols.shape[1]) for g in plan}) == len(plan)


def test_gather_plan_is_built_once(two_node_topology):
    assert gather_plan(two_node_topology) is gather_plan(two_node_topology)


@given(systems(), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_batched_solve_matches_per_node_reference(system, m, seed):
    t = system.topology
    traj = _trajectory(system, m, seed)
    model = network_dmdc_exact(t, traj)
    a, b = reference_network_dmdc_exact(t, traj)
    assert _close(model.assembled_a, a)
    assert _close(model.assembled_b, b)
    assert model.node_failures == {}
    assert list(model.per_node_conditioning) == list(t.state_vertices)
    for v in t.state_vertices:
        ld = build_local_data(t, traj, v)
        want = conditioning_record(np.vstack([ld.z_j, ld.gamma_j]))
        got = model.per_node_conditioning[v]
        # both extremes agree relative to the matrix norm, sigma_max
        assert abs(got.sigma_max - want.sigma_max) <= 1e-12 * want.sigma_max
        assert abs(got.sigma_min - want.sigma_min) <= 1e-12 * want.sigma_max
        assert (got.warning, got.rcond_used) == (want.warning, want.rcond_used)


@given(systems(), st.integers(2, 6), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=80, deadline=None)
def test_non_finite_data_fails_exactly_the_nodes_that_read_it(system, m, seed, data):
    t = system.topology
    clean = _trajectory(system, m, seed)
    arrays = {"z": clean.z.copy(), "gamma": clean.gamma.copy(), "y": clean.y.copy()}
    names = [name for name, arr in arrays.items() if arr.size]
    for _ in range(data.draw(st.integers(1, 3))):
        arr = arrays[data.draw(st.sampled_from(names))]
        row = data.draw(st.integers(0, arr.shape[0] - 1))
        col = data.draw(st.integers(0, m - 1))
        arr[row, col] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    traj = TrajectoryData(arrays["z"], arrays["gamma"], arrays["y"], clean.vertex_row_ranges)
    model = network_dmdc_exact(t, traj)
    want = {}
    for v in t.state_vertices:
        ld = build_local_data(t, traj, v)
        try:
            node = dmdc_exact(ld.z_j, ld.y_j, ld.gamma_j)
        except NetdmdError as exc:
            want[v] = str(exc)
            assert not _strip(model, t, v).any()
            continue
        assert _close(_strip(model, t, v), np.hstack([node.a, node.b]))
    assert model.node_failures == want
    assert set(model.per_node_conditioning) == set(t.state_vertices) - set(want)


def _star(leaves=3, inward=False):
    """v0 feeds every leaf, or with ``inward`` every leaf feeds v0; the leaves share one local shape."""
    states = ("v0",) + tuple(f"v{i}" for i in range(1, leaves + 1))
    edges = tuple((v, "v0") if inward else ("v0", v) for v in states[1:])
    t = NetworkTopology(states, (), edges, {v: 1 for v in states})
    rng = np.random.default_rng(5)
    blocks = {v: rng.uniform(-1, 1, (1, 1)) for v in states}
    return LinearNetworkSystem(t, blocks, {e: rng.uniform(-1, 1, (1, 1)) for e in t.edges})


def _factorization_spy(monkeypatch, marker=None):
    """Record ``(routine, input shape)`` for each ``np.linalg.qr`` and ``np.linalg.svd`` call.

    A factorization whose input holds ``marker`` raises LAPACK's non-convergence
    instead. Both network solves' data reach only their QR (their SVD sees the
    R factors), so the marker fails the first factorization of either.
    """
    calls = []

    def spy(name, real):
        def routine(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            if marker is not None and np.any(np.asarray(a) == marker):
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(a, *args, **kwargs)

        return routine

    monkeypatch.setattr(np.linalg, "qr", spy("qr", np.linalg.qr))
    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    return calls


def test_non_converging_node_fails_alone(monkeypatch):
    system = _star()
    t = system.topology
    traj = _trajectory(system, 4, 11)
    marker = 12345.678
    z = traj.z.copy()
    z[2, 0] = marker  # only v2's local data contain its own row
    traj = TrajectoryData(z, traj.gamma, traj.y, traj.vertex_row_ranges)
    calls = _factorization_spy(monkeypatch, marker)
    model = network_dmdc_exact(t, traj)
    assert model.node_failures == {"v2": "SVD did not converge"}
    assert ("qr", (3, 4, 3)) in calls  # the leaves' gathered 2-by-4 Omega and 1-by-4 y, factored as [Omega^T | Y^T]
    assert not _strip(model, t, "v2").any()
    for v in ("v1", "v3"):
        ld = build_local_data(t, traj, v)
        node = dmdc_exact(ld.z_j, ld.y_j, ld.gamma_j)
        assert _close(_strip(model, t, v), np.hstack([node.a, node.b]))
        assert model.per_node_conditioning[v] == node.conditioning
    assert set(model.per_node_conditioning) == {"v0", "v1", "v3"}


def test_finite_groups_are_solved_with_one_batched_svd_each(monkeypatch):
    system = _star()
    traj = _trajectory(system, 4, 11)
    calls = _factorization_spy(monkeypatch)
    model = network_dmdc_exact(system.topology, traj)
    assert model.node_failures == {}
    # v0 alone, then the three leaves in one stack, each wide matrix factored as its tall transpose
    # with Y^T beside it, [Omega^T | Y^T] (G by m by k + d): the group's gathered [Omega; Y] stack
    # itself; each QR is followed by one values-only SVD of the stack's k-by-k R factors
    assert calls == [("qr", (1, 4, 2)), ("svd", (1, 1, 1)), ("qr", (3, 4, 3)), ("svd", (3, 2, 2))]
    # inward star at m = 2: v0 reads 4 rows (tall, factored as is), each leaf 1 row (wide, transposed)
    inward = _star(inward=True)
    calls.clear()
    network_dmdc_exact(inward.topology, _trajectory(inward, 2, 11))
    assert calls == [("qr", (1, 4, 2)), ("svd", (1, 2, 2)), ("qr", (3, 2, 2)), ("svd", (3, 1, 1))]


@pytest.mark.parametrize("identify", [network_dmdc_exact, network_dmdc_reduced])
def test_nan_and_non_converging_nodes_of_one_group_fail_alone(monkeypatch, identify):
    system = _star(4)
    t = system.topology
    traj = _trajectory(system, 5, 11)
    marker = 12345.678
    z = traj.z.copy()
    z[1, 0] = np.nan  # v1's own row
    z[2, 1] = marker  # v2's own row
    traj = TrajectoryData(z, traj.gamma, traj.y, traj.vertex_row_ranges)
    _factorization_spy(monkeypatch, marker)
    model = identify(t, traj)
    if identify is network_dmdc_exact:
        want = {}
        for v in t.state_vertices:
            ld = build_local_data(t, traj, v)
            try:
                node = dmdc_exact(ld.z_j, ld.y_j, ld.gamma_j)
            except NetdmdError as exc:
                want[v] = str(exc)
                continue
            assert _close(_strip(model, t, v), np.hstack([node.a, node.b]))
            assert model.per_node_conditioning[v] == node.conditioning
    else:
        want = reference_network_dmdc_reduced(t, traj).node_failures
    assert list(model.node_failures.items()) == list(want.items())
    assert want == {"v1": "z contains NaN or Inf entries", "v2": "SVD did not converge"}
    for v in want:
        assert not _strip(model, t, v).any()
    assert set(model.per_node_conditioning) == {"v0", "v3", "v4"}


def test_blocks_are_read_only_views_of_the_coefficient_vector(two_node_topology, two_node_trajectory):
    model = network_dmdc_exact(two_node_topology, two_node_trajectory)
    block = model.blocks_a[("v1", "v2")]
    assert np.shares_memory(block, model.coeffs)
    assert block[0, 0] == model.assembled_a[0, 1]
    assert not block.flags.writeable
    assert np.shares_memory(model.blocks_b[("v2", "e2")], model.coeffs)
    with pytest.raises(TypeError):
        model.blocks_a[("v1", "v2")] = np.zeros((1, 1))


def test_json_block_keys_keep_vertex_then_parent_order(two_node_topology, two_node_trajectory):
    doc = network_model_to_dict(network_dmdc_exact(two_node_topology, two_node_trajectory))
    assert list(doc["blocks_a"]) == ["v1→v1", "v2→v1", "v2→v2"]
    assert list(doc["blocks_b"]) == ["e1→v1", "e2→v2"]
    assert list(doc["per_node_conditioning"]) == ["v1", "v2"]


def test_missing_trajectory_rows_raise(two_node_topology, two_node_trajectory):
    traj = two_node_trajectory
    ranges = {k: r for k, r in traj.vertex_row_ranges.items() if k != "e1"}
    with pytest.raises(RowRangeMismatch, match="e1"):
        network_dmdc_exact(two_node_topology, TrajectoryData(traj.z, traj.gamma, traj.y, ranges))


def test_unused_input_needs_no_trajectory_rows(two_node_system):
    t = two_node_system.topology
    wider = NetworkTopology(t.state_vertices, t.input_vertices + ("e3",), t.edges, {**t.dims, "e3": 1})
    traj = simulate(two_node_system, (2.0, 5.0), np.array([[0.2, 0.4, 0.8], [0.3, 0.1, 0.3]]))
    model = network_dmdc_exact(wider, TrajectoryData(traj.z, np.vstack([traj.gamma, np.ones(3)]), traj.y, traj.vertex_row_ranges))
    assert model.assembled_b.shape == (2, 3)
    assert not model.assembled_b[:, 2].any()
    # nor rows inside the trajectory
    outside = {**traj.vertex_row_ranges, "e3": (5, 6)}
    for identify in (network_dmdc_exact, network_dmdc_reduced):
        model = identify(wider, TrajectoryData(traj.z, traj.gamma, traj.y, outside))
        assert model.node_failures == {} and not model.assembled_b[:, 2].any()


@pytest.mark.parametrize("identify", [network_dmdc_exact, network_dmdc_reduced])
@pytest.mark.parametrize("vertex, span", [("v2", (-1, 0)), ("v2", (5, 6)), ("e1", (-1, 0)), ("e1", (2, 3))])
def test_row_ranges_outside_the_trajectory_raise(two_node_topology, two_node_trajectory, identify, vertex, span):
    traj = two_node_trajectory
    ranges = {**traj.vertex_row_ranges, vertex: span}
    name = "z" if vertex == "v2" else "gamma"
    with pytest.raises(RowRangeMismatch, match=f"vertex '{vertex}' spans rows {span[0]} to {span[1]} of {name}, which has 2"):
        identify(two_node_topology, TrajectoryData(traj.z, traj.gamma, traj.y, ranges))


@pytest.mark.parametrize(
    "read",
    [
        lambda t, traj, path: write_trajectory_csv(traj, t, path),
        lambda t, traj, path: network_dmdc_exact(t, traj),
        lambda t, traj, path: network_dmdc_reduced(t, traj),
    ],
    ids=["write_trajectory_csv", "network_dmdc_exact", "network_dmdc_reduced"],
)
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda z, gamma, y: (z, gamma, y[:1]), "y has 1 rows but z has 2"),
        (lambda z, gamma, y: (z, gamma, np.hstack([y, y[:, :1]])), "y has 4 columns but z has 3"),
        (lambda z, gamma, y: (z, gamma, y[:, :2]), "y has 2 columns but z has 3"),
        (lambda z, gamma, y: (z, np.hstack([gamma, gamma[:, :1]]), y), "gamma has 4 columns but z has 3"),
        (lambda z, gamma, y: (z, gamma[:, :2], y), "gamma has 2 columns but z has 3"),
        (lambda z, gamma, y: (z, gamma[0], y), r"gamma must be a matrix, got shape \(3,\)"),
    ],
    ids=["y_rows", "y_columns", "y_short_columns", "gamma_columns", "gamma_short_columns", "gamma_vector"],
)
def test_misaligned_trajectory_arrays_raise(two_node_topology, two_node_trajectory, tmp_path, read, edit, message):
    # the CSV writer and both solvers read a trajectory through one row map, which checks its arrays first
    traj = two_node_trajectory
    z, gamma, y = edit(traj.z, traj.gamma, traj.y)
    path = tmp_path / "traj.csv"
    with pytest.raises(DimensionMismatch, match=message):
        read(two_node_topology, TrajectoryData(z, gamma, y, traj.vertex_row_ranges), path)
    assert not path.exists()


@given(topologies())
@settings(max_examples=80, deadline=None)
def test_coefficient_support_covers_exactly_the_edge_blocks(t):
    n, l = t.total_state_dim, t.total_input_dim
    srows = t.state_row_ranges()
    irows = t.input_row_ranges()
    want_a = np.zeros((n, n), dtype=int)
    want_b = np.zeros((n, l), dtype=int)
    for v in t.state_vertices:
        sub = rescan_local_subsystem(t, v)
        rows = slice(*srows[v])
        for w in (v, *sub.state_parents):
            want_a[rows, slice(*srows[w])] = 1
        for e in sub.input_parents:
            want_b[rows, slice(*irows[e])] = 1
    rows, cols, order = coefficient_support(t)
    assert not any(x.flags.writeable for x in (rows, cols, order))
    assert np.all(np.diff((rows * (n + l) + cols)[order]) > 0)
    hits = np.zeros((n, n + l), dtype=int)
    np.add.at(hits, (rows, cols), 1)
    assert np.array_equal(hits[:, :n], want_a)
    assert np.array_equal(hits[:, n:], want_b)
    position = 0
    for group in gather_plan(t):
        assert group.shape == (len(group.vertices), group.rows.shape[1], group.cols.shape[1])
        for i in range(len(group.vertices)):
            for row in group.rows[i]:
                for col in group.cols[i]:
                    assert (rows[position], cols[position]) == (row, col)
                    position += 1
    assert position == rows.size


@pytest.mark.parametrize("identify", [network_dmdc_exact, network_dmdc_reduced])
@given(systems(), st.data())
@settings(max_examples=80, deadline=None)
def test_trajectory_row_errors_match_the_per_node_gather(identify, system, data):
    t = system.topology
    traj = _trajectory(system, 3, 0)
    ranges = dict(traj.vertex_row_ranges)
    vertices = t.state_vertices + t.input_vertices
    for w in data.draw(st.lists(st.sampled_from(vertices), max_size=3, unique=True)):
        lo, hi = ranges[w]
        change = data.draw(st.sampled_from(["drop", "shorter", "longer", "negative start", "past the end"]))
        if change == "drop":
            del ranges[w]
        elif change in ("shorter", "longer"):
            ranges[w] = (lo, hi - 1 if change == "shorter" else hi + 1)
        else:
            # the right width, starting one row before w's array or ending one row past it
            end = (traj.z if w in t.state_vertices else traj.gamma).shape[0] + 1
            start = -1 if change == "negative start" else end - t.dims[w]
            ranges[w] = (start, start + t.dims[w])
    broken = TrajectoryData(traj.z, traj.gamma, traj.y, ranges)
    want = None
    try:
        for v in t.state_vertices:
            build_local_data(t, broken, v)
    except RowRangeMismatch as exc:
        want = str(exc)
    if want is None:
        model = identify(t, broken)
        if identify is network_dmdc_exact:
            a, b = reference_network_dmdc_exact(t, broken)
            assert _close(model.assembled_a, a) and _close(model.assembled_b, b)
        else:
            reduced = reference_network_dmdc_reduced(t, broken)
            got = np.hstack([model.assembled_a, model.assembled_b])
            _assert_reduced_matches(model, reduced, got, np.hstack(reference_lift_reduced_network(reduced)))
    else:
        with pytest.raises(RowRangeMismatch) as raised:
            identify(t, broken)
        assert str(raised.value) == want


def _relaid(traj, t, data):
    """The trajectory with each vertex's rows moved into a drawn order of the vertices, and its ranges to match."""
    ranges, arrays = {}, {}
    for vertices, names in ((t.state_vertices, ("z", "y")), (t.input_vertices, ("gamma",))):
        order = data.draw(st.permutations(vertices))
        offset = 0
        for w in order:
            lo, hi = traj.vertex_row_ranges[w]
            ranges[w] = (offset, offset + hi - lo)
            offset += hi - lo
        for name in names:
            rows = [getattr(traj, name)[slice(*traj.vertex_row_ranges[w])] for w in order]
            arrays[name] = np.vstack(rows) if rows else getattr(traj, name)
    return TrajectoryData(arrays["z"], arrays["gamma"], arrays["y"], ranges)


def _solve_or_message(t, traj):
    try:
        return network_dmdc_exact(t, traj).coeffs.tolist()
    except RowRangeMismatch as exc:
        return str(exc)


@given(systems(), st.integers(1, 8), st.data())
@settings(max_examples=80, deadline=None)
def test_row_map_follows_the_trajectory_layout(system, m, data):
    t = system.topology
    traj = _trajectory(system, m, 0)
    first = network_dmdc_exact(t, traj)
    # the topology's own layout reads through the identity map
    assert np.array_equal(_trajectory_rows(t, traj), np.arange(t.total_state_dim + t.total_input_dim))
    relaid = _relaid(traj, t, data)
    model = network_dmdc_exact(t, relaid)
    a, b = reference_network_dmdc_exact(t, relaid)
    assert _close(model.assembled_a, a) and _close(model.assembled_b, b)
    # the same values gathered from other rows: the same solution, bit for bit
    assert np.array_equal(model.coeffs, first.coeffs)
    as_arrays = {w: np.array(r) for w, r in relaid.vertex_row_ranges.items()}
    assert np.array_equal(network_dmdc_exact(t, TrajectoryData(relaid.z, relaid.gamma, relaid.y, as_arrays)).coeffs, first.coeffs)
    # the own ranges with an unread trailing state row: every input row of [z; gamma] moves down by one
    pad = np.zeros((1, m))
    padded = TrajectoryData(np.vstack([traj.z, pad]), traj.gamma, np.vstack([traj.y, pad]), traj.vertex_row_ranges)
    assert np.array_equal(network_dmdc_exact(t, padded).coeffs, first.coeffs)
    w = data.draw(st.sampled_from(t.state_vertices + t.input_vertices))
    lo, hi = relaid.vertex_row_ranges[w]
    ranges = {**relaid.vertex_row_ranges, w: (lo, hi + data.draw(st.sampled_from([-1, 1])))}
    broken = TrajectoryData(relaid.z, relaid.gamma, relaid.y, ranges)
    fresh = NetworkTopology(t.state_vertices, t.input_vertices, t.edges, t.dims)
    outcome = _solve_or_message(t, broken)
    assert outcome == _solve_or_message(fresh, broken)
    if w in t.state_vertices:
        assert isinstance(outcome, str)
    assert _solve_or_message(t, traj) == first.coeffs.tolist()


def test_exact_solve_builds_no_conditioning_record_until_one_is_read(monkeypatch):
    system = generate_system(GeneratorConfig(ErdosRenyi(2000, 2.5 / 2000)), derive_rng(1, 0))
    t = system.topology
    traj = _trajectory(system, 20, 1)
    built = []
    real_init = ConditioningRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ConditioningRecord, "__init__", counting_init)
    model = network_dmdc_exact(t, traj)
    _identify("network_dmdc", system, traj, EXACT_RULE, False)
    assert built == []
    records = model.per_node_conditioning
    assert len(built) == len(records) == len(t.state_vertices)
    assert model.per_node_conditioning is records
    with pytest.raises(TypeError):
        records["v0"] = records["v1"]


@pytest.mark.parametrize("identify", [network_dmdc_exact, network_dmdc_reduced])
def test_model_json_writes_conditioning_from_the_arrays(monkeypatch, identify):
    system = _star(4)
    traj = _trajectory(system, 5, 11)
    z = traj.z.copy()
    z[1, 0] = np.nan  # v1 fails
    z[3] = 0.0  # v3's data have a zero row, so its record warns
    model = identify(system.topology, TrajectoryData(z, traj.gamma, traj.y, traj.vertex_row_ranges))
    built = []
    real_init = ConditioningRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ConditioningRecord, "__init__", counting_init)
    doc = network_model_to_dict(model)
    assert built == []
    records = {v: conditioning_to_dict(rec) for v, rec in model.per_node_conditioning.items()}
    assert list(records) == ["v0", "v2", "v3", "v4"] and records["v3"]["warning"]
    assert json.dumps(doc) == json.dumps({**doc, "per_node_conditioning": records})


def test_fresh_topologies_in_a_row_match_the_per_node_reference():
    # each topology is dropped before the next is built, so a later one can
    # reuse the memory (and ids) of an earlier one's derived index arrays
    for i in range(50):
        n = 3 + i % 6
        family = Circular(n, 2) if i % 2 else ErdosRenyi(n, 0.4)
        system = generate_system(GeneratorConfig(family, seed=i), derive_rng(7, i))
        t = system.topology
        traj = _trajectory(system, max_local_dim(t) + 2, i)
        model = network_dmdc_exact(t, traj)
        a, b = reference_network_dmdc_exact(t, traj)
        assert _close(model.assembled_a, a), i
        assert _close(model.assembled_b, b), i
        assert model.node_failures == {}
        del system, t, traj, model
        gc.collect()


EXACT_RULES = st.sampled_from(
    [EXACT_RULE, RelativeThreshold(1e-3), RelativeThreshold(0.5), MachineDefault(), FixedRank(1), FixedRank(2), FixedRank(5)]
)


def _rule_clear(sigma: np.ndarray, rule, shape) -> bool:
    """Whether rounding cannot move which of a matrix's singular values ``rule`` keeps, nor its solve much.

    Under ``FixedRank(r)`` the first r values are at least 1e-2 sigma_max and the next is at most half the
    r-th; under a relative cut the values kept are at least 1e-2 sigma_max and those dropped below 1e-2 of the cut.
    """
    top = sigma[0]
    if top == 0.0:
        return True
    rcond, rank = _rule_cut(rule, shape)
    if rank is not None:
        return bool(np.all(sigma[:rank] >= 1e-2 * top) and (sigma.size <= rank or sigma[rank] <= 0.5 * sigma[rank - 1]))
    keep = sigma >= rcond * top
    return bool(np.all(sigma[keep] >= 1e-2 * top) and np.all(sigma[~keep] < 1e-2 * rcond * top))


def _assert_cut_by(rule, omega, y, got, record):
    """One exact solve of ``y ~ got omega`` under ``rule``: the kernel's own result under the rule's cut bit for bit, the explicit
    pseudoinverse where rounding cannot move the cut, and a record of omega's sigma extremes labelled with the cut."""
    shape = omega.shape
    cut = _rule_cut(rule, shape)
    kernel, sigma_kernel = _pinv_stack(np.concatenate([omega, y])[None], shape[0], *cut)
    assert np.array_equal(got, kernel[0])
    want, want_max, want_min = reference_pinv_solve(omega[None], y[None], *cut)
    sigma = np.linalg.svd(omega, compute_uv=False)
    top = sigma[0] if sigma.size else 0.0
    assert record.rcond_used == rcond_by_definition(rule, shape)
    assert (record.sigma_max, record.sigma_min) == (sigma_kernel[0, 0], sigma_kernel[0, -1])
    assert abs(record.sigma_max - want_max[0]) <= 1e-12 * top and abs(record.sigma_min - want_min[0]) <= 1e-12 * top
    p = int(np.count_nonzero(_kept(sigma, *cut)))
    if p and _rule_clear(sigma, rule, shape):
        # y pinv_p(omega) moves by about eps |y| / sigma_p times the kept sigma ratio, and times sigma_max over
        # the gap to the first value dropped (0 when none is)
        gap = sigma[p - 1] - (sigma[p] if p < sigma.size else 0.0)
        tol = 1e3 * EPS * np.linalg.norm(y) / sigma[p - 1] * (top / sigma[p - 1] + top / gap)
        assert np.linalg.norm(got - want[0]) <= tol


@given(topologies(max_dim=3), st.integers(1, 8), st.integers(0, 2**32 - 1), EXACT_RULES, st.data())
@settings(max_examples=150, deadline=None)
def test_exact_solvers_cut_by_every_rule(t, m, seed, rule, data):
    # entries are multiples of 0.1; zeroed or repeated rows of [z; gamma], and repeated snapshots, leave the
    # nodes that read them rank deficient
    rng = np.random.default_rng(seed)
    rows = rng.integers(-40, 41, (t.total_state_dim + t.total_input_dim, m)) / 10
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(["zero row", "repeated row", "repeated snapshot"]))
        if kind == "repeated snapshot":
            rows[:, data.draw(st.integers(0, m - 1))] = rows[:, data.draw(st.integers(0, m - 1))]
        else:
            source = rows[data.draw(st.integers(0, len(rows) - 1))]
            rows[data.draw(st.integers(0, len(rows) - 1))] = 0.0 if kind == "zero row" else source
    z, gamma = rows[: t.total_state_dim], rows[t.total_state_dim :]
    y = rng.integers(-40, 41, z.shape) / 10
    whole = dmdc_exact(z, y, gamma, rule)
    _assert_cut_by(rule, rows, y, np.hstack([whole.a, whole.b]), whole.conditioning)
    traj = TrajectoryData(z, gamma, y, t.vertex_row_ranges())
    model = network_dmdc_exact(t, traj, rule)
    assert model.node_failures == {}
    for v in t.state_vertices:
        ld = build_local_data(t, traj, v)
        node = dmdc_exact(ld.z_j, ld.y_j, ld.gamma_j, rule)
        strip = _strip(model, t, v)
        # one node's row of the network model is its own exact solve, bit for bit
        assert np.array_equal(strip, np.hstack([node.a, node.b])) and model.per_node_conditioning[v] == node.conditioning
        _assert_cut_by(rule, np.vstack([ld.z_j, ld.gamma_j]), ld.y_j, strip, node.conditioning)
    if isinstance(rule, RelativeThreshold):
        # a relative threshold is the kernel's rcond, unchanged
        assert np.array_equal(whole.a, _pinv_stack(np.concatenate([rows, y])[None], len(rows), rule.tau)[0][0][:, : len(z)])


def test_records_report_the_cut_their_solve_applied():
    # two shape groups: v1 reads e1 (k = 4, d = 1) and v2 reads v1 (k = 3, d = 2), from m = 3 snapshots
    t = NetworkTopology(("v1", "v2"), ("e1",), (("e1", "v1"), ("v1", "v2")), {"v1": 1, "v2": 2, "e1": 3})
    rng = np.random.default_rng(12)
    z, y, gamma = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))
    traj = TrajectoryData(z, gamma, y, t.vertex_row_ranges())
    for rule, per_node in ((RelativeThreshold(1e-3), [1e-3, 1e-3]), (MachineDefault(), [4 * EPS, 3 * EPS]), (FixedRank(2), [0.0, 0.0])):
        for model in (network_dmdc_exact(t, traj, rule), network_dmdc_reduced(t, traj, rule, rule)):
            assert model.conditioning.rcond_used.tolist() == per_node
            assert [rec.rcond_used for rec in model.per_node_conditioning.values()] == per_node
        # whole-system records: z is 3-by-3 and [z; gamma] 6-by-3
        assert dmdc_exact(z, y, gamma, rule).conditioning.rcond_used == rcond_by_definition(rule, (6, 3))
        assert dmdc_reduced(z, y, gamma, rule, rule)[0].conditioning.rcond_used == rcond_by_definition(rule, (6, 3))
        assert dmd_reduced(z, y, rule)[0].conditioning.rcond_used == rcond_by_definition(rule, (3, 3))
    # the defaults: the exact solvers' rule, and MachineDefault for the reduced solvers
    assert network_dmdc_exact(t, traj).conditioning.rcond_used.tolist() == [1e-12, 1e-12]
    assert network_dmdc_reduced(t, traj).conditioning.rcond_used.tolist() == [4 * EPS, 3 * EPS]
    assert dmdc_exact(z, y, gamma).conditioning.rcond_used == 1e-12
    assert dmdc_reduced(z, y, gamma)[0].conditioning.rcond_used == 6 * EPS
    assert dmd_reduced(z, y)[0].conditioning.rcond_used == 3 * EPS


RULE_PAIRS = [
    (MachineDefault(), MachineDefault()),
    (FixedRank(2), FixedRank(1)),
    (RelativeThreshold(1e-3), MachineDefault()),
]


def _maybe_one_nan(traj, data):
    """The trajectory, or a copy with one entry of z, gamma or y set to NaN."""
    if not data.draw(st.booleans()):
        return traj
    arrays = {"z": traj.z.copy(), "gamma": traj.gamma.copy(), "y": traj.y.copy()}
    arr = arrays[data.draw(st.sampled_from([name for name, arr in arrays.items() if arr.size]))]
    arr[data.draw(st.integers(0, arr.shape[0] - 1)), data.draw(st.integers(0, traj.n_snapshots - 1))] = np.nan
    return TrajectoryData(arrays["z"], arrays["gamma"], arrays["y"], traj.vertex_row_ranges)


def _edge_lift(t, reference):
    """The reference's blocks lifted edge by edge, ``u_v @ block @ u_w.T`` and ``u_v @ block_b``, in gather-plan order."""
    u = reference.u_hat
    strips = []
    for group in gather_plan(t):
        for v in group.vertices:
            sub = rescan_local_subsystem(t, v)
            blocks = [u[v] @ reference.blocks_a[(v, w)] @ u[w].T for w in (v, *sub.state_parents)]
            blocks += [u[v] @ reference.blocks_b[(v, e)] for e in sub.input_parents]
            strips.append(np.hstack(blocks).ravel())
    return np.concatenate(strips)


def _assert_reduced_matches(model, want, got, ref):
    """The reduced solve against the per-node reference: failures in order, the same present and warned
    nodes, sigma extremes within 1e-12 sigma_max, and ``got`` within rounding of ``ref``.

    The solve reads each node's singular values from the R factor of its gathered data, not from an SVD
    of Omega_j, and skips the projector where the output rule keeps every dimension, so the two agree to
    rounding, scaled by the worst-conditioned node's sigma ratio.
    """
    assert list(model.node_failures.items()) == list(want.node_failures.items())
    assert list(model.per_node_conditioning) == list(want.per_node_conditioning)
    for v, rec in want.per_node_conditioning.items():
        node = model.per_node_conditioning[v]
        assert abs(node.sigma_max - rec.sigma_max) <= 1e-12 * rec.sigma_max
        assert abs(node.sigma_min - rec.sigma_min) <= 1e-12 * rec.sigma_max
        assert (node.warning, node.rcond_used) == (rec.warning, rec.rcond_used)
    ratio = min((rec.ratio for rec in want.per_node_conditioning.values()), default=1.0)
    assert np.linalg.norm(got - ref) * ratio <= 1e-10 * np.linalg.norm(ref)


@given(systems(), st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from(RULE_PAIRS), st.data())
@settings(max_examples=120, deadline=None)
def test_reduced_solve_matches_per_node_reference(system, m, seed, rules, data):
    t = system.topology
    traj = _maybe_one_nan(_trajectory(system, m, seed), data)
    model = network_dmdc_reduced(t, traj, *rules)
    want = reference_network_dmdc_reduced(t, traj, *rules)
    _assert_reduced_matches(model, want, model.coeffs, _edge_lift(t, want))


@given(systems(), st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from(RULE_PAIRS), st.data())
@settings(max_examples=120, deadline=None)
def test_lift_matches_the_dense_projector_reference(system, m, seed, rules, data):
    t = system.topology
    traj = _maybe_one_nan(_trajectory(system, m, seed), data)
    model = network_dmdc_reduced(t, traj, *rules)
    reduced = reference_network_dmdc_reduced(t, traj, *rules)
    a, b = reference_lift_reduced_network(reduced)
    _assert_reduced_matches(model, reduced, np.hstack([model.assembled_a, model.assembled_b]), np.hstack([a, b]))
    for v in reduced.node_failures:
        assert not _strip(model, t, v).any()


def test_lift_of_a_two_thousand_vertex_ring_forms_only_the_edges():
    # any n-by-n (or total_r-by-total_r) buffer takes 32 MB at this size
    system = generate_system(GeneratorConfig(Circular(2000, 2), seed=6), derive_rng(6))
    t = system.topology
    traj = _trajectory(system, 10, 6)
    tracemalloc.start()
    try:
        model = network_dmdc_reduced(t, traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.coeffs.size == t.total_state_dim + len(t.edges)
    assert model.node_failures == {}
    assert peak < 8 * 2**20


def test_reduced_solve_runs_one_batched_qr_per_shape_group(monkeypatch):
    system = generate_system(GeneratorConfig(Circular(10, 2), seed=4), derive_rng(4))
    t = system.topology
    traj = _trajectory(system, 6, 4)

    def no_eig(*args, **kwargs):
        raise AssertionError("eigendecomposition computed for modes the network model discards")

    calls = _factorization_spy(monkeypatch)
    monkeypatch.setattr(np.linalg, "eig", no_eig)
    model = network_dmdc_reduced(t, traj)
    # the exact solve's kernel: one QR of each group's gathered [Omega^T | Y^T] stack, then one
    # values-only SVD of its R factors; no SVD sees a node's own data, and scalar vertices need no projector
    want = []
    for group in gather_plan(t):
        g, d, k = group.shape
        want += [("qr", (g, 6, k + d)), ("svd", (g, k, k))]
    assert calls == want
    assert model.node_failures == {}
    assert list(model.per_node_conditioning) == list(t.state_vertices)


def test_reduced_solve_builds_no_conditioning_record(monkeypatch):
    system = generate_system(GeneratorConfig(Circular(10, 2), seed=4), derive_rng(4))
    t = system.topology
    traj = _trajectory(system, 6, 4)
    built = []
    real_init = ConditioningRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ConditioningRecord, "__init__", counting_init)
    model = network_dmdc_reduced(t, traj)
    assert built == []
    assert list(model.per_node_conditioning) == list(t.state_vertices)
    assert len(built) == 10


@pytest.mark.parametrize(
    "family, m", [(ErdosRenyi(2000, 2.5 / 2000), 20), (Circular(50, 2), 10)], ids=["erdos_renyi", "ring"]
)
def test_reduced_solve_is_the_exact_solve_where_no_cut_drops_a_value(family, m):
    system = generate_system(GeneratorConfig(family), derive_rng(1, 0))
    t = system.topology
    traj = _trajectory(system, m, 1)
    exact = network_dmdc_exact(t, traj)
    reduced = network_dmdc_reduced(t, traj)
    # scalar vertices have identity projectors, and every node keeps all its singular values under both
    # cuts, the exact solve's rcond and MachineDefault's max(k, m) eps: one kernel, the same arithmetic
    assert set(t.dims.values()) == {1}
    assert exact.conditioning.ratio.min() > max(EXACT_RULE.tau, max(max_local_dim(t), m) * np.finfo(float).eps)
    assert np.array_equal(reduced.coeffs, exact.coeffs)
    for name in ("present", "sigma_max", "sigma_min", "warning"):
        assert np.array_equal(getattr(reduced.conditioning, name), getattr(exact.conditioning, name)), name
    # each record reports the cut its solve applied: the exact rule's tau, and MachineDefault's per shape group
    want = np.empty(len(t.state_vertices))
    for group in gather_plan(t):
        want[group.vertex_index] = rcond_by_definition(MachineDefault(), (group.shape[2], m))
    assert np.all(exact.conditioning.rcond_used == 1e-12)
    assert np.array_equal(reduced.conditioning.rcond_used, want)
    assert reduced.node_failures == exact.node_failures == {}


def test_a_node_whose_output_svd_fails_fails_alone(monkeypatch):
    states = ("v0", "v1", "v2")
    edges = (("v0", "v1"), ("v1", "v2"), ("v2", "v0"), ("e0", "v0"))
    t = NetworkTopology(states, ("e0",), edges, {"v0": 2, "v1": 2, "v2": 2, "e0": 1})
    rng = np.random.default_rng(8)
    system = LinearNetworkSystem(
        t, {v: rng.uniform(-0.3, 0.3, (2, 2)) for v in states}, {(w, v): rng.uniform(-0.3, 0.3, (2, t.dims[w])) for w, v in edges}
    )
    traj = _trajectory(system, 12, 8)
    marker = 12345.678
    y = traj.y.copy()
    y[2, 5] = marker  # a row of v1's own Y, which no Omega reads
    traj = TrajectoryData(traj.z, traj.gamma, y, traj.vertex_row_ranges)
    real_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        if np.any(np.asarray(a) == marker):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    rules = (MachineDefault(), FixedRank(1))  # every projector is a rank-1 cut of the identity
    model = network_dmdc_reduced(t, traj, *rules)
    want = reference_network_dmdc_reduced(t, traj, *rules)
    assert want.node_failures == {"v1": "SVD did not converge"}
    _assert_reduced_matches(model, want, model.coeffs, _edge_lift(t, want))
    assert not _strip(model, t, "v1").any()
    assert not model.conditioning.present[1] and not model.conditioning.warning[1]


def test_all_zero_data_give_a_reduced_node_zero_blocks():
    system = _star(3)
    t = system.topology
    traj = _trajectory(system, 5, 11)
    z, y = traj.z.copy(), traj.y.copy()
    z[0] = 0.0  # v0 has no parents, so its Omega_j is all zero; the leaves read it beside their own rows
    y[2] = 0.0  # v2's Y_j is all zero; v1 and v3 share its shape group
    traj = TrajectoryData(z, traj.gamma, y, traj.vertex_row_ranges)
    model = network_dmdc_reduced(t, traj)
    want = reference_network_dmdc_reduced(t, traj)
    # an all-zero matrix keeps no singular value under any rule: no node fails, and v0 and v2 get zero blocks
    assert model.node_failures == want.node_failures == {}
    _assert_reduced_matches(model, want, model.coeffs, _edge_lift(t, want))
    assert not _strip(model, t, "v0").any() and not _strip(model, t, "v2").any()
    # on scalar vertices the reduced solve is the exact one under its input rule, bit for bit, records included
    exact = network_dmdc_exact(t, traj, MachineDefault())
    assert np.array_equal(model.coeffs, exact.coeffs)
    for name in ("present", "sigma_max", "sigma_min", "rcond_used", "warning"):
        assert np.array_equal(getattr(model.conditioning, name), getattr(exact.conditioning, name)), name
    assert model.conditioning.warning[0]  # an all-zero Omega_j always warns


def test_a_vertex_with_all_zero_y_is_read_through_the_identity():
    # a (dim 2) has a zero self block and no parents, so its Y is all zero and keeps nothing under any rule;
    # its projector is then the identity, not zero, so b, which reads a, keeps the exact solve's block on a
    t = NetworkTopology(("a", "b"), (), (("a", "b"),), {"a": 2, "b": 1})
    rng = np.random.default_rng(3)
    system = LinearNetworkSystem(t, {"a": np.zeros((2, 2)), "b": rng.uniform(-1, 1, (1, 1))}, {("a", "b"): rng.uniform(-1, 1, (1, 2))})
    traj = _trajectory(system, 6, 3)
    assert not traj.y[slice(*traj.vertex_row_ranges["a"])].any()
    model = network_dmdc_reduced(t, traj)
    exact = network_dmdc_exact(t, traj, MachineDefault())
    assert model.node_failures == {}
    assert np.array_equal(model.coeffs, exact.coeffs)
    assert model.blocks_a[("b", "a")].any()
    want = reference_network_dmdc_reduced(t, traj)
    _assert_reduced_matches(model, want, model.coeffs, _edge_lift(t, want))
