"""Both network DMDc solvers and their shared gather plan against per-node oracles."""
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_local_data,
    reference_lift_reduced_network,
    reference_network_dmdc_exact,
    reference_network_dmdc_reduced,
    rescan_local_subsystem,
    systems,
    topologies,
)
from netdmd import numkernel
from netdmd.bench import generate_system
from netdmd.dmdcore import dmdc_exact
from netdmd.errors import NetdmdError, RowRangeMismatch
from netdmd.netdmdc import network_dmdc_exact, network_dmdc_reduced, network_model_to_dict
from netdmd.numkernel import FixedRank, MachineDefault, RelativeThreshold, conditioning_record
from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    TrajectoryData,
    derive_rng,
    simulate,
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


@given(topologies())
@settings(max_examples=80, deadline=None)
def test_gather_plan_matches_rescan(t):
    n = t.total_state_dim
    pos = {v: list(range(*r)) for v, r in t.state_row_ranges().items()}
    pos.update({e: [n + p for p in range(*r)] for e, r in t.input_row_ranges().items()})
    plan = gather_plan(t)
    grouped = [v for group in plan for v in group.vertices]
    assert sorted(grouped) == sorted(t.state_vertices)
    for group in plan:
        order = [t.state_vertices.index(v) for v in group.vertices]
        assert order == sorted(order)
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


def _star(leaves=3):
    """v0 feeds every leaf; the leaves share one local shape and feed nothing."""
    states = ("v0",) + tuple(f"v{i}" for i in range(1, leaves + 1))
    t = NetworkTopology(states, (), tuple(("v0", v) for v in states[1:]), {v: 1 for v in states})
    rng = np.random.default_rng(5)
    blocks = {v: rng.uniform(-1, 1, (1, 1)) for v in states}
    return LinearNetworkSystem(t, blocks, {e: rng.uniform(-1, 1, (1, 1)) for e in t.edges})


def test_non_converging_node_fails_alone(monkeypatch):
    system = _star()
    t = system.topology
    traj = _trajectory(system, 4, 11)
    marker = 12345.678
    z = traj.z.copy()
    z[2, 0] = marker  # only v2's local data contain its own row
    traj = TrajectoryData(z, traj.gamma, traj.y, traj.vertex_row_ranges)
    real_svd = np.linalg.svd
    stacks = []

    def svd(a, *args, **kwargs):
        stacks.append(np.ndim(a))
        if np.any(np.asarray(a) == marker):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    model = network_dmdc_exact(t, traj)
    assert model.node_failures == {"v2": "SVD did not converge"}
    assert 3 in stacks
    assert not _strip(model, t, "v2").any()
    for v in ("v1", "v3"):
        ld = build_local_data(t, traj, v)
        node = dmdc_exact(ld.z_j, ld.y_j, ld.gamma_j)
        assert _close(_strip(model, t, v), np.hstack([node.a, node.b]))
        assert model.per_node_conditioning[v] == node.conditioning
    assert set(model.per_node_conditioning) == {"v0", "v1", "v3"}


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


def _reference_assembled(identify, t, traj):
    """The per-node reference's full-space (A, B) for either network solver."""
    if identify is network_dmdc_exact:
        return reference_network_dmdc_exact(t, traj)
    return reference_lift_reduced_network(reference_network_dmdc_reduced(t, traj))


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
        change = data.draw(st.sampled_from(["drop", "shorter", "longer"]))
        if change == "drop":
            del ranges[w]
        else:
            ranges[w] = (lo, hi - 1 if change == "shorter" else hi + 1)
    broken = TrajectoryData(traj.z, traj.gamma, traj.y, ranges)
    want = None
    try:
        for v in t.state_vertices:
            build_local_data(t, broken, v)
    except RowRangeMismatch as exc:
        want = str(exc)
    if want is None:
        model = identify(t, broken)
        a, b = _reference_assembled(identify, t, broken)
        assert _close(model.assembled_a, a) and _close(model.assembled_b, b)
    else:
        with pytest.raises(RowRangeMismatch) as raised:
            identify(t, broken)
        assert str(raised.value) == want


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


@given(systems(), st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from(RULE_PAIRS), st.data())
@settings(max_examples=120, deadline=None)
def test_reduced_solve_matches_per_node_reference(system, m, seed, rules, data):
    t = system.topology
    traj = _maybe_one_nan(_trajectory(system, m, seed), data)
    model = network_dmdc_reduced(t, traj, *rules)
    want = reference_network_dmdc_reduced(t, traj, *rules)
    # the same per-node arithmetic and the same lift products on the same values: bit-identical, not just close
    assert np.array_equal(model.coeffs, _edge_lift(t, want))
    assert list(model.node_failures.items()) == list(want.node_failures.items())
    assert list(model.per_node_conditioning) == list(want.per_node_conditioning)
    for v, ref in want.per_node_conditioning.items():
        got = model.per_node_conditioning[v]
        # the record is read from the solve's SVD of Omega_j, the reference's from an SVD without vectors
        assert abs(got.sigma_max - ref.sigma_max) <= 1e-12 * ref.sigma_max
        assert abs(got.sigma_min - ref.sigma_min) <= 1e-12 * ref.sigma_max
        assert (got.warning, got.rcond_used) == (ref.warning, ref.rcond_used)


@given(systems(), st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from(RULE_PAIRS), st.data())
@settings(max_examples=120, deadline=None)
def test_lift_matches_the_dense_projector_reference(system, m, seed, rules, data):
    t = system.topology
    traj = _maybe_one_nan(_trajectory(system, m, seed), data)
    model = network_dmdc_reduced(t, traj, *rules)
    reduced = reference_network_dmdc_reduced(t, traj, *rules)
    a, b = reference_lift_reduced_network(reduced)
    if all(u.shape == (1, 1) for u in reduced.u_hat.values()):
        # every product is a sign flip: the same values whatever the summation order
        assert np.array_equal(model.assembled_a, a) and np.array_equal(model.assembled_b, b)
    else:
        assert _close(model.assembled_a, a, 1e-14) and _close(model.assembled_b, b, 1e-14)
    for v in reduced.node_failures:
        assert not _strip(model, t, v).any()
    assert list(model.node_failures.items()) == list(reduced.node_failures.items())


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


def test_reduced_solve_runs_two_svds_per_node_and_no_per_node_gather(monkeypatch):
    system = generate_system(GeneratorConfig(Circular(10, 2), seed=4), derive_rng(4))
    t = system.topology
    traj = _trajectory(system, 6, 4)
    real_svd = np.linalg.svd
    calls = []

    def svd(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real_svd(*args, **kwargs)

    def no_eig(*args, **kwargs):
        raise AssertionError("eigendecomposition computed for modes the network model discards")

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(np.linalg, "eig", no_eig)
    model = network_dmdc_reduced(t, traj)
    assert len(calls) == 20
    assert model.node_failures == {}
    assert list(model.per_node_conditioning) == list(t.state_vertices)


def test_reduced_solve_builds_one_conditioning_record_per_node(monkeypatch):
    system = generate_system(GeneratorConfig(Circular(10, 2), seed=4), derive_rng(4))
    t = system.topology
    traj = _trajectory(system, 6, 4)
    real_records = numkernel._records
    calls = []

    def records(*args, **kwargs):
        calls.append(args)
        return real_records(*args, **kwargs)

    monkeypatch.setattr(numkernel, "_records", records)
    model = network_dmdc_reduced(t, traj)
    assert len(calls) == 10
    assert list(model.per_node_conditioning) == list(t.state_vertices)
