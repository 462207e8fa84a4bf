"""The paper's locality claim as tested invariants: a node's model reads only its own local data.

Network DMDc gains by "cutting out computation for relationships between
unconnected components". Here each node's matrix is factored and cut on its
own, whatever stack it is gathered into, so two systems solved as one
disjoint-union topology must give each system's blocks, records and
failures bit for bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import systems

from netdmd.netdmdc import model_error, network_dmdc_exact
from netdmd.numkernel import EXACT_RULE, FixedRank, MachineDefault
from netdmd.sysmodel import LinearNetworkSystem, TrajectoryData, simulate, true_full_matrices
from netdmd.topology import NetworkTopology, gather_plan

RULES = [EXACT_RULE, MachineDefault(), FixedRank(2)]


def _trajectory(system, m, seed, scale=1.0, nan=None):
    """A simulated trajectory of m snapshots, scaled by ``scale``; ``nan`` = (row, column) of z set to NaN."""
    t = system.topology
    rng = np.random.default_rng(seed)
    traj = simulate(system, rng.uniform(-1, 1, t.total_state_dim), rng.uniform(-1, 1, (t.total_input_dim, m)))
    z = traj.z * scale
    if nan is not None:
        z[nan[0] % z.shape[0], nan[1] % m] = np.nan
    return TrajectoryData(z, traj.gamma * scale, traj.y * scale, traj.vertex_row_ranges)


def _union(parts):
    """The disjoint union of ``(prefix, system, trajectory)`` parts, as one system and one trajectory: ids prefixed, rows stacked."""
    states, inputs, edges, dims, ranges, self_blocks, edge_blocks = [], [], [], {}, {}, {}, {}
    offsets = [0, 0]  # rows of z and of gamma taken by the parts so far
    for prefix, system, traj in parts:
        t = system.topology
        states += [prefix + v for v in t.state_vertices]
        inputs += [prefix + v for v in t.input_vertices]
        edges += [(prefix + s, prefix + d) for s, d in t.edges]
        dims.update({prefix + v: dim for v, dim in t.dims.items()})
        self_blocks.update({prefix + v: b for v, b in system.self_blocks.items()})
        edge_blocks.update({(prefix + s, prefix + d): b for (s, d), b in system.edge_blocks.items()})
        for v, (lo, hi) in traj.vertex_row_ranges.items():
            offset = offsets[v in t.input_vertices]
            ranges[prefix + v] = (lo + offset, hi + offset)
        offsets = [offsets[0] + traj.z.shape[0], offsets[1] + traj.gamma.shape[0]]
    union = NetworkTopology(tuple(states), tuple(inputs), tuple(edges), dims)
    stacked = [np.vstack([getattr(traj, name) for _, _, traj in parts]) for name in ("z", "gamma", "y")]
    return LinearNetworkSystem(union, self_blocks, edge_blocks), TrajectoryData(*stacked, ranges)


def _check_union(parts, rule):
    """Solve each part and the union of the parts under ``rule``: the union's model is the parts' models, side by side."""
    union, traj = _union(parts)
    whole = network_dmdc_exact(union.topology, traj, rule)
    squared = 0.0
    for prefix, system, part_traj in parts:
        model = network_dmdc_exact(system.topology, part_traj, rule)
        for blocks, union_blocks in ((model.blocks_a, whole.blocks_a), (model.blocks_b, whole.blocks_b)):
            for (v, w), block in blocks.items():
                assert np.array_equal(union_blocks[(prefix + v, prefix + w)], block)
        for v, record in model.per_node_conditioning.items():
            assert whole.per_node_conditioning[prefix + v] == record
        for v, message in model.node_failures.items():
            assert whole.node_failures[prefix + v] == message
        squared += model_error(model, *true_full_matrices(system)) ** 2
    assert len(whole.per_node_conditioning) + len(whole.node_failures) == len(union.topology.state_vertices)
    total = model_error(whole, *true_full_matrices(union))
    assert abs(total**2 - squared) <= 1e-12 * squared


@given(systems(), systems(), st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from(RULES), st.data())
@settings(max_examples=80, deadline=None)
def test_a_disjoint_union_solves_each_system_as_alone(first, second, m, seed, rule, data):
    # at most one NaN cell, in either system's z: the nodes that read it fail alike in the union. Each
    # system's data have their own scale, so a cut that read a stack's largest sigma would show
    nan = data.draw(st.none() | st.tuples(st.sampled_from([0, 1]), st.integers(0, 99), st.integers(0, 99)))
    parts = []
    for i, (prefix, system) in enumerate((("a", first), ("b", second))):
        cell = nan[1:] if nan is not None and nan[0] == i else None
        scale = data.draw(st.sampled_from([1.0, 1e-8, 1e-16]))
        parts.append((prefix, system, _trajectory(system, m, seed + i, scale, cell)))
    _check_union(parts, rule)


@pytest.mark.parametrize("rule", RULES, ids=["exact", "machine_default", "fixed_rank_2"])
def test_a_lone_node_solved_in_place_equals_the_same_node_in_a_stack(rule):
    # v0 is a lone node of each system, one wide 1-by-4 omega that the kernel factors in its gathered
    # data; in the union the two v0 share one stack, which np.linalg.qr factors
    lone = NetworkTopology(("v0",), (), (), {"v0": 1})
    pair = NetworkTopology(("v0", "v1"), ("e0",), (("e0", "v1"),), {"v0": 1, "v1": 1, "e0": 1})
    first = LinearNetworkSystem(lone, {"v0": [[0.7]]}, {})
    second = LinearNetworkSystem(pair, {"v0": [[-0.4]], "v1": [[0.9]]}, {("e0", "v1"): [[0.3]]})
    parts = [("a", first, _trajectory(first, 4, 1)), ("b", second, _trajectory(second, 4, 2))]
    assert [group.shape for group in gather_plan(lone)] == [(1, 1, 1)]
    assert [group.shape for group in gather_plan(pair)] == [(1, 1, 1), (1, 1, 2)]
    assert [group.shape for group in gather_plan(_union(parts)[0].topology)] == [(2, 1, 1), (1, 1, 2)]
    _check_union(parts, rule)
