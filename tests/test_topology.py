import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import topologies
from netdmd.errors import BadConfig, EmptyNetwork, UnknownVertex
from netdmd.sysmodel import Circular, GeneratorConfig, gen_circular
from netdmd.topology import (
    NetworkTopology,
    gather_plan,
    local_subsystem,
    max_local_dim,
    topology_from_dict,
    topology_to_dict,
    validate,
)


def test_two_node_topology_is_valid(two_node_topology):
    assert validate(two_node_topology) == []


def test_edge_into_input_vertex_is_flagged():
    t = NetworkTopology(("v1",), ("e1",), (("v1", "e1"),), {"v1": 1, "e1": 1})
    violations = validate(t)
    assert [(v.code, v.subject) for v in violations] == [("input_vertex_has_in_edge", "e1")]


def test_empty_graph_is_valid():
    t = NetworkTopology((), (), (), {})
    assert validate(t) == []
    with pytest.raises(EmptyNetwork):
        max_local_dim(t)


def test_assorted_violations():
    t = NetworkTopology(
        ("v1", "v1"),
        ("e1",),
        (("v1", "v1"), ("v1", "v2"), ("e1", "v1"), ("e1", "v1")),
        {"v1": 0, "e1": 1, "ghost": 2},
    )
    codes = {v.code for v in validate(t)}
    assert codes == {"duplicate_id", "bad_dim", "unknown_dim", "self_edge", "unknown_vertex", "duplicate_edge"}


@pytest.mark.parametrize(
    "t",
    [
        NetworkTopology(("v1", "v2"), (), (("v1", "v2"), ("v1", "v2")), {"v1": 1, "v2": 1}),
        NetworkTopology(("v1", "v2"), ("v1",), (("v1", "v2"),), {"v1": 1, "v2": 1}),
        NetworkTopology(("v1",), (), (("v1", "v1"),), {"v1": 1}),
        NetworkTopology(("v1",), ("e1",), (("v1", "e1"),), {"v1": 1, "e1": 1}),
        NetworkTopology(("v1",), (), (("ghost", "v1"),), {"v1": 1}),
        NetworkTopology(("v1", "v2"), (), (("v1", "v2"),), {"v1": 1}),
    ],
    ids=["duplicate_edge", "state_id_as_input", "self_edge", "edge_into_input", "unknown_source", "missing_dim"],
)
def test_gather_plan_rejects_a_malformed_topology(t):
    # every system, solver and model goes through the plan, so none is built on a graph validate flags;
    # the per-vertex lookups read the same index and fail the same way, for every vertex
    message = re.escape(f"invalid topology: {validate(t)[0].message}")
    with pytest.raises(BadConfig, match=message):
        gather_plan(t)
    with pytest.raises(BadConfig, match=message):
        max_local_dim(t)
    for v in t.state_vertices:
        with pytest.raises(BadConfig, match=message):
            local_subsystem(t, v)


class TestLocalSubsystem:
    def test_center_with_state_and_input_parent(self, two_node_topology):
        sub = local_subsystem(two_node_topology, "v1")
        assert sub.state_parents == ("v2",)
        assert sub.input_parents == ("e1",)
        assert sub.local_dim == 3

    def test_center_with_input_parent_only(self, two_node_topology):
        sub = local_subsystem(two_node_topology, "v2")
        assert sub.state_parents == ()
        assert sub.input_parents == ("e2",)
        assert sub.local_dim == 2

    def test_isolated_vertex(self):
        t = NetworkTopology(("v1",), (), (), {"v1": 4})
        sub = local_subsystem(t, "v1")
        assert sub.state_parents == () and sub.input_parents == ()
        assert sub.local_dim == 4

    def test_unknown_vertex(self, two_node_topology):
        with pytest.raises(UnknownVertex):
            local_subsystem(two_node_topology, "e1")
        with pytest.raises(UnknownVertex):
            local_subsystem(two_node_topology, "nope")


class TestMaxLocalDim:
    def test_two_node(self, two_node_topology):
        assert max_local_dim(two_node_topology) == 3

    def test_circular_fifty(self):
        system = gen_circular(GeneratorConfig(Circular(50, 2), seed=1))
        assert max_local_dim(system.topology) == 3

    def test_single_vertex(self):
        t = NetworkTopology(("v1",), (), (), {"v1": 1})
        assert max_local_dim(t) == 1


@given(topologies())
@settings(max_examples=60)
def test_parents_match_edges_exactly(t):
    assert validate(t) == []
    for v in t.state_vertices:
        sub = local_subsystem(t, v)
        got = set(sub.state_parents) | set(sub.input_parents)
        want = {src for src, dst in t.edges if dst == v}
        assert got == want
        assert set(sub.state_parents) <= set(t.state_vertices)
        assert set(sub.input_parents) <= set(t.input_vertices)


@given(topologies(), st.randoms(use_true_random=False))
@settings(max_examples=40)
def test_parent_membership_stable_under_reordering(t, rnd):
    states = list(t.state_vertices)
    inputs = list(t.input_vertices)
    rnd.shuffle(states)
    rnd.shuffle(inputs)
    permuted = NetworkTopology(tuple(states), tuple(inputs), t.edges, t.dims)
    for v in t.state_vertices:
        a = local_subsystem(t, v)
        b = local_subsystem(permuted, v)
        assert set(a.state_parents) == set(b.state_parents)
        assert set(a.input_parents) == set(b.input_parents)
        assert a.local_dim == b.local_dim


@given(topologies())
@settings(max_examples=60)
def test_json_round_trip(t):
    d = topology_to_dict(t)
    back = topology_from_dict(d)
    assert back == t
    assert topology_to_dict(back) == d
