"""The topology's parent index and the COO simulator against their per-vertex oracles."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_network_dmdc_exact,
    reference_simulate,
    reference_step,
    rescan_local_subsystem,
    systems,
    topologies,
)
from netdmd.errors import BadConfig, UnknownVertex
from netdmd.netdmdc import network_dmdc_exact
from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    derive_rng,
    gen_circular,
    gen_erdos_renyi,
    simulate,
    step,
    true_full_matrices,
)
from netdmd.topology import NetworkTopology, local_subsystem, max_local_dim, validate


def _lookup(fn, t, v):
    """The subsystem, or the UnknownVertex message a lookup raises."""
    try:
        return fn(t, v)
    except UnknownVertex as exc:
        return ("UnknownVertex", str(exc))


@st.composite
def topologies_with_ghost_sources(draw):
    """A valid topology plus in-edges from undeclared sources spliced into the edge list."""
    t = draw(topologies())
    edges = list(t.edges)
    for dst in draw(st.lists(st.sampled_from(t.state_vertices), max_size=3)):
        ghost = draw(st.sampled_from(("g1", "g2")))
        edges.insert(draw(st.integers(0, len(edges))), (ghost, dst))
    return NetworkTopology(t.state_vertices, t.input_vertices, tuple(edges), t.dims)


@given(topologies_with_ghost_sources())
@settings(max_examples=80)
def test_index_matches_rescan(t):
    if any(src.startswith("g") for src, _ in t.edges):
        # a ghost source makes the whole graph invalid, so every lookup fails the same way
        message = re.escape(f"invalid topology: {validate(t)[0].message}")
        for v in t.state_vertices + t.input_vertices + ("nope",):
            with pytest.raises(BadConfig, match=message):
                local_subsystem(t, v)
        with pytest.raises(BadConfig, match=message):
            max_local_dim(t)
        return
    for v in t.state_vertices + t.input_vertices + ("nope",):
        assert _lookup(local_subsystem, t, v) == _lookup(rescan_local_subsystem, t, v)
    assert max_local_dim(t) == max(rescan_local_subsystem(t, v).local_dim for v in t.state_vertices)


def test_index_is_built_once(two_node_topology):
    first = local_subsystem(two_node_topology, "v1")
    assert local_subsystem(two_node_topology, "v1") is first


@given(systems(), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_simulate_matches_reference_on_vector_vertices(system, m, seed):
    t = system.topology
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1, 1, t.total_state_dim)
    inputs = rng.uniform(-1, 1, (t.total_input_dim, m))
    got = simulate(system, x0, inputs)
    want = reference_simulate(system, x0, inputs)
    for a, b in ((got.z, want.z), (got.y, want.y)):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)
    assert np.array_equal(got.gamma, want.gamma)
    assert got.vertex_row_ranges == want.vertex_row_ranges
    one = step(system, x0, inputs[:, 0])
    ref = reference_step(system, x0, inputs[:, 0])
    assert np.linalg.norm(one - ref) <= 1e-12 * np.linalg.norm(ref)


@given(systems())
@settings(max_examples=40, deadline=None)
def test_true_full_matrices_are_reference_step_columns(system):
    n = system.topology.total_state_dim
    a, b = true_full_matrices(system)
    columns = [reference_step(system, e[:n], e[n:]) for e in np.eye(n + system.topology.total_input_dim)]
    assert np.array_equal(np.hstack([a, b]), np.column_stack(columns))


SCALAR_SYSTEMS = [
    pytest.param(lambda s: gen_circular(GeneratorConfig(Circular(50, 2), seed=s)), 12, id="ring50"),
    pytest.param(lambda s: gen_erdos_renyi(GeneratorConfig(ErdosRenyi(30, 0.1), seed=s)), 12, id="er30"),
]


@pytest.mark.parametrize("make, m", SCALAR_SYSTEMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scalar_systems_bit_identical_to_reference(make, m, seed):
    system = make(seed)
    t = system.topology
    rng = derive_rng(seed, 7)
    x0 = rng.uniform(-1, 1, t.total_state_dim)
    inputs = rng.uniform(-10, 10, (t.total_input_dim, m))
    traj = simulate(system, x0, inputs)
    want = reference_simulate(system, x0, inputs)
    assert np.array_equal(traj.z, want.z)
    assert np.array_equal(traj.y, want.y)
    model = network_dmdc_exact(t, traj)
    a, b = reference_network_dmdc_exact(t, traj)
    assert np.array_equal(model.assembled_a, a)
    assert np.array_equal(model.assembled_b, b)
