import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import build_local_data, conditioning_record, random_small_system

from netdmd.errors import RowRangeMismatch, UnknownVertex
from netdmd.numkernel import FixedRank
from netdmd.dmdcore import dmdc_exact
from netdmd.netdmdc import (
    model_error,
    network_dmdc_exact,
    network_dmdc_reduced,
    network_model_from_dict,
    network_model_to_dict,
)
from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    TrajectoryData,
    derive_rng,
    gen_circular,
    gen_erdos_renyi,
    simulate,
    true_full_matrices,
)
from netdmd.topology import NetworkTopology, max_local_dim


class TestBuildLocalData:
    def test_center_with_two_parents(self, two_node_topology, two_node_trajectory):
        ld = build_local_data(two_node_topology, two_node_trajectory, "v1")
        assert_allclose(ld.z_j, [[2, 0.1, -1.63]], atol=1e-12)
        assert_allclose(ld.y_j, [[0.1, -1.63, -2.926]], atol=1e-12)
        assert_allclose(ld.gamma_j, [[5, 4.3, 3.54], [0.2, 0.4, 0.8]], atol=1e-12)
        assert ld.parent_row_ranges == {"v2": (0, 1), "e1": (1, 2)}

    def test_center_with_input_parent(self, two_node_topology, two_node_trajectory):
        ld = build_local_data(two_node_topology, two_node_trajectory, "v2")
        assert_allclose(ld.z_j, [[5, 4.3, 3.54]], atol=1e-12)
        assert_allclose(ld.y_j, [[4.3, 3.54, 3.132]], atol=1e-12)
        assert_allclose(ld.gamma_j, [[0.3, 0.1, 0.3]])

    def test_isolated_vertex_has_empty_gamma(self):
        t = NetworkTopology(("v1",), (), (), {"v1": 1})
        system = LinearNetworkSystem(t, {"v1": [[0.5]]}, {})
        traj = simulate(system, [1.0], np.zeros((0, 3)))
        ld = build_local_data(t, traj, "v1")
        assert ld.gamma_j.shape == (0, 3)
        assert ld.parent_row_ranges == {}

    def test_unknown_vertex(self, two_node_topology, two_node_trajectory):
        with pytest.raises(UnknownVertex):
            build_local_data(two_node_topology, two_node_trajectory, "vX")

    def test_row_range_mismatch(self, two_node_topology, two_node_trajectory):
        broken = type(two_node_trajectory)(
            z=two_node_trajectory.z,
            gamma=two_node_trajectory.gamma,
            y=two_node_trajectory.y,
            vertex_row_ranges={"v1": (0, 1)},
        )
        with pytest.raises(RowRangeMismatch):
            build_local_data(two_node_topology, broken, "v1")


class TestNetworkDmdcExact:
    def test_worked_example_recovery(self, two_node_topology, two_node_trajectory):
        model = network_dmdc_exact(two_node_topology, two_node_trajectory)
        assert_allclose(model.assembled_a, [[1.2, -0.5], [0.0, 0.8]], atol=1e-9)
        assert_allclose(model.assembled_b, np.eye(2), atol=1e-9)
        assert model.node_failures == {}

    def test_zero_trajectory_gives_zero_blocks(self, two_node_system):
        traj = simulate(two_node_system, (0.0, 0.0), np.zeros((2, 3)))
        model = network_dmdc_exact(two_node_system.topology, traj)
        assert np.all(model.assembled_a == 0.0)
        assert np.all(model.assembled_b == 0.0)

    def test_circular_fifty_recovers_at_m_three(self):
        system = gen_circular(GeneratorConfig(Circular(50, 2), input_range=(-10, 10), seed=123))
        rng = derive_rng(123, 1)
        t = system.topology
        traj = simulate(system, rng.uniform(-1, 1, 50), rng.uniform(-10, 10, (25, 3)))
        model = network_dmdc_exact(t, traj)
        truth_a, truth_b = true_full_matrices(system)
        assert model_error(model, truth_a, truth_b) < 1e-6

    def test_structural_zeros_are_exact(self):
        system = gen_erdos_renyi(GeneratorConfig(ErdosRenyi(12, 0.2), seed=7))
        t = system.topology
        rng = derive_rng(7, 1)
        traj = simulate(system, rng.uniform(-1, 1, 12), np.zeros((0, 15)))
        model = network_dmdc_exact(t, traj)
        srows = t.state_row_ranges()
        edge_set = set(t.edges)
        for vi in t.state_vertices:
            for vj in t.state_vertices:
                if vi != vj and (vi, vj) not in edge_set:
                    rlo, rhi = srows[vj]
                    clo, chi = srows[vi]
                    assert np.all(model.assembled_a[rlo:rhi, clo:chi] == 0.0)

    def test_matches_standard_dmdc_on_complete_graph(self):
        # every state feeds every other and each input feeds every state, so
        # each local regression sees the full stacked row space
        states = ("v1", "v2", "v3")
        inputs = ("e1", "e2")
        edges = [(a, b) for a in states for b in states if a != b]
        edges += [(e, v) for e in inputs for v in states]
        dims = {v: 1 for v in states + inputs}
        t = NetworkTopology(states, inputs, tuple(edges), dims)
        rng = derive_rng(1234)
        system = LinearNetworkSystem(
            t,
            {v: rng.uniform(-1, 1, (1, 1)) for v in states},
            {e: rng.uniform(-1, 1, (1, 1)) for e in edges},
        )
        traj = simulate(system, rng.uniform(-1, 1, 3), rng.uniform(-1, 1, (2, 12)))
        net = network_dmdc_exact(t, traj)
        std = dmdc_exact(traj.z, traj.y, traj.gamma)
        assert np.linalg.norm(net.assembled_a - std.a) <= 1e-8
        assert np.linalg.norm(net.assembled_b - std.b) <= 1e-8

    def test_sufficiency_bound_over_twenty_seeds(self):
        failures = 0
        for seed in range(20):
            rng = derive_rng(9000, seed)
            system = random_small_system(rng, max_states=5, max_inputs=2)
            t = system.topology
            m = max_local_dim(t)
            traj = simulate(
                system,
                rng.uniform(-1, 1, t.total_state_dim),
                rng.uniform(-1, 1, (t.total_input_dim, m)),
            )
            model = network_dmdc_exact(t, traj)
            truth_a, truth_b = true_full_matrices(system)
            if model_error(model, truth_a, truth_b) >= 1e-6:
                failures += 1
        assert failures == 0


class TestNetworkDmdcReduced:
    def test_full_rank_lift_matches_exact(self, two_node_topology, two_node_trajectory):
        exact = network_dmdc_exact(two_node_topology, two_node_trajectory)
        lifted = network_dmdc_reduced(two_node_topology, two_node_trajectory, FixedRank(3), FixedRank(1))
        assert np.linalg.norm(lifted.assembled_a - exact.assembled_a) <= 1e-8
        assert np.linalg.norm(lifted.assembled_b - exact.assembled_b) <= 1e-8

    def test_scalar_chain_coefficients_up_to_sign(self):
        t = NetworkTopology(("v1", "v2"), (), (("v1", "v2"),), {"v1": 1, "v2": 1})
        system = LinearNetworkSystem(
            t, {"v1": [[0.6]], "v2": [[-0.4]]}, {("v1", "v2"): [[0.9]]}
        )
        traj = simulate(system, (1.3, -0.7), np.zeros((0, 2)))
        model = network_dmdc_reduced(t, traj, FixedRank(2), FixedRank(1))
        # the +-1 projectors' signs cancel in the full-space blocks, the cross block's included
        assert model.blocks_a[("v1", "v1")][0, 0] == pytest.approx(0.6, abs=1e-9)
        assert model.blocks_a[("v2", "v2")][0, 0] == pytest.approx(-0.4, abs=1e-9)
        assert model.blocks_a[("v2", "v1")][0, 0] == pytest.approx(0.9, abs=1e-9)


@pytest.mark.parametrize("identify", [network_dmdc_exact, network_dmdc_reduced])
def test_failed_node_keeps_zero_blocks_for_every_parent(identify, two_node_topology, two_node_trajectory):
    traj = two_node_trajectory
    gamma = traj.gamma.copy()
    gamma[0, 1] = np.nan  # input e1 feeds only v1
    bad = TrajectoryData(traj.z, gamma, traj.y, traj.vertex_row_ranges)
    model = identify(two_node_topology, bad)
    assert set(model.node_failures) == {"v1"}
    assert set(model.blocks_a) == {("v1", "v1"), ("v1", "v2"), ("v2", "v2")}
    assert set(model.blocks_b) == {("v1", "e1"), ("v2", "e2")}
    for key in (("v1", "v1"), ("v1", "v2")):
        assert model.blocks_a[key].shape == (1, 1) and not model.blocks_a[key].any()
    assert not model.blocks_b[("v1", "e1")].any()
    assert model.blocks_b[("v2", "e2")].any()


class TestModelError:
    def test_zero_for_equal(self, two_node_topology, two_node_trajectory, two_node_system):
        model = network_dmdc_exact(two_node_topology, two_node_trajectory)
        truth_a, truth_b = true_full_matrices(two_node_system)
        assert model_error(model, truth_a, truth_b) < 1e-9

    def test_three_four_five(self):
        from netdmd.dmdcore import ExactLinearModel

        truth_a = np.zeros((2, 2))
        truth_b = np.eye(2)
        model = ExactLinearModel(
            a=np.array([[0.3, 0.4], [0.0, 0.0]]),
            b=np.eye(2),
            conditioning=conditioning_record(np.eye(2)),
        )
        assert model_error(model, truth_a, truth_b) == pytest.approx(0.5)

    def test_input_part_skipped_when_both_absent(self):
        from netdmd.dmdcore import ExactLinearModel

        model = ExactLinearModel(np.eye(2), None, conditioning_record(np.eye(2)))
        assert model_error(model, np.zeros((2, 2))) == pytest.approx(np.sqrt(2.0))

    def test_one_sided_input_operator_rejected(self):
        from netdmd.errors import DimensionMismatch
        from netdmd.dmdcore import ExactLinearModel

        model = ExactLinearModel(np.eye(2), None, conditioning_record(np.eye(2)))
        with pytest.raises(DimensionMismatch):
            model_error(model, np.eye(2), np.ones((2, 1)))


def test_network_model_json_round_trip(two_node_topology, two_node_trajectory):
    model = network_dmdc_exact(two_node_topology, two_node_trajectory)
    doc = network_model_to_dict(model)
    back = network_model_from_dict(doc)
    assert back.topology == model.topology
    assert np.array_equal(back.assembled_a, model.assembled_a)
    assert np.array_equal(back.assembled_b, model.assembled_b)
    assert set(back.blocks_a) == set(model.blocks_a)
    for key in model.blocks_a:
        assert np.array_equal(back.blocks_a[key], model.blocks_a[key])
    assert back.per_node_conditioning == model.per_node_conditioning
    assert back.node_failures == model.node_failures
