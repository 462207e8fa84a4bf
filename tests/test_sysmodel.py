import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import reference_gen_erdos_renyi, reference_operator_values, rescan_local_subsystem, systems
from netdmd.errors import BadConfig, DimensionMismatch, Divergence, RowRangeMismatch
from netdmd.netdmdc import network_dmdc_exact
from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    TrajectoryData,
    _draw_blocks,
    derive_rng,
    gen_circular,
    gen_erdos_renyi,
    read_trajectory_csv,
    simulate,
    step,
    system_from_dict,
    system_to_dict,
    true_full_matrices,
    write_trajectory_csv,
)
from netdmd.topology import NetworkTopology, max_local_dim, validate


class TestStep:
    def test_worked_values(self, two_node_system):
        assert_allclose(step(two_node_system, (2, 5), (0.2, 0.3)), (0.1, 4.3), atol=1e-12)
        assert_allclose(step(two_node_system, (0.1, 4.3), (0.4, 0.1)), (-1.63, 3.54), atol=1e-12)

    def test_zero_maps_to_zero(self, two_node_system):
        assert_allclose(step(two_node_system, (0, 0), (0, 0)), (0, 0))

    def test_dimension_mismatch(self, two_node_system):
        with pytest.raises(DimensionMismatch):
            step(two_node_system, (1, 2, 3), (0, 0))
        with pytest.raises(DimensionMismatch):
            step(two_node_system, (1, 2), (0,))


class TestSimulate:
    def test_worked_trajectory(self, two_node_trajectory):
        assert_allclose(two_node_trajectory.z[0], [2, 0.1, -1.63], atol=1e-12)
        assert_allclose(two_node_trajectory.z[1], [5, 4.3, 3.54], atol=1e-12)
        assert_allclose(two_node_trajectory.y[0], [0.1, -1.63, -2.926], atol=1e-12)
        assert_allclose(two_node_trajectory.y[1], [4.3, 3.54, 3.132], atol=1e-12)

    def test_shift_invariant(self, two_node_trajectory):
        assert np.array_equal(two_node_trajectory.z[:, 1:], two_node_trajectory.y[:, :-1])

    def test_overflow_raises_divergence_naming_the_step(self):
        t = NetworkTopology(("v1",), (), (), {"v1": 1})
        system = LinearNetworkSystem(t, {"v1": [[1e200]]}, {})
        with pytest.raises(Divergence, match="after step 2 of 4"):
            simulate(system, (1.0,), np.zeros((0, 4)))

    @pytest.mark.parametrize(
        "x0, inputs, message",
        [
            ((1.0, 1.0), np.zeros(3), r"inputs must be 2-D \(l x m\), got shape \(3,\)"),
            ((1.0, 1.0), np.zeros((1, 3)), "inputs have 1 rows, topology needs 2"),
            ((1.0, 1.0), np.zeros((2, 0)), r"need at least one input column \(m >= 1\)"),
            ((1.0, 1.0, 1.0), np.zeros((2, 3)), "state vector has 3 entries, topology needs 2"),
        ],
        ids=["inputs_1d", "input_rows", "no_columns", "x0_size"],
    )
    def test_dimension_mismatch(self, two_node_system, x0, inputs, message):
        with pytest.raises(DimensionMismatch, match=message):
            simulate(two_node_system, x0, inputs)

    def test_single_snapshot(self, two_node_system):
        traj = simulate(two_node_system, (1.0, 1.0), np.zeros((2, 1)))
        assert traj.z.shape == (2, 1) and traj.y.shape == (2, 1)

    def test_zero_system(self, two_node_topology):
        zero = LinearNetworkSystem(
            two_node_topology,
            {"v1": [[0.0]], "v2": [[0.0]]},
            {("v2", "v1"): [[0.0]], ("e1", "v1"): [[0.0]], ("e2", "v2"): [[0.0]]},
        )
        traj = simulate(zero, (3.0, -2.0), np.zeros((2, 4)))
        assert np.all(traj.y == 0.0)

    def test_row_ranges(self, two_node_trajectory):
        assert two_node_trajectory.vertex_row_ranges == {
            "v1": (0, 1),
            "v2": (1, 2),
            "e1": (0, 1),
            "e2": (1, 2),
        }


class TestGenCircular:
    def test_six_states_period_two(self):
        system = gen_circular(GeneratorConfig(Circular(6, 2), seed=3))
        t = system.topology
        ring = [(s, d) for s, d in t.edges if s.startswith("v")]
        assert len(ring) == 6
        assert len(t.input_vertices) == 3
        assert validate(t) == []

    def test_every_vertex_has_at_most_two_parents(self):
        system = gen_circular(GeneratorConfig(Circular(9, 3), seed=0))
        t = system.topology
        for v in t.state_vertices:
            indeg = sum(1 for _, dst in t.edges if dst == v)
            assert indeg <= 2

    def test_fifty_states_max_local_dim(self):
        system = gen_circular(GeneratorConfig(Circular(50, 2), seed=5))
        assert max_local_dim(system.topology) == 3

    def test_two_states_period_three(self):
        system = gen_circular(GeneratorConfig(Circular(2, 3), seed=1))
        t = system.topology
        assert len([e for e in t.edges if e[0].startswith("v")]) == 2
        assert t.input_vertices == ("e1",)

    def test_deterministic(self):
        cfg = GeneratorConfig(Circular(8, 2), coeff_range=(-2, 2), seed=42)
        a = gen_circular(cfg)
        b = gen_circular(cfg)
        assert a.topology == b.topology
        for v in a.topology.state_vertices:
            assert a.self_blocks[v].tobytes() == b.self_blocks[v].tobytes()
        for e in a.topology.edges:
            assert a.edge_blocks[e].tobytes() == b.edge_blocks[e].tobytes()

    def test_bad_config(self):
        with pytest.raises(BadConfig):
            Circular(1, 2)
        with pytest.raises(BadConfig):
            Circular(4, 0)
        with pytest.raises(BadConfig):
            gen_circular(GeneratorConfig(ErdosRenyi(4, 0.5)))


class TestGenErdosRenyi:
    def test_p_zero(self):
        system = gen_erdos_renyi(GeneratorConfig(ErdosRenyi(5, 0.0), seed=2))
        assert system.topology.edges == ()

    def test_p_one(self):
        system = gen_erdos_renyi(GeneratorConfig(ErdosRenyi(4, 1.0), seed=2))
        assert len(system.topology.edges) == 12

    def test_edge_count_statistics(self):
        # 1000 seeds, n=50, p=0.05: per-graph count is Binomial(2450, 0.05),
        # so the sample mean lies within 3 * sqrt(2450*0.05*0.95/1000) of 122.5.
        counts = [
            len(gen_erdos_renyi(GeneratorConfig(ErdosRenyi(50, 0.05), seed=s)).topology.edges)
            for s in range(1000)
        ]
        expected = 0.05 * 50 * 49
        sigma_mean = np.sqrt(2450 * 0.05 * 0.95 / 1000)
        assert abs(np.mean(counts) - expected) <= 3 * sigma_mean

    def test_deterministic(self):
        cfg = GeneratorConfig(ErdosRenyi(20, 0.2), seed=9)
        a = gen_erdos_renyi(cfg)
        b = gen_erdos_renyi(cfg)
        assert a.topology == b.topology
        for v in a.topology.state_vertices:
            assert a.self_blocks[v].tobytes() == b.self_blocks[v].tobytes()

    @given(
        n=st.integers(1, 60),
        p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_pair_reference_bit_for_bit(self, n, p, seed):
        cfg = GeneratorConfig(ErdosRenyi(n, p), seed=seed)
        got_rng, want_rng = derive_rng(seed), derive_rng(seed)
        got = gen_erdos_renyi(cfg, got_rng)
        want = reference_gen_erdos_renyi(cfg, want_rng)
        assert got.topology == want.topology  # edges compared as an ordered tuple
        assert list(got.self_blocks) == list(want.self_blocks)
        assert all(got.self_blocks[v].tobytes() == b.tobytes() for v, b in want.self_blocks.items())
        assert list(got.edge_blocks) == list(want.edge_blocks)
        assert all(got.edge_blocks[e].tobytes() == b.tobytes() for e, b in want.edge_blocks.items())
        assert np.array_equal(got.coeffs, reference_operator_values(want))
        # the caller's generator is left at the same position
        assert got_rng.random() == want_rng.random()

    def test_two_thousand_vertices_draw_no_square_array(self):
        # an n-by-n float draw alone takes 32 MB at this size
        tracemalloc.start()
        try:
            system = gen_erdos_renyi(GeneratorConfig(ErdosRenyi(2000, 2.5 / 2000)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.topology.edges
        assert peak < 16 * 2**20

    def test_bad_family(self):
        with pytest.raises(BadConfig):
            ErdosRenyi(5, 1.5)
        with pytest.raises(BadConfig):
            gen_erdos_renyi(GeneratorConfig(Circular(4, 1)))


@given(systems(max_dim=3))
@settings(max_examples=80, deadline=None)
def test_operator_values_match_the_per_vertex_reference(system):
    assert np.array_equal(system.coeffs, reference_operator_values(system))


@given(systems(max_dim=3), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_system_stores_its_coefficients_once(system, seed):
    t = system.topology
    assert [f.name for f in dataclasses.fields(LinearNetworkSystem)] == ["topology", "coeffs"]
    assert not system.coeffs.flags.writeable
    blocks = [*system.self_blocks.values(), *system.edge_blocks.values()]
    assert sum(b.size for b in blocks) == system.coeffs.size
    for block in blocks:
        assert np.shares_memory(block, system.coeffs)
        assert not block.flags.writeable
    # vertex by vertex, state parents then input parents, whatever the topology's edge order
    order = [(v, rescan_local_subsystem(t, v)) for v in t.state_vertices]
    assert list(system.self_blocks) == list(t.state_vertices)
    assert list(system.edge_blocks) == [(w, v) for v, sub in order for w in sub.state_parents + sub.input_parents]
    # which is the order _draw_blocks draws in
    drawn = _draw_blocks(t, np.random.default_rng(seed), (-1.0, 1.0))
    rng = np.random.default_rng(seed)
    for v, sub in order:
        assert drawn.self_blocks[v].tobytes() == rng.uniform(-1.0, 1.0, (t.dims[v], t.dims[v])).tobytes()
        for w in sub.state_parents + sub.input_parents:
            assert drawn.edge_blocks[(w, v)].tobytes() == rng.uniform(-1.0, 1.0, (t.dims[v], t.dims[w])).tobytes()
    assert np.array_equal(system_from_dict(system_to_dict(system)).coeffs, system.coeffs)
    # a later write to the caller's blocks cannot reach the system
    own = {v: np.array(b) for v, b in system.self_blocks.items()}
    edges = {e: np.array(b) for e, b in system.edge_blocks.items()}
    rebuilt = LinearNetworkSystem(t, own, edges)
    for block in [*own.values(), *edges.values()]:
        block[...] = 7.0
    assert np.array_equal(rebuilt.coeffs, system.coeffs)


class TestTrueFullMatrices:
    def test_worked_example(self, two_node_system):
        a, b = true_full_matrices(two_node_system)
        assert_allclose(a, [[1.2, -0.5], [0.0, 0.8]])
        assert_allclose(b, np.eye(2))

    def test_zero_system(self, two_node_topology):
        zero = LinearNetworkSystem(
            two_node_topology,
            {"v1": [[0.0]], "v2": [[0.0]]},
            {("v2", "v1"): [[0.0]], ("e1", "v1"): [[0.0]], ("e2", "v2"): [[0.0]]},
        )
        a, b = true_full_matrices(zero)
        assert np.all(a == 0) and np.all(b == 0)

    def test_ring_without_inputs_has_six_nonzeros(self):
        t = NetworkTopology(
            ("v1", "v2", "v3"),
            (),
            (("v1", "v2"), ("v2", "v3"), ("v3", "v1")),
            {"v1": 1, "v2": 1, "v3": 1},
        )
        system = LinearNetworkSystem(
            t,
            {"v1": [[0.3]], "v2": [[0.4]], "v3": [[0.5]]},
            {("v1", "v2"): [[1.0]], ("v2", "v3"): [[2.0]], ("v3", "v1"): [[3.0]]},
        )
        a, b = true_full_matrices(system)
        assert np.count_nonzero(a) == 6
        assert b.shape == (3, 0)

    def test_consistency_with_simulate(self):
        for seed in range(5):
            system = gen_circular(GeneratorConfig(Circular(7, 2), seed=seed))
            rng = derive_rng(seed, 1)
            t = system.topology
            traj = simulate(
                system,
                rng.uniform(-1, 1, t.total_state_dim),
                rng.uniform(-1, 1, (t.total_input_dim, 6)),
            )
            a, b = true_full_matrices(system)
            assert_allclose(traj.y, a @ traj.z + b @ traj.gamma, atol=1e-12)


class TestSerialization:
    def test_system_json_round_trip(self):
        system = gen_circular(GeneratorConfig(Circular(5, 2), seed=8))
        back = system_from_dict(system_to_dict(system))
        assert back.topology == system.topology
        for v in system.topology.state_vertices:
            assert np.array_equal(back.self_blocks[v], system.self_blocks[v])
        for e in system.topology.edges:
            assert np.array_equal(back.edge_blocks[e], system.edge_blocks[e])

    def test_trajectory_csv_round_trip(self, two_node_system, two_node_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(two_node_trajectory, two_node_system.topology, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.z, two_node_trajectory.z)
        assert np.array_equal(back.gamma, two_node_trajectory.gamma)
        assert np.array_equal(back.y, two_node_trajectory.y)
        assert back.vertex_row_ranges == two_node_trajectory.vertex_row_ranges

    def test_trajectory_csv_follows_the_row_map(self, two_node_system, two_node_trajectory, tmp_path):
        # rows in the order v2, v1 and e2, e1: each vertex's own rows go under its header
        traj, t = two_node_trajectory, two_node_system.topology
        ranges = {"v1": (1, 2), "v2": (0, 1), "e1": (1, 2), "e2": (0, 1)}
        relaid = TrajectoryData(traj.z[::-1], traj.gamma[::-1], traj.y[::-1], ranges)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(relaid, t, path)
        back = read_trajectory_csv(path)
        for name in ("z", "gamma", "y"):
            assert np.array_equal(getattr(back, name), getattr(traj, name))
        assert np.array_equal(network_dmdc_exact(t, back).coeffs, network_dmdc_exact(t, traj).coeffs)
        assert_allclose(network_dmdc_exact(t, back).coeffs, two_node_system.coeffs, atol=1e-9)
        # a trailing row of z and y that no vertex maps to is not written
        pad = np.full((1, traj.n_snapshots), 7.0)
        padded = TrajectoryData(np.vstack([relaid.z, pad]), relaid.gamma, np.vstack([relaid.y, pad]), ranges)
        write_trajectory_csv(padded, t, tmp_path / "padded.csv")
        assert (tmp_path / "padded.csv").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "ranges, inputs, message",
        [
            ({"v2": (1, 3)}, (), "vertex 'v2' spans 2 trajectory rows but has dimension 1"),
            ({"e1": (2, 3)}, (), "vertex 'e1' spans rows 2 to 3 of gamma, which has 2"),
            ({}, ("e3",), "trajectory has no rows for vertex 'e3'"),
            ({"e3": (5, 6)}, ("e3",), "trajectory has no rows for vertex 'e3'"),
        ],
        ids=["mis_sized", "outside_gamma", "input_without_rows", "input_outside_gamma"],
    )
    def test_trajectory_csv_rejects_a_bad_row_map(self, two_node_system, two_node_trajectory, tmp_path, ranges, inputs, message):
        t = two_node_system.topology
        wider = NetworkTopology(t.state_vertices, t.input_vertices + inputs, t.edges, {**t.dims, **{e: 1 for e in inputs}})
        traj = two_node_trajectory
        broken = TrajectoryData(traj.z, traj.gamma, traj.y, {**traj.vertex_row_ranges, **ranges})
        with pytest.raises(RowRangeMismatch, match=re.escape(message)):
            write_trajectory_csv(broken, wider, tmp_path / "traj.csv")

    def test_trajectory_csv_autonomous_single_column(self, tmp_path):
        system = gen_erdos_renyi(GeneratorConfig(ErdosRenyi(4, 0.5), seed=3))
        traj = simulate(system, derive_rng(0).uniform(-1, 1, 4), np.zeros((0, 1)))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, system.topology, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.z, traj.z)
        assert back.gamma.shape == (0, 1)
        assert np.array_equal(back.y, traj.y)

    def test_trajectory_csv_ragged_row(self, two_node_system, two_node_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(two_node_trajectory, two_node_system.topology, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DimensionMismatch, match="row 3 has 4 fields"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "k,a:0,b:0,a:1\n1,1,2,3\ny_final,4,5,6\n",
            "k,a:0,u:a:0\n1,1,2\ny_final,3,\n",
        ],
        ids=["non_contiguous", "state_and_input"],
    )
    def test_trajectory_csv_overlapping_vertex_columns(self, text, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        with pytest.raises(RowRangeMismatch):
            read_trajectory_csv(path)

    def test_trajectory_csv_y_final_input_cells_must_be_empty(self, two_node_system, two_node_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(two_node_trajectory, two_node_system.topology, path)
        lines = path.read_text().splitlines()
        assert lines[-1].endswith(",,")  # the writer leaves them empty, and so they load
        read_trajectory_csv(path)
        path.write_text("\n".join(lines[:-1] + [lines[-1] + "zzz"]) + "\n")
        with pytest.raises(DimensionMismatch, match="^trajectory CSV y_final row has 'zzz' in input column 'u:e2:0', which must be empty$"):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "bad, want",
        [
            ({(3, "v2:0"): "zzz"}, (3, "zzz", "v2:0")),
            ({(2, "u:e1:0"): "1.0.0"}, (2, "1.0.0", "u:e1:0")),
            ({(5, "v1:0"): "zzz"}, (5, "zzz", "v1:0")),
            ({(2, "u:e2:0"): "zzz", (2, "v2:0"): ""}, (2, "", "v2:0")),  # state columns are read first
            ({(4, "v1:0"): "zzz", (3, "u:e2:0"): "x"}, (3, "x", "u:e2:0")),
        ],
        ids=["state_cell", "input_cell", "y_final_state_cell", "state_before_input", "earlier_row_first"],
    )
    def test_trajectory_csv_cell_that_is_not_a_number(self, two_node_system, two_node_trajectory, tmp_path, bad, want):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(two_node_trajectory, two_node_system.topology, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        for (number, column), text in bad.items():
            rows[number - 1][rows[0].index(column)] = text
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        number, text, column = want
        message = f"trajectory CSV row {number} has {text!r} in column {column!r}, which is not a number"
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            read_trajectory_csv(path)

    def test_trajectory_csv_empty(self, tmp_path):
        path = tmp_path / "traj.csv"
        path.write_text("")
        with pytest.raises(DimensionMismatch):
            read_trajectory_csv(path)

    def test_header_format(self, two_node_system, two_node_trajectory, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(two_node_trajectory, two_node_system.topology, path)
        header = path.read_text().splitlines()[0]
        assert header == "k,v1:0,v2:0,u:e1:0,u:e2:0"


class TestSystemValidation:
    def test_blocks_are_read_only_copies(self, two_node_topology, two_node_system):
        own = np.array([[1.2]])
        system = LinearNetworkSystem(
            two_node_topology,
            {"v1": own, "v2": [[0.8]]},
            {("v2", "v1"): [[-0.5]], ("e1", "v1"): [[1.0]], ("e2", "v2"): [[1.0]]},
        )
        own[0, 0] = 5.0
        assert np.array_equal(step(system, (2, 5), (0.2, 0.3)), step(two_node_system, (2, 5), (0.2, 0.3)))
        for block in [*system.self_blocks.values(), *system.edge_blocks.values()]:
            with pytest.raises(ValueError):
                block[0, 0] = 0.0

    def test_missing_self_block(self, two_node_topology):
        with pytest.raises(BadConfig):
            LinearNetworkSystem(two_node_topology, {"v1": [[1.0]]}, {})

    def test_wrong_block_shape(self, two_node_topology):
        with pytest.raises(DimensionMismatch):
            LinearNetworkSystem(
                two_node_topology,
                {"v1": [[1.0, 2.0]], "v2": [[1.0]]},
                {("v2", "v1"): [[0.0]], ("e1", "v1"): [[0.0]], ("e2", "v2"): [[0.0]]},
            )

    def test_block_for_non_edge(self, two_node_topology):
        with pytest.raises(BadConfig):
            LinearNetworkSystem(
                two_node_topology,
                {"v1": [[1.0]], "v2": [[1.0]]},
                {
                    ("v2", "v1"): [[0.0]],
                    ("e1", "v1"): [[0.0]],
                    ("e2", "v2"): [[0.0]],
                    ("v1", "v2"): [[0.0]],
                },
            )

    def test_wrong_keys_name_the_missing_and_extra_blocks(self, two_node_topology):
        edges = {("v2", "v1"): [[0.0]], ("e1", "v1"): [[0.0]]}
        with pytest.raises(BadConfig, match=re.escape("missing ['e2→v2', 'v2→v2'], extra ['e1→e1', 'v1→v2']")):
            LinearNetworkSystem(two_node_topology, {"v1": [[1.0]], "e1": [[1.0]]}, {**edges, ("v1", "v2"): [[0.0]]})
        # self-dependence is the self block, never an edge block
        with pytest.raises(BadConfig, match=re.escape("not an edge block, for ['v1']")):
            LinearNetworkSystem(
                two_node_topology, {"v2": [[1.0]]}, {**edges, ("e2", "v2"): [[0.0]], ("v1", "v1"): [[1.0]]}
            )

    def test_malformed_topology_is_reported_before_the_blocks(self):
        t = NetworkTopology(("v1", "v2"), (), (("v1", "v2"), ("v1", "v2")), {"v1": 1, "v2": 1})
        with pytest.raises(BadConfig, match="invalid topology: edge v1->v2 declared twice"):
            LinearNetworkSystem(t, {"v1": [[1.0]]}, {("v2", "v1"): [[0.0]]})
