import json
import math
import pathlib
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MARKER,
    conditioning_record,
    factorizations_failing_on_marker,
    reference_lift_reduced_network,
    reference_network_dmdc_reduced,
    rescan_local_subsystem,
    systems,
    topologies,
)
from netdmd import numkernel
from netdmd.errors import BadConfig
from netdmd.bench import (
    CSV_COLUMNS,
    SweepConfig,
    SweepResult,
    export_result,
    generate_system,
    load_result_csv,
    load_result_json,
    mean_errors,
    run_sweep,
    run_trial,
    sweep_config_from_dict,
    sweep_config_to_dict,
    truncation_to_dict,
    _default_rule,
    _identify,
)
from netdmd.netdmdc import model_error, network_dmdc_exact
from netdmd.numkernel import EXACT_RULE, FixedRank, MachineDefault, RelativeThreshold
from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    TrajectoryData,
    derive_rng,
    gen_circular,
    read_trajectory_csv,
    simulate,
    true_full_matrices,
    write_trajectory_csv,
)
from netdmd.topology import NetworkTopology


class TestRunTrial:
    def test_worked_example_contrast(self, two_node_system):
        rows = run_trial(
            two_node_system,
            3,
            ("dmdc", "network_dmdc"),
            derive_rng(0),
            input_range=(-1.0, 1.0),
        )
        by_alg = {r.algorithm: r for r in rows}
        assert by_alg["network_dmdc"].frobenius_error < 1e-9
        assert by_alg["dmdc"].frobenius_error > 1e-3

    def test_full_row_rank_recovers_for_both(self, two_node_system):
        rows = run_trial(two_node_system, 20, ("dmdc", "network_dmdc"), derive_rng(1))
        assert all(r.frobenius_error < 1e-6 for r in rows)

    def test_autonomous_scalars_recovered_at_m_one(self):
        t = NetworkTopology(("v1", "v2"), (), (), {"v1": 1, "v2": 1})
        system = LinearNetworkSystem(t, {"v1": [[0.3]], "v2": [[-0.8]]}, {})
        rows = run_trial(system, 1, ("network_dmdc",), derive_rng(2))
        assert rows[0].frobenius_error < 1e-12

    @given(systems(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_network_row_on_vector_vertices_scores_the_exact_solve(self, system, m, seed):
        (row,) = run_trial(system, m, ("network_dmdc",), np.random.default_rng(seed))
        t = system.topology
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-1, 1, t.total_state_dim)
        inputs = rng.uniform(-1, 1, (t.total_input_dim, m))
        # blocks in [-1, 1] on at most 15 dims cannot overflow in 8 steps, so the simulation is finite
        traj = simulate(system, x0, inputs)
        want = model_error(network_dmdc_exact(t, traj), *true_full_matrices(system))
        assert "failed" not in row.warnings
        assert row.frobenius_error == want

    def test_trial_tag_and_warnings_fields(self, two_node_system):
        rows = run_trial(two_node_system, 3, ("dmd",), derive_rng(3), trial=7)
        assert rows[0].trial == 7
        assert "dmd_ignores_inputs" in rows[0].warnings

    def test_bad_m(self, two_node_system):
        with pytest.raises(BadConfig):
            run_trial(two_node_system, 0, ("dmdc",), derive_rng(0))

    def test_trajectories_are_read_only(self, two_node_system, tmp_path):
        # every algorithm of a trial reads the same arrays, so none may write them
        traj = simulate(two_node_system, (1.0, 2.0), np.ones((2, 3)))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, two_node_system.topology, path)
        for loaded in (traj, read_trajectory_csv(path)):
            for arr in (loaded.z, loaded.gamma, loaded.y):
                with pytest.raises(ValueError):
                    arr[0, 0] = 0.0
                with pytest.raises(ValueError):
                    arr += 1.0

    def test_reduced_variants_run(self, two_node_system):
        rows = run_trial(
            two_node_system,
            10,
            ("dmd", "dmdc", "network_dmdc"),
            derive_rng(5),
            use_reduced=True,
        )
        assert len(rows) == 3
        by_alg = {r.algorithm: r for r in rows}
        # full-rank data: reduced dmdc and network dmdc still recover
        assert by_alg["dmdc"].frobenius_error < 1e-6
        assert by_alg["network_dmdc"].frobenius_error < 1e-6

    def test_reduced_network_row_scores_the_lifted_model(self):
        # vertex dims 2 and 3 under rank-1 truncation: the lift is lossy and its projectors are not signs
        t = NetworkTopology(
            ("v1", "v2", "v3"),
            ("e1",),
            (("v1", "v2"), ("v3", "v2"), ("v2", "v3"), ("e1", "v1"), ("e1", "v3")),
            {"v1": 2, "v2": 3, "v3": 1, "e1": 2},
        )
        rng = np.random.default_rng(8)
        system = LinearNetworkSystem(
            t,
            {v: rng.uniform(-0.4, 0.4, (t.dims[v], t.dims[v])) for v in t.state_vertices},
            {(s, d): rng.uniform(-0.4, 0.4, (t.dims[d], t.dims[s])) for s, d in t.edges},
        )
        (row,) = run_trial(system, 9, ("network_dmdc",), derive_rng(6), truncation=FixedRank(1), use_reduced=True)
        rng = derive_rng(6)
        x0 = rng.uniform(-1.0, 1.0, size=t.total_state_dim)
        traj = simulate(system, x0, rng.uniform(-1.0, 1.0, size=(t.total_input_dim, 9)))
        reduced = reference_network_dmdc_reduced(t, traj, FixedRank(1), FixedRank(1))
        a, b = reference_lift_reduced_network(reduced)
        truth_a, truth_b = true_full_matrices(system)
        want = np.linalg.norm(np.hstack([a - truth_a, b - truth_b]))
        assert reduced.node_failures == {} and want > 1e-3
        assert abs(row.frobenius_error - want) <= 1e-13 * want

    @pytest.mark.parametrize("algorithm, svds", [("dmdc", 2), ("dmd", 1)])
    def test_reduced_rows_read_the_record_of_their_own_svd(self, two_node_system, monkeypatch, algorithm, svds):
        t = two_node_system.topology
        rng = derive_rng(5)
        x0 = rng.uniform(-1.0, 1.0, size=t.total_state_dim)
        traj = simulate(two_node_system, x0, rng.uniform(-1.0, 1.0, size=(t.total_input_dim, 10)))
        data = np.vstack([traj.z, traj.gamma]) if algorithm == "dmdc" else traj.z
        want = conditioning_record(data).ratio
        real_svd, real_qr, real_qr_in_place = np.linalg.svd, np.linalg.qr, numkernel._qr_in_place
        calls = []

        def svd(a, *args, compute_uv=True, **kwargs):
            calls.append(("svd", np.shape(a), compute_uv))
            return real_svd(a, *args, compute_uv=compute_uv, **kwargs)

        def qr(a, mode="reduced"):
            calls.append(("qr", np.shape(a), mode))
            return real_qr(a, mode=mode)

        def qr_in_place(a):
            calls.append(("qr", np.shape(a), "in place"))
            return real_qr_in_place(a)

        monkeypatch.setattr(np.linalg, "svd", svd)
        monkeypatch.setattr(np.linalg, "qr", qr)
        monkeypatch.setattr(numkernel, "_qr_in_place", qr_in_place)
        (row,) = run_trial(two_node_system, 10, (algorithm,), derive_rng(5), use_reduced=True)
        (k, m), n = data.shape, traj.z.shape[0]
        if algorithm == "dmdc":
            # the exact solve's QR of its lone [omega^T | y^T] in place, the values of its k-by-k R, then y's projector
            assert calls == [("qr", (1, m, k + n), "in place"), ("svd", (1, k, k), False), ("svd", (n, m), True)]
        else:
            assert calls == [("svd", data.shape, True)]  # one SVD of z
        assert sum(call[0] == "svd" for call in calls) == svds
        assert abs(row.cond_ratio - want) <= 1e-12


#: State-vertex ids, assigned in a drawn order, whose string order ("V3" < "a9" < "b" < "v1" < "v10" <
#: "v11" < "v2" < "v9") is not their declaration order.
RELABELS = ("v10", "v2", "v1", "v11", "b", "a9", "V3", "v9")

@given(topologies(), st.integers(1, 8), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_network_row_ratio_and_tags_match_the_records(topology, m, use_reduced, data):
    names = dict(zip(topology.state_vertices, data.draw(st.permutations(RELABELS))))
    t = NetworkTopology(
        tuple(names[v] for v in topology.state_vertices),
        topology.input_vertices,
        tuple((names.get(s, s), names[d]) for s, d in topology.edges),
        {names.get(v, v): dim for v, dim in topology.dims.items()},
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    z, y = rng.standard_normal((2, t.total_state_dim, m))
    gamma = rng.standard_normal((t.total_input_dim, m))
    data_rows = np.vstack([z, gamma])
    for _ in range(data.draw(st.integers(0, 2))):
        # a near-zero row or snapshot leaves the nodes that read it ill conditioned
        if data.draw(st.booleans()):
            data_rows[data.draw(st.integers(0, data_rows.shape[0] - 1))] *= 1e-13
        else:
            data_rows[:, data.draw(st.integers(0, m - 1))] *= 1e-13
    z, gamma = data_rows[: t.total_state_dim], data_rows[t.total_state_dim :]
    for value in data.draw(st.lists(st.sampled_from([np.nan, MARKER]), max_size=2)):
        z[data.draw(st.integers(0, z.shape[0] - 1)), data.draw(st.integers(0, m - 1))] = value
    traj = TrajectoryData(z, gamma, y, t.vertex_row_ranges())
    with factorizations_failing_on_marker():
        model, ratio, warnings = _identify("network_dmdc", SimpleNamespace(topology=t), traj, _default_rule(use_reduced), use_reduced)
    records = model.per_node_conditioning
    want = [f"ill_conditioned:{v}" for v, rec in sorted(records.items()) if rec.warning]
    want += [f"underdetermined:{v}" for v in t.state_vertices if rescan_local_subsystem(t, v).local_dim > m]
    want += [f"failed:{v}" for v in sorted(model.node_failures)]
    assert warnings == want
    want_ratio = min((rec.ratio for rec in records.values()), default=math.nan)
    assert ratio == want_ratio or (math.isnan(ratio) and math.isnan(want_ratio))


@pytest.mark.parametrize("use_reduced", [False, True], ids=["exact", "reduced"])
@pytest.mark.parametrize("marked, readers", [("v1", ["v1", "v2"]), ("v3", ["v2", "v3"])])
def test_a_marker_fails_exactly_the_nodes_that_read_it(use_reduced, marked, readers):
    # local dims 4 (v1), 6 (v2) and 6 (v3) from 5 snapshots: v1's QR factors [omega^T | y^T], v2's and v3's omega
    t = NetworkTopology(
        ("v1", "v2", "v3"),
        ("e1",),
        (("v1", "v2"), ("v3", "v2"), ("v2", "v3"), ("e1", "v1"), ("e1", "v3")),
        {"v1": 2, "v2": 3, "v3": 1, "e1": 2},
    )
    rng = np.random.default_rng(4)
    z, y = rng.standard_normal((2, t.total_state_dim, 5))
    ranges = t.vertex_row_ranges()
    z[ranges[marked][0], 2] = MARKER
    traj = TrajectoryData(z, rng.standard_normal((t.total_input_dim, 5)), y, ranges)
    with factorizations_failing_on_marker():
        model, _, warnings = _identify("network_dmdc", SimpleNamespace(topology=t), traj, _default_rule(use_reduced), use_reduced)
    assert sorted(model.node_failures) == readers
    assert set(model.node_failures.values()) == {"qr did not converge"}
    assert warnings[-2:] == [f"failed:{v}" for v in readers]
    # a failed node contributes zero blocks, and the node that does not read the marker is solved
    for (v, _), block in chain(model.blocks_a.items(), model.blocks_b.items()):
        assert block.any() != (v in readers)


class TestFailedCells:
    def test_divergent_simulation_gives_one_failed_row_per_algorithm(self):
        t = NetworkTopology(("v1",), (), (), {"v1": 1})
        system = LinearNetworkSystem(t, {"v1": [[1e200]]}, {})
        rows = run_trial(system, 3, ("dmd", "dmdc", "network_dmdc"), derive_rng(0), trial=4)
        assert [r.algorithm for r in rows] == ["dmd", "dmdc", "network_dmdc"]
        for row in rows:
            assert (row.trial, row.m) == (4, 3)
            assert math.isnan(row.frobenius_error) and math.isnan(row.cond_ratio)
            assert row.warnings == "failed;error:Divergence"

    def test_solver_failures_report_nan_errors(self, two_node_system, monkeypatch):
        def svd(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        by_alg = {r.algorithm: r for r in run_trial(two_node_system, 5, ("dmdc", "network_dmdc"), derive_rng(1))}
        assert math.isnan(by_alg["dmdc"].frobenius_error)
        assert by_alg["dmdc"].warnings == "failed;error:ConvergenceFailure"
        # every node failed, so the zeroed blocks are not scored
        net = by_alg["network_dmdc"]
        assert math.isnan(net.frobenius_error)
        # and no node has a record, so no sigma ratio is invented for the row
        assert math.isnan(net.cond_ratio)
        assert net.warnings.split(";") == ["failed:v1", "failed:v2"]

    def test_mean_errors_skip_non_finite_rows(self):
        from netdmd.bench import SweepRow

        rows = [
            SweepRow(0, 3, "dmdc", 1.0, 0.1, 0.0, ""),
            SweepRow(1, 3, "dmdc", math.nan, math.nan, 0.0, "failed;error:Divergence"),
            SweepRow(2, 3, "dmdc", 3.0, 0.1, 0.0, ""),
            SweepRow(0, 3, "network_dmdc", math.nan, 0.1, 0.0, "failed:v1"),
        ]
        means = mean_errors(rows)
        assert means[(3, "dmdc")] == 2.0
        assert math.isnan(means[(3, "network_dmdc")])

    def test_divergent_cell_does_not_abort_the_sweep(self):
        # this ER graph overflows at step 874 of 2000
        cfg = SweepConfig(
            generator=GeneratorConfig(ErdosRenyi(30, 0.5)),
            trials=1,
            m_values=(5, 2000),
            master_seed=1,
        )
        result = run_sweep(cfg)
        assert len(result.rows) == 4
        failed = [r for r in result.rows if r.m == 2000]
        assert all(r.warnings == "failed;error:Divergence" for r in failed)
        assert all(math.isfinite(r.frobenius_error) for r in result.rows if r.m == 5)
        assert math.isnan(result.means[(2000, "dmdc")])
        assert math.isfinite(result.means[(5, "network_dmdc")])


    def test_json_export_is_strict_and_counts_excluded_rows(self, tmp_path):
        cfg = SweepConfig(
            generator=GeneratorConfig(ErdosRenyi(30, 0.5)),
            trials=1,
            m_values=(5, 2000),
            master_seed=1,
        )
        result = run_sweep(cfg)
        path = tmp_path / "out.json"
        export_result(result, "json", path)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(path.read_text(), parse_constant=reject)
        failed = [r for r in doc["rows"] if r["m"] == 2000]
        assert failed and all(r["frobenius_error"] is None and r["cond_ratio"] is None for r in failed)
        means = {(e["m"], e["algorithm"]): e for e in doc["aggregate"]["means"]}
        assert means[(2000, "dmdc")]["mean_frobenius_error"] is None
        assert {key: e["excluded"] for key, e in means.items()} == {
            (5, "dmdc"): 0,
            (5, "network_dmdc"): 0,
            (2000, "dmdc"): 1,
            (2000, "network_dmdc"): 1,
        }

        back = load_result_json(path)
        assert back.config == result.config
        assert len(back.rows) == len(result.rows)
        for got, want in zip(back.rows, result.rows):
            for name in ("trial", "m", "algorithm", "warnings"):
                assert getattr(got, name) == getattr(want, name)
            for name in ("frobenius_error", "cond_ratio", "wall_time_s"):
                assert _same_float(getattr(got, name), getattr(want, name))
        assert back.means.keys() == result.means.keys()
        assert all(_same_float(back.means[key], result.means[key]) for key in result.means)

    def test_excluded_counts_only_non_finite_rows(self, tmp_path):
        from netdmd.bench import SweepRow

        rows = (
            SweepRow(0, 3, "dmdc", 1.0, 0.1, 0.0, ""),
            SweepRow(1, 3, "dmdc", math.nan, math.nan, 0.0, "failed;error:Divergence"),
            SweepRow(2, 3, "dmdc", math.inf, 0.1, 0.0, ""),
            SweepRow(0, 3, "network_dmdc", 2.0, 0.1, 0.0, ""),
        )
        path = tmp_path / "out.json"
        export_result(SweepResult(rows=rows, means=mean_errors(rows)), "json", path)
        means = json.loads(path.read_text())["aggregate"]["means"]
        assert [(e["algorithm"], e["mean_frobenius_error"], e["excluded"]) for e in means] == [
            ("dmdc", 1.0, 2),
            ("network_dmdc", 2.0, 0),
        ]


def _same_float(x: float, y: float) -> bool:
    return x == y or (math.isnan(x) and math.isnan(y))


#: The sweep configs checked in under configs/, each by file stem, as they must load.
CHECKED_IN_CONFIGS = [
    (
        "circular_sweep",
        SweepConfig(
            generator=GeneratorConfig(Circular(50, 2), coeff_range=(-1.0, 1.0), input_range=(-10.0, 10.0)),
            trials=20,
            m_values=(3, 5, 10, 25, 50, 75),
            algorithms=("dmdc", "network_dmdc"),
            master_seed=2024,
        ),
    ),
    (
        "circular_reduced_sweep",
        SweepConfig(
            generator=GeneratorConfig(Circular(50, 2), coeff_range=(-1.0, 1.0), input_range=(-10.0, 10.0)),
            trials=20,
            m_values=(3, 5, 10, 25, 50, 75),
            algorithms=("dmdc", "network_dmdc"),
            master_seed=2024,
            use_reduced=True,
        ),
    ),
    (
        "erdos_renyi_sweep",
        SweepConfig(
            generator=GeneratorConfig(ErdosRenyi(50, 0.05), coeff_range=(-1.0, 1.0)),
            trials=20,
            m_values=(4, 8, 16, 32, 50),
            algorithms=("dmd", "network_dmdc"),
            master_seed=77,
        ),
    ),
    (
        "erdos_renyi_reduced_sweep",
        SweepConfig(
            generator=GeneratorConfig(ErdosRenyi(50, 0.05), coeff_range=(-1.0, 1.0)),
            trials=20,
            m_values=(4, 8, 16, 32, 50),
            algorithms=("dmd", "network_dmdc"),
            master_seed=77,
            use_reduced=True,
        ),
    ),
]


class TestSweepConfig:
    def test_validation(self):
        gen = GeneratorConfig(Circular(4, 2))
        with pytest.raises(BadConfig):
            SweepConfig(generator=gen, trials=0, m_values=(1,))
        with pytest.raises(BadConfig):
            SweepConfig(generator=gen, trials=1, m_values=())
        with pytest.raises(BadConfig):
            SweepConfig(generator=gen, trials=1, m_values=(1,), algorithms=("nope",))

    def test_numbers_are_checked_for_python_callers_too(self):
        gen = GeneratorConfig(Circular(4, 2))
        for bad in (
            {"trials": 2.5},
            {"trials": True},
            {"m_values": (3.9,)},
            {"m_values": (3, True)},
            {"initial_state_range": (-math.inf, 0.0)},
        ):
            with pytest.raises(BadConfig):
                SweepConfig(**{"generator": gen, "trials": 1, "m_values": (3,), **bad})
        # numpy integers are integers
        cfg = SweepConfig(generator=gen, trials=np.int64(2), m_values=(np.int32(3), 5))
        assert (cfg.trials, cfg.m_values) == (2, (3, 5))
        assert type(cfg.trials) is int and all(type(m) is int for m in cfg.m_values)
        # rng.uniform cannot draw from an interval whose width overflows
        with pytest.raises(BadConfig):
            GeneratorConfig(Circular(4, 2), coeff_range=(-1e308, 1e308))

    @pytest.mark.parametrize("bad", ["ab", [0.0], [0.0, 1.0, 2.0], [0.0, "1"], [False, 1.0]])
    @pytest.mark.parametrize("field", ["coeff_range", "input_range", "initial_state_range"])
    def test_ranges_must_be_two_numbers(self, field, bad):
        doc = sweep_config_to_dict(SweepConfig(generator=GeneratorConfig(Circular(4, 2)), trials=1, m_values=(3,)))
        (doc if field == "initial_state_range" else doc["generator"])[field] = bad
        with pytest.raises((TypeError, BadConfig)):
            sweep_config_from_dict(doc)

    def test_dict_round_trip(self):
        cfg = SweepConfig(
            generator=GeneratorConfig(ErdosRenyi(10, 0.2), coeff_range=(-2, 2), seed=3),
            trials=4,
            m_values=(2, 5),
            algorithms=("dmd", "network_dmdc"),
            truncation=RelativeThreshold(1e-8),
            master_seed=99,
            initial_state_range=(-0.5, 0.5),
        )
        assert sweep_config_from_dict(sweep_config_to_dict(cfg)) == cfg

    def test_dict_round_trip_fixed_rank(self):
        cfg = SweepConfig(
            generator=GeneratorConfig(Circular(6, 3)),
            trials=1,
            m_values=(3,),
            truncation=FixedRank(2),
            use_reduced=True,
        )
        assert sweep_config_from_dict(sweep_config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("bad", [0.5, 1e-12, "junk", {"kind": "machine_default"}, (FixedRank(2),)])
    def test_truncation_must_be_a_rule(self, bad):
        gen = GeneratorConfig(Circular(4, 2))
        for use_reduced in (False, True):
            with pytest.raises(BadConfig, match="truncation must be a FixedRank, RelativeThreshold or MachineDefault rule"):
                SweepConfig(generator=gen, trials=1, m_values=(3,), truncation=bad, use_reduced=use_reduced)

    def test_a_sweep_without_a_rule_gets_its_paths_default(self):
        gen = GeneratorConfig(Circular(4, 2))
        assert SweepConfig(generator=gen, trials=1, m_values=(3,)).truncation == EXACT_RULE == RelativeThreshold(1e-12)
        assert SweepConfig(generator=gen, trials=1, m_values=(3,), use_reduced=True).truncation == MachineDefault()
        # the writer names the rule, and only the rule
        doc = sweep_config_to_dict(SweepConfig(generator=gen, trials=1, m_values=(3,)))
        assert "rcond" not in doc and doc["truncation"] == {"kind": "relative_threshold", "tau": 1e-12}

    @pytest.mark.parametrize(
        "use_reduced, keys, want",
        [
            (False, {"truncation": {"kind": "machine_default"}, "rcond": 1e-10}, RelativeThreshold(1e-10)),
            (False, {"truncation": {"kind": "fixed_rank", "rank": 2}, "rcond": 1e-12}, RelativeThreshold(1e-12)),
            (False, {"rcond": 1e-8}, RelativeThreshold(1e-8)),
            (False, {}, RelativeThreshold(1e-12)),
            (True, {"truncation": {"kind": "fixed_rank", "rank": 2}, "rcond": 1e-10}, FixedRank(2)),
            (True, {"truncation": {"kind": "machine_default"}, "rcond": 1e-12}, MachineDefault()),
            (True, {"rcond": 1e-8}, MachineDefault()),
            (True, {}, MachineDefault()),
        ],
    )
    def test_old_documents_load_to_the_rule_their_rows_used(self, use_reduced, keys, want):
        # an exact sweep's rows were cut at "rcond" (default 1e-12), a reduced sweep's by "truncation" (default MachineDefault)
        doc = {"generator": {"family": "circular", "n_states": 4}, "trials": 1, "m_values": [3], "use_reduced": use_reduced, **keys}
        assert sweep_config_from_dict(doc).truncation == want

    @pytest.mark.parametrize("use_reduced", [False, True])
    @pytest.mark.parametrize("rcond", [0.0, 1.0, 2.0, -1e-3, math.nan, math.inf])
    def test_a_legacy_rcond_outside_the_open_unit_interval_is_an_error(self, rcond, use_reduced):
        doc = {"generator": {"family": "circular", "n_states": 4}, "trials": 1, "m_values": [3], "rcond": rcond, "use_reduced": use_reduced}
        with pytest.raises(ValueError, match="tau must lie in"):
            sweep_config_from_dict(doc)

    @pytest.mark.parametrize("name, cfg", CHECKED_IN_CONFIGS, ids=[name for name, _ in CHECKED_IN_CONFIGS])
    def test_checked_in_configs_in_their_old_form_load_to_the_same_config(self, name, cfg):
        # until the cut vocabulary was one, every config named both keys: "machine_default" and "rcond" 1e-12
        path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        doc = json.loads(path.read_text())
        assert "rcond" not in doc and doc["truncation"] == truncation_to_dict(cfg.truncation)
        old = {**doc, "truncation": {"kind": "machine_default"}, "rcond": 1e-12}
        assert sweep_config_from_dict(old) == cfg

    def test_a_result_json_in_the_old_form_loads_to_the_rule_its_rows_used(self, tmp_path):
        cfg = SweepConfig(generator=GeneratorConfig(Circular(6, 2), seed=2), trials=1, m_values=(3, 6), master_seed=21)
        result = run_sweep(cfg)
        export_result(result, "json", tmp_path / "new.json")
        doc = json.loads((tmp_path / "new.json").read_text())
        doc["config"] = {**doc["config"], "truncation": {"kind": "machine_default"}, "rcond": 1e-12}
        (tmp_path / "old.json").write_text(json.dumps(doc))
        loaded = load_result_json(tmp_path / "old.json")
        assert loaded.config == cfg and loaded.config.truncation == EXACT_RULE
        strip = lambda rows: [(r.trial, r.m, r.algorithm, r.frobenius_error, r.cond_ratio, r.warnings) for r in rows]
        assert strip(run_sweep(loaded.config).rows) == strip(loaded.rows) == strip(result.rows)

    @pytest.mark.parametrize("name, cfg", CHECKED_IN_CONFIGS, ids=[name for name, _ in CHECKED_IN_CONFIGS])
    def test_checked_in_configs_load(self, name, cfg):
        # the configs replace the sweep scripts (these are the configs the scripts built by default),
        # plus the circular and Erdos-Renyi sweeps through the reduced solvers
        path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        assert sweep_config_from_dict(json.loads(path.read_text())) == cfg
        # no config under configs/ goes unchecked
        assert sorted(p.stem for p in path.parent.glob("*.json")) == sorted(name for name, _ in CHECKED_IN_CONFIGS)


def test_underdetermined_network_rows_are_tagged():
    results = {name: run_sweep(cfg) for name, cfg in CHECKED_IN_CONFIGS}
    rows = [r for r in results["erdos_renyi_sweep"].rows if r.algorithm == "network_dmdc"]
    tagged = {(r.trial, r.m) for r in rows if "underdetermined:" in r.warnings}
    # every trial at m = 4, and the three trials at m = 8 with a node of local dimension 9 or more
    assert tagged == {(trial, 4) for trial in range(20)} | {(1, 8), (6, 8), (10, 8)}
    # a network row that misses the truth by 1e-6 or more says why
    assert all(r.warnings for r in rows if not r.frobenius_error < 1e-6)
    cfg = dict(CHECKED_IN_CONFIGS)["erdos_renyi_sweep"]
    for r in rows:
        t = generate_system(cfg.generator, derive_rng(cfg.master_seed, r.trial, 0)).topology
        short = [v for v in t.state_vertices if rescan_local_subsystem(t, v).local_dim > r.m]
        assert [tag for tag in r.warnings.split(";") if tag.startswith("underdetermined:")] == [
            f"underdetermined:{v}" for v in short
        ]
    for name in ("circular_sweep", "circular_reduced_sweep"):
        assert not any("underdetermined" in r.warnings for r in results[name].rows)
    # the reduced sweep solves the same graphs and trajectories: the same nodes are tagged, and a wrong row says why
    reduced = [r for r in results["erdos_renyi_reduced_sweep"].rows if r.algorithm == "network_dmdc"]
    underdetermined = [[tag for tag in r.warnings.split(";") if tag.startswith("underdetermined:")] for r in reduced]
    assert underdetermined == [[tag for tag in r.warnings.split(";") if tag.startswith("underdetermined:")] for r in rows]
    assert all(r.warnings for r in reduced if not r.frobenius_error < 1e-6)


@pytest.fixture(scope="module")
def small_result():
    cfg = SweepConfig(
        generator=GeneratorConfig(Circular(6, 2), input_range=(-1, 1), seed=0),
        trials=3,
        m_values=(3, 9),
        algorithms=("dmdc", "network_dmdc"),
        master_seed=11,
    )
    return run_sweep(cfg)


class TestRunSweep:
    def test_row_count(self, small_result):
        assert len(small_result.rows) == 3 * 2 * 2

    def test_means_recomputable(self, small_result):
        assert small_result.means == mean_errors(small_result.rows)

    def test_deterministic_modulo_wall_time(self, small_result):
        again = run_sweep(small_result.config)
        strip = lambda rows: [
            (r.trial, r.m, r.algorithm, r.frobenius_error, r.cond_ratio, r.warnings) for r in rows
        ]
        assert strip(again.rows) == strip(small_result.rows)

    def test_single_vertex_single_snapshot(self):
        cfg = SweepConfig(
            generator=GeneratorConfig(ErdosRenyi(1, 0.0)),
            trials=1,
            m_values=(1,),
            algorithms=("dmd", "network_dmdc"),
        )
        result = run_sweep(cfg)
        assert len(result.rows) == 2
        assert {r.algorithm for r in result.rows} == {"dmd", "network_dmdc"}
        # a lone scalar vertex is identified exactly from one snapshot
        assert all(r.frobenius_error < 1e-12 for r in result.rows)

    def test_plateau_beyond_max_local_dim(self):
        # every well-conditioned cell at m >= the largest local dimension recovers
        cfg = SweepConfig(
            generator=GeneratorConfig(Circular(12, 2), input_range=(-2, 2), seed=0),
            trials=5,
            m_values=(3, 6, 12, 24),
            algorithms=("network_dmdc",),
            master_seed=4,
        )
        result = run_sweep(cfg)
        for row in result.rows:
            if row.m >= 3 and "ill_conditioned" not in row.warnings:
                assert row.frobenius_error < 1e-6


class TestExport:
    def _result(self, rows=()):
        return SweepResult(rows=tuple(rows), means=mean_errors(rows), config=None)

    def test_empty_csv_is_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        export_result(self._result(), "csv", path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_two_rows_make_three_lines(self, tmp_path):
        from netdmd.bench import SweepRow

        rows = [
            SweepRow(0, 3, "dmdc", 0.5, 0.1, 0.01, ""),
            SweepRow(0, 3, "network_dmdc", 1e-12, 0.5, 0.02, ""),
        ]
        path = tmp_path / "out.csv"
        export_result(self._result(rows), "csv", path)
        assert len(path.read_text().splitlines()) == 3

    def test_json_round_trip_preserves_means(self, tmp_path):
        cfg = SweepConfig(
            generator=GeneratorConfig(Circular(4, 2), seed=1),
            trials=2,
            m_values=(2, 4),
            master_seed=5,
        )
        result = run_sweep(cfg)
        path = tmp_path / "out.json"
        export_result(result, "json", path)
        back = load_result_json(path)
        assert back.means == result.means
        assert back.config == result.config
        assert back.rows == result.rows

    def test_csv_round_trip(self, tmp_path):
        cfg = SweepConfig(
            generator=GeneratorConfig(Circular(4, 2), seed=1),
            trials=1,
            m_values=(3,),
            master_seed=5,
        )
        result = run_sweep(cfg)
        path = tmp_path / "out.csv"
        export_result(result, "csv", path)
        back = load_result_csv(path)
        assert back.rows == result.rows
        assert back.means == result.means

    def test_csv_bytes_deterministic_excluding_wall_time(self, tmp_path):
        cfg = SweepConfig(
            generator=GeneratorConfig(Circular(5, 2), seed=2),
            trials=2,
            m_values=(2, 5),
            master_seed=8,
        )
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            export_result(run_sweep(cfg), "csv", path)
            paths.append(path)

        def strip_wall(path):
            lines = path.read_text().splitlines()
            idx = CSV_COLUMNS.index("wall_time_s")
            return [",".join(c for i, c in enumerate(line.split(",")) if i != idx) for line in lines]

        assert strip_wall(paths[0]) == strip_wall(paths[1])

    def test_unknown_format(self, tmp_path):
        with pytest.raises(BadConfig):
            export_result(self._result(), "yaml", tmp_path / "x")

    @pytest.mark.parametrize(
        "entry, field, value",
        [
            ("rows", "m", 3.9),
            ("rows", "trial", "2"),
            ("rows", "frobenius_error", "0.5"),
            ("rows", "cond_ratio", True),
            ("rows", "wall_time_s", None),
            ("means", "m", 3.9),
        ],
    )
    def test_result_json_with_a_mistyped_field_is_a_type_error(self, tmp_path, entry, field, value):
        cfg = SweepConfig(generator=GeneratorConfig(Circular(4, 2), seed=1), trials=1, m_values=(3,), master_seed=5)
        path = tmp_path / "out.json"
        export_result(run_sweep(cfg), "json", path)
        doc = json.loads(path.read_text())
        records = doc["rows"] if entry == "rows" else doc["aggregate"]["means"]
        records[0][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(TypeError):
            load_result_json(path)

    def test_result_csv_with_a_fractional_m_is_rejected(self, tmp_path):
        cfg = SweepConfig(generator=GeneratorConfig(Circular(4, 2), seed=1), trials=1, m_values=(3,), master_seed=5)
        path = tmp_path / "out.csv"
        export_result(run_sweep(cfg), "csv", path)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        fields[CSV_COLUMNS.index("m")] = "3.9"
        path.write_text("\n".join([lines[0], ",".join(fields), *lines[2:]]) + "\n")
        with pytest.raises(ValueError):
            load_result_csv(path)
