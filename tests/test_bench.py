import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_lift_reduced_network, reference_network_dmdc_reduced, systems
from netdmd.errors import BadConfig
from netdmd.bench import (
    CSV_COLUMNS,
    SweepConfig,
    SweepResult,
    export_result,
    load_result_csv,
    load_result_json,
    mean_errors,
    run_sweep,
    run_trial,
    sweep_config_from_dict,
    sweep_config_to_dict,
)
from netdmd.netdmdc import model_error, network_dmdc_exact
from netdmd.numkernel import FixedRank, MachineDefault, RelativeThreshold, conditioning_record
from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
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
        real_svd = np.linalg.svd
        calls = []

        def svd(*args, **kwargs):
            calls.append(args[0].shape)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        (row,) = run_trial(two_node_system, 10, (algorithm,), derive_rng(5), use_reduced=True)
        assert len(calls) == svds
        assert calls[0] == data.shape
        assert abs(row.cond_ratio - want) <= 1e-12


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

    def test_dict_round_trip(self):
        cfg = SweepConfig(
            generator=GeneratorConfig(ErdosRenyi(10, 0.2), coeff_range=(-2, 2), seed=3),
            trials=4,
            m_values=(2, 5),
            algorithms=("dmd", "network_dmdc"),
            truncation=RelativeThreshold(1e-8),
            rcond=1e-10,
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

    @pytest.mark.parametrize("name, cfg", CHECKED_IN_CONFIGS, ids=[name for name, _ in CHECKED_IN_CONFIGS])
    def test_checked_in_configs_load(self, name, cfg):
        # the configs replace the sweep scripts (these are the configs the scripts built by default),
        # plus the circular sweep through the reduced solvers
        path = pathlib.Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
        assert sweep_config_from_dict(json.loads(path.read_text())) == cfg
        # no config under configs/ goes unchecked
        assert sorted(p.stem for p in path.parent.glob("*.json")) == sorted(name for name, _ in CHECKED_IN_CONFIGS)


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
