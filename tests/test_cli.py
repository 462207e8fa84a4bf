import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from netdmd.cli import main
from netdmd.sysmodel import system_from_dict, system_to_dict, write_trajectory_csv
from netdmd.topology import topology_to_dict, validate


@pytest.fixture
def system_file(tmp_path, two_node_system):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(system_to_dict(two_node_system)))
    return path


@pytest.fixture
def topology_file(tmp_path, two_node_topology):
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(topology_to_dict(two_node_topology)))
    return path


@pytest.fixture
def trajectory_file(tmp_path, two_node_system, two_node_trajectory):
    path = tmp_path / "traj.csv"
    write_trajectory_csv(two_node_trajectory, two_node_system.topology, path)
    return path


def test_gen_network_circular(tmp_path):
    out = tmp_path / "sys.json"
    code = main(
        [
            "gen-network",
            "--family",
            "circular",
            "--n-states",
            "6",
            "--input-period",
            "2",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    system = system_from_dict(json.loads(out.read_text()))
    assert len(system.topology.state_vertices) == 6
    assert len(system.topology.input_vertices) == 3
    assert validate(system.topology) == []


def test_gen_network_erdos_renyi(tmp_path):
    out = tmp_path / "sys.json"
    code = main(["gen-network", "--family", "erdos-renyi", "--n", "8", "--p", "0.3", "--seed", "1", "-o", str(out)])
    assert code == 0
    system = system_from_dict(json.loads(out.read_text()))
    assert len(system.topology.state_vertices) == 8
    assert system.topology.input_vertices == ()


def test_simulate_with_explicit_x0_and_inputs(tmp_path, system_file):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps([[0.2, 0.4, 0.8], [0.3, 0.1, 0.3]]))
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--system",
            str(system_file),
            "--x0",
            "2,5",
            "--inputs-json",
            str(inputs),
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,v1:0,v2:0,u:e1:0,u:e2:0"
    assert len(lines) == 5  # header + 3 snapshots + y_final

    from netdmd.sysmodel import read_trajectory_csv

    traj = read_trajectory_csv(out)
    assert_allclose(traj.z[0], [2, 0.1, -1.63], atol=1e-12)


def test_simulate_with_seeded_inputs(tmp_path, system_file):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--system",
            str(system_file),
            "--x0-seed",
            "3",
            "--input-seed",
            "4",
            "--steps",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    from netdmd.sysmodel import read_trajectory_csv

    assert read_trajectory_csv(out).z.shape == (2, 5)


def test_identify_network_dmdc(tmp_path, topology_file, trajectory_file):
    out = tmp_path / "model.json"
    code = main(
        [
            "identify",
            "--trajectory",
            str(trajectory_file),
            "--topology",
            str(topology_file),
            "--algorithm",
            "network-dmdc",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert list(doc["blocks_a"]) == ["v1→v1", "v2→v1", "v2→v2"]
    assert_allclose([doc["blocks_a"][key] for key in doc["blocks_a"]], [[[1.2]], [[-0.5]], [[0.8]]], atol=1e-9)
    assert list(doc["blocks_b"]) == ["e1→v1", "e2→v2"]
    assert_allclose([doc["blocks_b"][key] for key in doc["blocks_b"]], [[[1.0]], [[1.0]]], atol=1e-9)
    assert "assembled_a" not in doc and "assembled_b" not in doc


@pytest.mark.parametrize(
    "text",
    [
        "k,v1:0,v2:0,u:e1:0,u:e2:0\n1,2.0,5.0,0.2\n2,0.1,4.3,0.4,0.1\ny_final,-1.63,3.54,,\n",
        "k,v1:0,v2:0,v1:1,u:e1:0,u:e2:0\n1,2.0,5.0,1.0,0.2,0.3\ny_final,0.1,4.3,1.0,,\n",
    ],
    ids=["ragged_row", "non_contiguous_columns"],
)
def test_identify_malformed_trajectory_is_validation_error(tmp_path, topology_file, text, capsys):
    path = tmp_path / "traj.csv"
    path.write_text(text)
    code = main(["identify", "--trajectory", str(path), "--topology", str(topology_file), "--algorithm", "dmdc"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_identify_dmdc(tmp_path, topology_file, trajectory_file):
    out = tmp_path / "model.json"
    code = main(
        [
            "identify",
            "--trajectory",
            str(trajectory_file),
            "--topology",
            str(topology_file),
            "--algorithm",
            "dmdc",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.asarray(doc["A"]).shape == (2, 2)
    assert np.asarray(doc["B"]).shape == (2, 2)
    assert "eigenvalues" in doc and "conditioning" in doc


def test_identify_dmd(tmp_path, topology_file, trajectory_file):
    out = tmp_path / "model.json"
    code = main(
        [
            "identify",
            "--trajectory",
            str(trajectory_file),
            "--topology",
            str(topology_file),
            "--algorithm",
            "dmd",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    assert json.loads(out.read_text())["B"] is None


def test_sweep_writes_csv_and_json(tmp_path):
    config = {
        "generator": {"family": "circular", "n_states": 5, "input_period": 2, "seed": 0},
        "trials": 2,
        "m_values": [3, 6],
        "algorithms": ["dmdc", "network_dmdc"],
        "master_seed": 13,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code = main(["sweep", "--config", str(cfg_path), "--csv", str(csv_path), "--json", str(json_path)])
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == "trial,m,algorithm,frobenius_error,cond_ratio,wall_time_s,warnings"
    assert len(csv_path.read_text().splitlines()) == 1 + 2 * 2 * 2
    doc = json.loads(json_path.read_text())
    assert len(doc["rows"]) == 8
    assert doc["config"]["trials"] == 2


def test_validate_ok(topology_file):
    assert main(["validate", "--topology", str(topology_file)]) == 0


def test_validate_reports_violations(tmp_path, capsys):
    bad = {
        "state_vertices": [{"id": "v1", "dim": 1}],
        "input_vertices": [{"id": "e1", "dim": 1}],
        "edges": [["v1", "e1"]],
    }
    path = tmp_path / "topology.json"
    path.write_text(json.dumps(bad))
    assert main(["validate", "--topology", str(path)]) == 1
    assert "input_vertex_has_in_edge" in capsys.readouterr().out


def test_missing_file_is_io_error(tmp_path):
    assert main(["validate", "--topology", str(tmp_path / "nope.json")]) == 2


def test_bad_config_is_validation_error(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"generator": {"family": "circular", "n_states": 5}, "trials": 0, "m_values": [1]}))
    assert main(["sweep", "--config", str(cfg_path)]) == 1


def test_malformed_json_is_validation_error(tmp_path):
    path = tmp_path / "topology.json"
    path.write_text("{not json")
    assert main(["validate", "--topology", str(path)]) == 1


_ONE_VERTEX = {"state_vertices": [{"id": "v1", "dim": 1}], "input_vertices": [], "edges": []}
_SWEEP = {
    "generator": {"family": "circular", "n_states": 3, "input_period": 2, "seed": 0},
    "trials": 1,
    "m_values": [3],
}
_ER_GENERATOR = {"family": "erdos_renyi", "n": 4, "p": 0.5}


@pytest.mark.parametrize(
    "command, flag, doc",
    [
        ("validate", "--topology", {"state_vertices": [1], "input_vertices": [], "edges": []}),
        ("validate", "--topology", [1, 2]),
        ("validate", "--topology", {**_ONE_VERTEX, "state_vertices": [{"id": "v1", "dim": [1]}]}),
        ("validate", "--topology", {**_ONE_VERTEX, "edges": [[["v1"], "v1"]]}),
        ("sweep", "--config", {"generator": [1], "trials": 1, "m_values": [3]}),
        ("sweep", "--config", {"generator": {"family": "circular", "n_states": 3}, "trials": 1, "m_values": 3}),
        ("simulate", "--system", {"topology": _ONE_VERTEX, "self_blocks": [1], "edge_blocks": {}}),
        # fields that int() would truncate and bool() would read as true
        ("validate", "--topology", {**_ONE_VERTEX, "state_vertices": [{"id": "v1", "dim": 1.7}]}),
        ("validate", "--topology", {**_ONE_VERTEX, "state_vertices": [{"id": "v1", "dim": True}]}),
        ("sweep", "--config", {**_SWEEP, "use_reduced": "false"}),
        ("sweep", "--config", {**_SWEEP, "use_reduced": 0}),
        ("sweep", "--config", {**_SWEEP, "trials": 2.5}),
        ("sweep", "--config", {**_SWEEP, "trials": True}),
        ("sweep", "--config", {**_SWEEP, "m_values": [3.9]}),
        ("sweep", "--config", {**_SWEEP, "master_seed": 1.0}),
        ("sweep", "--config", {**_SWEEP, "truncation": {"kind": "fixed_rank", "rank": 1.5}}),
        ("sweep", "--config", {**_SWEEP, "generator": {**_SWEEP["generator"], "n_states": 5.9}}),
        ("sweep", "--config", {**_SWEEP, "generator": {**_SWEEP["generator"], "input_period": 2.0}}),
        ("sweep", "--config", {**_SWEEP, "generator": {**_SWEEP["generator"], "seed": True}}),
        ("sweep", "--config", {**_SWEEP, "generator": {**_ER_GENERATOR, "n": 4.5}}),
    ],
    ids=[
        "vertex_not_an_object",
        "top_level_list",
        "dim_a_list",
        "edge_end_a_list",
        "generator_a_list",
        "m_values_a_number",
        "self_blocks_a_list",
        "dim_a_float",
        "dim_a_bool",
        "use_reduced_a_string",
        "use_reduced_an_integer",
        "trials_a_float",
        "trials_a_bool",
        "m_value_a_float",
        "master_seed_a_float",
        "rank_a_float",
        "n_states_a_float",
        "input_period_a_float",
        "seed_a_bool",
        "n_a_float",
    ],
)
def test_field_of_the_wrong_type_is_validation_error(tmp_path, capsys, command, flag, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    extra = ["--steps", "3", "--out", str(tmp_path / "traj.csv")] if command == "simulate" else []
    assert main([command, flag, str(path), *extra]) == 1
    assert capsys.readouterr().err.startswith("error: ")
