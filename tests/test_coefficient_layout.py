"""Network models stored as plan-order coefficient vectors, against dense oracles."""
import re
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MARKER, build_local_data, factorizations_failing_on_marker, reference_network_dmdc_exact, systems
from netdmd import netdmdc
from netdmd.dmdcore import dmdc_exact
from netdmd.errors import BadConfig, DimensionMismatch, NonFiniteEntry, UnknownVertex
from netdmd.netdmdc import (
    NetworkModel,
    NodeConditioning,
    _node_conditioning,
    model_error,
    network_dmdc_exact,
    network_model_from_dict,
    network_model_to_dict,
)
from netdmd.numkernel import ConditioningRecord
from netdmd.sysmodel import Circular, GeneratorConfig, TrajectoryData, gen_circular, simulate, true_full_matrices
from netdmd.topology import local_subsystem

def _trajectory(system, m, seed):
    t = system.topology
    rng = np.random.default_rng(seed)
    return simulate(system, rng.uniform(-1, 1, t.total_state_dim), rng.uniform(-1, 1, (t.total_input_dim, m)))


def _dense_error(model, truth_a, truth_b):
    """The formula ``model_error`` replaces for network models: the norm of the densified difference."""
    return float(np.linalg.norm(np.hstack([model.assembled_a - truth_a, model.assembled_b - truth_b])))


def _error_with_block_rows(rows, model, truth_a, truth_b):
    """``model_error`` with its buffer sized to hold exactly ``rows`` rows of ``[A B]``."""
    t = model.topology
    width = max(t.total_state_dim + t.total_input_dim, 1)
    with mock.patch.object(netdmdc, "_SCORE_BLOCK_ELEMENTS", rows * width):
        return model_error(model, truth_a, truth_b)


def _model(system, coeffs):
    return NetworkModel(system.topology, np.asarray(coeffs, dtype=float), _node_conditioning(system.topology, {}), {})


@given(systems(), st.integers(1, 8), st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=120, deadline=None)
def test_coefficient_vector_densifies_to_the_per_node_reference(system, m, seed, data):
    t = system.topology
    clean = _trajectory(system, m, seed)
    arrays = {"z": clean.z.copy(), "gamma": clean.gamma.copy(), "y": clean.y.copy()}
    for _ in range(data.draw(st.integers(0, 2))):
        arr = arrays[data.draw(st.sampled_from([name for name, arr in arrays.items() if arr.size]))]
        arr[data.draw(st.integers(0, arr.shape[0] - 1))] = data.draw(st.sampled_from([np.nan, np.inf]))
    if data.draw(st.booleans()):
        arrays["z"][data.draw(st.integers(0, t.total_state_dim - 1)), data.draw(st.integers(0, m - 1))] = MARKER
    traj = TrajectoryData(arrays["z"], arrays["gamma"], arrays["y"], clean.vertex_row_ranges)
    failures = {}
    with factorizations_failing_on_marker():
        model = network_dmdc_exact(t, traj)
        a, b = reference_network_dmdc_exact(t, traj, failures=failures)
    # the same per-node arithmetic on the same values: bit-identical, not just close
    assert np.array_equal(model.assembled_a, a)
    assert np.array_equal(model.assembled_b, b)
    assert list(model.node_failures.items()) == [(v, failures[v]) for v in t.state_vertices if v in failures]
    assert model.coeffs.size == sum(t.dims[v] * local_subsystem(t, v).local_dim for v in t.state_vertices)
    assert not model.coeffs.flags.writeable
    for (j, i), block in chain(model.blocks_a.items(), model.blocks_b.items()):
        assert np.shares_memory(block, model.coeffs)
        assert not block.flags.writeable
        assert block.shape == (t.dims[j], t.dims[i])
    assert list(model.per_node_conditioning) == [v for v in t.state_vertices if v not in failures]
    for v, record in model.per_node_conditioning.items():
        ld = build_local_data(t, traj, v)
        assert record == dmdc_exact(ld.z_j, ld.y_j, ld.gamma_j).conditioning


def test_coefficients_are_laid_out_like_the_system_operator():
    system = gen_circular(GeneratorConfig(Circular(12, 3), seed=2))
    model = network_dmdc_exact(system.topology, _trajectory(system, 8, 2))
    truth = system.coeffs
    assert model.coeffs.shape == truth.shape
    assert np.max(np.abs(model.coeffs - truth)) <= 1e-9


@given(
    systems(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.sampled_from(["random", "off_support", "near_truth"]),
    st.sampled_from([1e-12, 1.0, 1e6]),
)
@settings(max_examples=150, deadline=None)
def test_network_error_matches_the_dense_formula(system, seed, block_rows, kind, scale):
    rng = np.random.default_rng(seed)
    truth_a, truth_b = (scale * x for x in true_full_matrices(system))
    support = scale * system.coeffs
    if kind == "random":
        coeffs = scale * rng.standard_normal(support.size)
        truth_a = scale * rng.standard_normal(truth_a.shape)
        truth_b = scale * rng.standard_normal(truth_b.shape)
    elif kind == "off_support":
        # nonzero truth entries where the model has no coefficient must be counted
        coeffs = support.copy()
        truth_a = truth_a + scale * rng.standard_normal(truth_a.shape) * (rng.random(truth_a.shape) < 0.3)
        truth_b = truth_b + scale * rng.standard_normal(truth_b.shape) * (rng.random(truth_b.shape) < 0.3)
        truth_a[np.diag_indices_from(truth_a)] += scale
    else:
        # an error far below the truth's norm, where ||T||^2 - ||T_S||^2 would cancel
        coeffs = support * (1.0 + 1e-9 * rng.standard_normal(support.size))
    model = _model(system, coeffs)
    want = _dense_error(model, truth_a, truth_b)
    got = _error_with_block_rows(block_rows, model, truth_a, truth_b)
    assert abs(got - want) <= 1e-13 * want


def test_truth_mass_off_the_support_is_counted(two_node_system):
    truth_a, truth_b = true_full_matrices(two_node_system)
    model = _model(two_node_system, two_node_system.coeffs)
    assert model_error(model, truth_a, truth_b) == 0.0
    truth_a[1, 0] = 3.0  # v1 -> v2 is not an edge
    truth_b[0, 1] = 4.0  # nor is e2 -> v1
    assert model_error(model, truth_a, truth_b) == 5.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["coeffs", "truth_a_on_support", "truth_a_off_support", "truth_b_off_support"])
def test_non_finite_network_differences_raise(two_node_system, bad, where):
    truth_a, truth_b = true_full_matrices(two_node_system)
    coeffs = two_node_system.coeffs.copy()
    if where == "coeffs":
        coeffs[1] = bad
    elif where == "truth_a_on_support":
        truth_a[0, 1] = bad
    elif where == "truth_a_off_support":
        truth_a[1, 0] = bad
    else:
        truth_b[0, 1] = bad
    with pytest.raises(NonFiniteEntry):
        _error_with_block_rows(1, _model(two_node_system, coeffs), truth_a, truth_b)


def test_finite_overflow_off_the_support_returns_inf(two_node_system):
    truth_a, truth_b = true_full_matrices(two_node_system)
    truth_a[1, 0] = 1e200
    with np.errstate(over="ignore"):
        assert model_error(_model(two_node_system, two_node_system.coeffs), truth_a, truth_b) == np.inf


def test_overflowing_network_difference_raises(two_node_system):
    truth_a, truth_b = true_full_matrices(two_node_system)
    coeffs = two_node_system.coeffs.copy()
    coeffs[0] = 1e308
    truth_a[0, 0] = -1e308
    with np.errstate(over="ignore"), pytest.raises(NonFiniteEntry):
        model_error(_model(two_node_system, coeffs), truth_a, truth_b)


@pytest.mark.parametrize(
    "truth_a, truth_b",
    [(np.eye(3), np.eye(2)), (np.eye(2), None), (np.eye(2), np.ones((2, 1))), (np.eye(2), np.ones((1, 2)))],
)
def test_network_error_rejects_mismatched_truths(two_node_system, truth_a, truth_b):
    with pytest.raises(DimensionMismatch):
        model_error(_model(two_node_system, two_node_system.coeffs), truth_a, truth_b)


def test_coefficient_vector_of_the_wrong_size_is_rejected(two_node_system):
    with pytest.raises(DimensionMismatch):
        _model(two_node_system, np.zeros(4))


@pytest.mark.parametrize(
    "field, value",
    [
        ("sigma_min", np.zeros(3)),  # one entry too many
        ("rcond_used", np.zeros((2, 1))),  # not 1-D
        ("warning", np.zeros(2)),  # float, not bool
        ("present", np.ones(2, dtype=int)),  # int, not bool
        ("sigma_max", np.zeros(2, dtype=bool)),  # bool, not float
    ],
)
def test_node_conditioning_with_a_mis_sized_or_mistyped_array_is_rejected(field, value):
    arrays = {"present": np.ones(2, dtype=bool), "warning": np.zeros(2, dtype=bool)}
    arrays |= {name: np.ones(2) for name in ("sigma_max", "sigma_min", "rcond_used")}
    NodeConditioning(**arrays)
    with pytest.raises(DimensionMismatch, match=field):
        NodeConditioning(**{**arrays, field: value})


@given(systems(), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_model_json_round_trips_through_the_blocks(system, m, seed):
    model = network_dmdc_exact(system.topology, _trajectory(system, m, seed))
    doc = network_model_to_dict(model)
    assert "assembled_a" not in doc and "assembled_b" not in doc
    back = network_model_from_dict(doc)
    assert np.array_equal(back.coeffs, model.coeffs)
    assert back.per_node_conditioning == model.per_node_conditioning
    assert back.node_failures == model.node_failures


def test_model_json_with_assembled_matrices_still_loads(two_node_topology, two_node_trajectory):
    model = network_dmdc_exact(two_node_topology, two_node_trajectory)
    doc = network_model_to_dict(model)
    doc["assembled_a"] = model.assembled_a.tolist()
    doc["assembled_b"] = model.assembled_b.tolist()
    assert np.array_equal(network_model_from_dict(doc).coeffs, model.coeffs)


@pytest.mark.parametrize(
    "change, error, message",
    [
        (lambda doc: doc["blocks_a"].pop("v2→v1"), BadConfig, "missing ['v2→v1'], extra []"),
        (lambda doc: doc["blocks_b"].pop("e2→v2"), BadConfig, "missing ['e2→v2'], extra []"),
        (lambda doc: doc["blocks_a"].update({"v2→v1": [[1.0, 2.0]]}), DimensionMismatch, None),
        (lambda doc: doc["blocks_b"].update({"e1→v1": [1.0]}), DimensionMismatch, None),
        (lambda doc: doc["blocks_a"].update({"v1→v1": [[1.0], [2.0, 3.0]]}), DimensionMismatch, None),
        (lambda doc: doc["blocks_a"].update({"v1→v2": [[1.0]]}), BadConfig, "missing [], extra ['v1→v2']"),
        (lambda doc: doc["blocks_b"].update({"e1→v2": [[1.0]]}), BadConfig, "missing [], extra ['e1→v2']"),
        (
            lambda doc: doc["per_node_conditioning"].update({"e1": doc["per_node_conditioning"]["v1"]}),
            UnknownVertex,
            "conditioning records for vertices that are not state vertices: ['e1']",
        ),
    ],
    ids=["missing_a", "missing_b", "wide", "flat", "ragged", "non_edge_a", "non_edge_b", "input_conditioning"],
)
def test_model_json_with_bad_blocks_is_a_dimension_error(two_node_topology, two_node_trajectory, change, error, message):
    # a mis-shaped block is a DimensionMismatch; a missing or extra key is the BadConfig
    # of the one key check that a system built from the wrong blocks also raises; a
    # conditioning record for a vertex that is not a state vertex is an UnknownVertex
    doc = network_model_to_dict(network_dmdc_exact(two_node_topology, two_node_trajectory))
    change(doc)
    with pytest.raises(error, match=message and re.escape(message)):
        network_model_from_dict(doc)


@pytest.mark.parametrize(
    "change, names",
    [
        (lambda doc: doc["blocks_a"].update({"v1v2": [[1.0]]}), "extra ['v1v2→']"),
        (lambda doc: doc["blocks_a"].update({"e1→v1": doc["blocks_b"].pop("e1→v1")}), "misplaced: ['e1→v1']"),
        (lambda doc: doc["blocks_b"].update({"v2→v1": doc["blocks_a"].pop("v2→v1")}), "misplaced: ['v2→v1']"),
    ],
    ids=["no_separator", "input_in_a", "state_in_b"],
)
def test_model_json_with_malformed_block_keys_is_a_bad_config(two_node_topology, two_node_trajectory, change, names):
    doc = network_model_to_dict(network_dmdc_exact(two_node_topology, two_node_trajectory))
    change(doc)
    with pytest.raises(BadConfig, match=re.escape(names)):
        network_model_from_dict(doc)


@pytest.mark.parametrize(
    "field, value",
    [("warning", "false"), ("warning", 0), ("sigma_max", "1.0"), ("sigma_min", True), ("rcond_used", "1e-12")],
)
def test_model_json_with_a_mistyped_conditioning_record_is_a_type_error(
    two_node_topology, two_node_trajectory, field, value
):
    doc = network_model_to_dict(network_dmdc_exact(two_node_topology, two_node_trajectory))
    doc["per_node_conditioning"]["v1"][field] = value
    with pytest.raises(TypeError):
        network_model_from_dict(doc)
    # a JSON integer is a number
    doc["per_node_conditioning"]["v1"] = {"sigma_max": 2, "sigma_min": 1, "rcond_used": 0, "warning": False}
    record = network_model_from_dict(doc).per_node_conditioning["v1"]
    assert record == ConditioningRecord(2.0, 1.0, 0.0, False) and type(record.sigma_max) is float


def test_model_json_with_made_up_node_failures_is_rejected(two_node_topology, two_node_trajectory):
    doc = network_model_to_dict(network_dmdc_exact(two_node_topology, two_node_trajectory))
    # a vertex that does not exist, an input vertex, and a message that is not a string
    doc["node_failures"] = {"nope": "made up", "e1": 3}
    with pytest.raises(TypeError):
        network_model_from_dict(doc)
    doc["node_failures"] = {"nope": "made up", "e1": "made up"}
    with pytest.raises(UnknownVertex, match=re.escape("['e1', 'nope']")):
        network_model_from_dict(doc)
    doc["node_failures"] = {"v2": "made up"}
    assert network_model_from_dict(doc).node_failures == {"v2": "made up"}


def test_ten_thousand_vertex_ring_is_solved_in_coefficient_space():
    # the dense A alone would take 800 MB at this size
    system = gen_circular(GeneratorConfig(Circular(10_000, 2), seed=3))
    t = system.topology
    traj = _trajectory(system, 10, 3)
    tracemalloc.start()
    try:
        model = network_dmdc_exact(t, traj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.coeffs.size == t.total_state_dim + len(t.edges)
    assert model.node_failures == {}
    assert peak < 64 * 2**20
