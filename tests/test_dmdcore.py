import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from helpers import build_local_data, conditioning_record, reference_dmd_reduced, reference_dmdc_reduced

from netdmd.errors import DimensionMismatch
from netdmd.netdmdc import network_dmdc_reduced
from netdmd.numkernel import EPS, FixedRank, MachineDefault, RelativeThreshold, _kept, _rule_cut, eig
from netdmd.topology import NetworkTopology
from netdmd.dmdcore import (
    dmd_modes,
    dmd_reduced,
    dmdc_exact,
    dmdc_reduced,
    lift_reduced,
    model_from_dict,
    model_to_dict,
    predict,
)
from netdmd.sysmodel import Circular, GeneratorConfig, TrajectoryData, derive_rng, gen_circular, simulate

NODE1 = {
    "z": np.array([[2.0, 0.1, -1.63]]),
    "y": np.array([[0.1, -1.63, -2.926]]),
    "gamma": np.array([[5.0, 4.3, 3.54], [0.2, 0.4, 0.8]]),
}
NODE2 = {
    "z": np.array([[5.0, 4.3, 3.54]]),
    "y": np.array([[4.3, 3.54, 3.132]]),
    "gamma": np.array([[0.3, 0.1, 0.3]]),
}


class TestDmdExact:
    def test_identity_snapshots(self):
        model = dmdc_exact(np.eye(2), np.diag([2.0, 3.0]))
        assert_allclose(model.a, np.diag([2.0, 3.0]), atol=1e-14)
        assert model.b is None

    def test_zero_successors(self):
        model = dmdc_exact(np.eye(3), np.zeros((3, 3)))
        assert np.all(model.a == 0.0)

    def test_recovers_constructed_operator(self):
        rng = np.random.default_rng(21)
        a0 = rng.uniform(-1, 1, (4, 4))
        z = rng.uniform(-1, 1, (4, 6))
        model = dmdc_exact(z, a0 @ z)
        assert np.linalg.norm(model.a - a0) <= 1e-8 * np.linalg.norm(a0)

    def test_column_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dmdc_exact(np.eye(2), np.zeros((2, 3)))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda a, m: dmdc_exact(a, m), "z"),
        (lambda a, m: dmdc_exact(m, a), "y"),
        (lambda a, m: dmdc_exact(m, m, a), "gamma"),
        (lambda a, m: dmd_reduced(a, m), "z"),
        (lambda a, m: dmdc_reduced(m, m, a), "gamma"),
    ],
    ids=["dmdc_exact z", "dmdc_exact y", "dmdc_exact gamma", "dmd_reduced", "dmdc_reduced"],
)
def test_data_of_more_than_two_dimensions_are_rejected(call, name):
    with pytest.raises(DimensionMismatch, match=f"^{name} must be a matrix"):
        call(np.ones((2, 2, 2)), np.ones((2, 2)))


@pytest.mark.parametrize(
    "call",
    [dmdc_exact, dmd_reduced, lambda z, y: dmdc_reduced(z, y, np.ones((1, 5)))],
    ids=["dmdc_exact", "dmd_reduced", "dmdc_reduced"],
)
def test_y_needs_the_rows_of_z(call):
    # dmd_reduced checked columns only, and a 4-row y met numpy's matmul error
    rng = np.random.default_rng(3)
    with pytest.raises(DimensionMismatch, match=r"^z has 3 rows but y has 4$"):
        call(rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, (4, 5)))


def test_a_missing_gamma_is_not_a_nan():
    # None once read as a 0-d NaN, so dmdc_reduced reported non-finite gamma entries
    z = np.random.default_rng(4).uniform(-1, 1, (2, 6))
    with pytest.raises(DimensionMismatch, match=r"^gamma must be a matrix, got None$"):
        dmdc_reduced(z, z, None)
    assert dmdc_exact(z, z, None).b is None  # plain DMD


class TestDmdcExact:
    def test_worked_node1(self):
        model = dmdc_exact(**NODE1)
        assert_allclose(model.a, [[1.2]], atol=1e-9)
        assert_allclose(model.b, [[-0.5, 1.0]], atol=1e-9)

    def test_worked_node2(self):
        model = dmdc_exact(**NODE2)
        assert_allclose(model.a, [[0.8]], atol=1e-9)
        assert_allclose(model.b, [[1.0]], atol=1e-9)

    def test_min_norm_zeroes_unexcited_input(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(-1, 1, (3, 8))
        model = dmdc_exact(z, 2.0 * z, np.zeros((1, 8)))
        assert_allclose(model.a, 2.0 * np.eye(3), atol=1e-10)
        assert_allclose(model.b, np.zeros((3, 1)), atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(-1, 1, (3, 10))
        gamma = rng.uniform(-1, 1, (2, 10))
        y = rng.uniform(-1, 1, (3, 10))
        omega = np.vstack([z, gamma])
        model = dmdc_exact(z, y, gamma)
        oracle = y @ omega.T @ np.linalg.inv(omega @ omega.T)
        assert_allclose(np.hstack([model.a, model.b]), oracle, atol=1e-10)

    def test_conditioning_recorded(self):
        model = dmdc_exact(**NODE1)
        assert model.conditioning.sigma_max > 0
        assert model.conditioning.rcond_used == pytest.approx(1e-12)

    def test_exact_recovery_with_full_row_rank(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n, l = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            a0 = rng.uniform(-1, 1, (n, n))
            b0 = rng.uniform(-1, 1, (n, l))
            m = n + l + 3
            z = rng.uniform(-1, 1, (n, m))
            gamma = rng.uniform(-1, 1, (l, m))
            model = dmdc_exact(z, a0 @ z + b0 @ gamma, gamma)
            truth = np.hstack([a0, b0])
            got = np.hstack([model.a, model.b])
            assert np.linalg.norm(got - truth) <= 1e-8 * np.linalg.norm(truth)

    def test_wide_solve_holds_at_most_three_copies_of_the_data(self):
        # [z; gamma; y] is gathered once and factored as it is: no [z; gamma] copy and no second
        # concatenation beside the gathered array, qr's own copy and its R factor
        rng = np.random.default_rng(12)
        n, l, m = 300, 150, 600
        z, gamma, y = rng.uniform(-1, 1, (n, m)), rng.uniform(-1, 1, (l, m)), rng.uniform(-1, 1, (n, m))
        tracemalloc.start()
        try:
            model = dmdc_exact(z, y, gamma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.a.shape == (n, n) and model.b.shape == (n, l)
        assert peak <= 3.3 * (n + l + n) * m * 8

    def test_a_lone_wide_solve_is_factored_in_its_gathered_data(self):
        # dense_dmdc's shape at a fifth: 160 states and 80 inputs (k = 240), 160 rows of y, 260 snapshots.
        # Beside the gathered [omega; y] live only R's k-by-k copy, the d-by-k solution and the
        # triangular solve's blocks: np.linalg.qr's copies of the whole array are gone
        rng = np.random.default_rng(12)
        n, l, m = 160, 80, 260
        z, gamma, y = rng.uniform(-1, 1, (n, m)), rng.uniform(-1, 1, (l, m)), rng.uniform(-1, 1, (n, m))
        tracemalloc.start()
        try:
            model = dmdc_exact(z, y, gamma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.b.shape == (n, l) and not model.conditioning.warning
        assert peak <= 2.5 * (n + l + n) * m * 8


class TestDmdcReduced:
    def test_full_rank_lift_matches_exact(self):
        exact = dmdc_exact(**NODE1)
        reduced, _ = dmdc_reduced(NODE1["z"], NODE1["y"], NODE1["gamma"], FixedRank(3), FixedRank(1))
        a, b = lift_reduced(reduced)
        assert np.linalg.norm(a - exact.a) <= 1e-8
        assert np.linalg.norm(b - exact.b) <= 1e-8

    def test_identity_columns(self):
        z = y = np.eye(3)
        reduced, modes = dmdc_reduced(z, y, np.zeros((1, 3)))
        assert_allclose(reduced.a_tilde, np.eye(reduced.r), atol=1e-12)
        assert_allclose(modes.eigenvalues, np.ones(reduced.r), atol=1e-12)

    def test_diagonal_system_eigenvalues(self):
        rng = np.random.default_rng(12)
        a0 = np.diag([0.9, 0.5])
        b0 = rng.uniform(-1, 1, (2, 1))
        z = rng.uniform(-1, 1, (2, 12))
        gamma = rng.uniform(-1, 1, (1, 12))
        y = a0 @ z + b0 @ gamma
        _, modes = dmdc_reduced(z, y, gamma)
        assert_allclose(sorted(modes.eigenvalues.real, reverse=True), [0.9, 0.5], atol=1e-8)
        assert np.max(np.abs(modes.eigenvalues.imag)) <= 1e-10

    def test_all_zero_data_give_the_zero_model(self):
        reduced, modes = dmdc_reduced(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((1, 3)))
        assert (reduced.p, reduced.r) == (0, 0)
        a, b = lift_reduced(reduced)
        assert (a.shape, b.shape) == ((2, 2), (2, 1)) and not a.any() and not b.any()
        assert modes.eigenvalues.size == 0
        assert (reduced.conditioning.sigma_max, reduced.conditioning.warning) == (0.0, True)

    def test_scalar_nodes_have_sign_projectors(self):
        for node in (NODE1, NODE2):
            reduced, _ = dmdc_reduced(node["z"], node["y"], node["gamma"], FixedRank(3), FixedRank(1))
            assert reduced.u_hat.shape == (1, 1)
            assert abs(abs(reduced.u_hat[0, 0]) - 1.0) <= 1e-12

    def test_machine_default_cuts_at_the_shape_of_omega(self):
        # sigma 5e-15 lies between 2 eps, the cut for the 2-by-2 R the solve factors, and 100 eps, the cut for
        # the 2-by-100 omega: MachineDefault drops it
        rng = np.random.default_rng(0)
        omega = np.diag([1.0, 5e-15]) @ np.linalg.qr(rng.standard_normal((100, 2)))[0].T
        z, y, gamma = omega[:1], rng.standard_normal((1, 100)), omega[1:]
        assert dmdc_reduced(z, y, gamma)[0].p == reference_dmdc_reduced(z, y, gamma).p == 1

    def test_projectors_orthonormal(self):
        # each node of a ring of two-dimensional vertices, on its own local data
        system = gen_circular(GeneratorConfig(Circular(8, 2), seed=3))
        t = system.topology
        rng = derive_rng(3, 5)
        traj = simulate(system, rng.uniform(-1, 1, 8), rng.uniform(-1, 1, (4, 10)))
        for v in t.state_vertices:
            ld = build_local_data(t, traj, v)
            u = dmdc_reduced(ld.z_j, ld.y_j, ld.gamma_j)[0].u_hat
            assert np.max(np.abs(u.T @ u - np.eye(u.shape[1]))) <= 1e-10


RULES = st.sampled_from(
    [MachineDefault(), RelativeThreshold(1e-3), RelativeThreshold(0.1), RelativeThreshold(0.5), FixedRank(1), FixedRank(2), FixedRank(4)]
)


@st.composite
def reduced_regressions(draw):
    """``(z, y, gamma, input_rule, output_rule)``: n in 1..4 states, l in 0..3 inputs, m in 1..8 snapshots.

    ``[z; gamma]`` and y are each left as drawn, given repeated rows or
    zeroed, so that rank-deficient and all-zero data come up often. Entries
    are multiples of 0.1 in [-4, 4].
    """
    n, l, m = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 8))
    entries = st.integers(-40, 40).map(lambda i: i / 10)
    omega, y = draw(arrays(np.float64, (n + l, m), elements=entries)), draw(arrays(np.float64, (n, m), elements=entries))
    for a in (omega, y):
        kind = draw(st.sampled_from(["drawn", "repeated rows", "zero"]))
        if kind == "zero":
            a[...] = 0.0
        elif kind == "repeated rows":
            a[draw(st.lists(st.integers(0, len(a) - 1), max_size=len(a)))] = a[draw(st.integers(0, len(a) - 1))]
    return omega[:n], y, omega[n:], draw(RULES), draw(RULES)


def _clear_of_the_cut(sigma: np.ndarray, rule, shape) -> bool:
    """Whether no singular value the rule may keep lies within 1e-12 sigma_max of its cut, so rounding cannot move the rank."""
    rcond, rank = _rule_cut(rule, shape)
    return not np.any(np.abs(sigma[:rank] - rcond * sigma[0]) <= 1e-12 * sigma[0])


@given(reduced_regressions())
@settings(max_examples=300, deadline=None)
def test_dmdc_reduced_matches_the_two_svd_reference(case):
    z, y, gamma, input_rule, output_rule = case
    omega = np.vstack([z, gamma])
    got, _ = dmdc_reduced(z, y, gamma, input_rule, output_rule)
    want = reference_dmdc_reduced(z, y, gamma, input_rule, output_rule)
    sigma, sigma_y = np.linalg.svd(omega, compute_uv=False), np.linalg.svd(y, compute_uv=False)
    top = sigma[0]
    assert abs(got.conditioning.sigma_max - want.conditioning.sigma_max) <= 1e-12 * top
    assert abs(got.conditioning.sigma_min - want.conditioning.sigma_min) <= 1e-12 * top
    assert got.conditioning.rcond_used == want.conditioning.rcond_used
    if not (omega.any() and y.any()):
        # no rule keeps a value of an all-zero matrix: p = 0 where omega is zero, r = 0 where y is, and the model is zero
        assert omega.any() or got.p == want.p == 0
        assert y.any() or got.r == want.r == 0
        for model in (got, want):
            assert not np.hstack(lift_reduced(model)).any()
        return
    if _clear_of_the_cut(sigma_y, output_rule, y.shape):
        assert got.r == want.r
    if not (_clear_of_the_cut(sigma, input_rule, omega.shape) and got.r == want.r):
        return
    assert got.p == want.p
    # y pinv_p(omega) moves by about eps |y| / sigma_p times the kept sigma ratio, and times sigma_max over
    # the gap to the first value dropped (0 when none is)
    p = got.p
    gap = sigma[p - 1] - (sigma[p] if p < sigma.size else 0.0)
    tol = 1e3 * EPS * np.linalg.norm(y) / sigma[p - 1] * (top / sigma[p - 1] + top / gap)
    (a, b), (a_ref, b_ref) = lift_reduced(got), lift_reduced(want)
    assert np.linalg.norm(np.hstack([a - a_ref, b - b_ref])) <= tol


@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 10), st.integers(0, 2**32 - 1), RULES, st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_one_vertex_network_is_the_whole_system_reduced_solve(n, l, m, seed, input_rule, rank):
    # one state vertex of dim n read by one input vertex: the node's local data are the whole system's,
    # so the network's projected strip P G diag(P, I) is the lift of dmdc_reduced, here with r < n
    t = NetworkTopology(("v1",), ("e1",), (("e1", "v1"),), {"v1": n, "e1": l})
    rng = np.random.default_rng(seed)
    z, y, gamma = rng.standard_normal((n, m)), rng.standard_normal((n, m)), rng.standard_normal((l, m))
    output_rule = FixedRank(min(rank, n - 1))
    model = network_dmdc_reduced(t, TrajectoryData(z, gamma, y, t.vertex_row_ranges()), input_rule, output_rule)
    a, b = lift_reduced(dmdc_reduced(z, y, gamma, input_rule, output_rule)[0])
    want = np.hstack([a, b])
    assert model.node_failures == {}
    assert np.linalg.norm(np.hstack([model.assembled_a, model.assembled_b]) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("rule", [MachineDefault(), RelativeThreshold(1e-3), FixedRank(2)], ids=["machine_default", "relative", "fixed_rank"])
@pytest.mark.parametrize("zero", ["omega", "y", "both"])
@pytest.mark.parametrize("solver", ["dmd_reduced", "dmdc_reduced", "network_dmdc_reduced"])
def test_all_zero_data_give_the_zero_model_under_every_rule(solver, zero, rule):
    # omega is [z; gamma], or z for dmd_reduced; the network is one state vertex of dim 3 read by one input of
    # dim 2, so its node's local data are the whole system's. The suite turns any numpy warning into an error
    rng = np.random.default_rng(4)
    z, y, gamma = rng.standard_normal((3, 6)), rng.standard_normal((3, 6)), rng.standard_normal((2, 6))
    if zero != "y":
        z[...] = gamma[...] = 0.0
    if zero != "omega":
        y[...] = 0.0
    omega = z if solver == "dmd_reduced" else np.vstack([z, gamma])
    p, r = (int(np.count_nonzero(_kept(np.linalg.svd(a, compute_uv=False), *_rule_cut(rule, a.shape)))) for a in (omega, y))
    if solver == "network_dmdc_reduced":
        t = NetworkTopology(("v1",), ("e1",), (("e1", "v1"),), {"v1": 3, "e1": 2})
        model = network_dmdc_reduced(t, TrajectoryData(z, gamma, y, t.vertex_row_ranges()), rule, rule)
        assert model.node_failures == {}
        lifted, record = np.hstack([model.assembled_a, model.assembled_b]), model.per_node_conditioning["v1"]
    else:
        model, modes = dmd_reduced(z, y, rule) if solver == "dmd_reduced" else dmdc_reduced(z, y, gamma, rule, rule)
        assert (model.p, model.r) == ((p, p) if solver == "dmd_reduced" else (p, r))
        assert modes.eigenvalues.size == 0
        lifted, record = np.hstack([m for m in lift_reduced(model) if m is not None]), model.conditioning
    assert np.isfinite(lifted).all() and not lifted.any()
    assert record.warning == (not omega.any())  # an all-zero omega always warns; the drawn one is well conditioned


@st.composite
def reduced_autonomous_regressions(draw):
    """``(z, y, rule)``: n in 1..5 states, m in 1..8 snapshots, entries multiples of 0.1 in [-4, 4].

    z is left as drawn, given repeated rows, zero columns or zeroed, and y
    is drawn or zeroed, so that rank-deficient and all-zero data come up often.
    """
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    entries = st.integers(-40, 40).map(lambda i: i / 10)
    z, y = draw(arrays(np.float64, (n, m), elements=entries)), draw(arrays(np.float64, (n, m), elements=entries))
    kind = draw(st.sampled_from(["drawn", "repeated rows", "zero columns", "zero"]))
    if kind == "zero":
        z[...] = 0.0
    elif kind == "repeated rows":
        z[draw(st.lists(st.integers(0, n - 1), max_size=n))] = z[draw(st.integers(0, n - 1))]
    elif kind == "zero columns":
        z[:, draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m))] = 0.0
    if draw(st.integers(0, 3)) == 0:
        y[...] = 0.0
    return z, y, draw(RULES)


@given(reduced_autonomous_regressions())
@settings(max_examples=300, deadline=None)
def test_dmd_reduced_matches_the_one_svd_reference(case):
    z, y, rule = case
    got, _ = dmd_reduced(z, y, rule)
    want = reference_dmd_reduced(z, y, rule)
    sigma = np.linalg.svd(z, compute_uv=False)
    top = sigma[0]
    assert abs(got.conditioning.sigma_max - want.conditioning.sigma_max) <= 1e-12 * top
    assert abs(got.conditioning.sigma_min - want.conditioning.sigma_min) <= 1e-12 * top
    assert got.conditioning.rcond_used == want.conditioning.rcond_used
    assert got.r == got.p and want.r == want.p
    if not (z.any() and y.any()):
        # no rule keeps a value of an all-zero z, so p = 0; an all-zero y gives a zero a_tilde: the model is zero
        assert z.any() or got.p == want.p == 0
        assert not lift_reduced(got)[0].any() and not lift_reduced(want)[0].any()
        return
    if not _clear_of_the_cut(sigma, rule, z.shape):
        return
    assert got.p == want.p
    # the lift u_p u_p.T y v_p s_p^-1 u_p.T moves by about eps |y| / sigma_p times the kept sigma ratio, and
    # times sigma_max over the gap to the first value dropped (0 when none is)
    p = got.p
    gap = sigma[p - 1] - (sigma[p] if p < sigma.size else 0.0)
    tol = 1e3 * EPS * np.linalg.norm(y) / sigma[p - 1] * (top / sigma[p - 1] + top / gap)
    assert np.linalg.norm(lift_reduced(got)[0] - lift_reduced(want)[0]) <= tol


class TestDmdReduced:
    def test_identity_dynamics(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-1, 1, (3, 6))
        _, modes = dmd_reduced(z, z)
        assert_allclose(modes.eigenvalues, np.ones(3), atol=1e-10)

    def test_scalar_dynamics(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(-1, 1, (4, 9))
        _, modes = dmd_reduced(z, 0.7 * z)
        assert_allclose(modes.eigenvalues.real, 0.7, atol=1e-10)

    def test_known_operator_modes(self):
        a0 = np.array([[0.9, 0.1], [0.0, 0.5]])
        rng = np.random.default_rng(14)
        z = rng.uniform(-1, 1, (2, 10))
        reduced, modes = dmd_reduced(z, a0 @ z)
        oracle = eig(a0)
        assert_allclose(modes.eigenvalues, oracle.values, atol=1e-8)
        for lam, phi in zip(modes.eigenvalues, modes.modes.T):
            assert np.linalg.norm(a0 @ phi - lam * phi) <= 1e-8
        # columns proportional to the true eigenvectors
        for phi, w in zip(modes.modes.T, oracle.vectors.T):
            phi_unit = phi / np.linalg.norm(phi)
            assert min(np.linalg.norm(phi_unit - w), np.linalg.norm(phi_unit + w)) <= 1e-8

    def test_zero_matrix_gives_the_zero_model(self):
        reduced, modes = dmd_reduced(np.zeros((2, 2)), np.eye(2))
        assert (reduced.p, reduced.u_hat.shape) == (0, (2, 0))
        assert not lift_reduced(reduced)[0].any() and modes.eigenvalues.size == 0


class TestPredict:
    def test_reproduces_worked_successors(self, two_node_trajectory):
        from netdmd.dmdcore import ExactLinearModel

        traj = two_node_trajectory
        a = np.array([[1.2, -0.5], [0.0, 0.8]])
        b = np.eye(2)
        exact = ExactLinearModel(a=a, b=b, conditioning=conditioning_record(traj.z))
        out = predict(exact, (2.0, 5.0), traj.gamma, 3)
        assert_allclose(out, traj.y, atol=1e-12)

    def test_zero_model(self):
        from netdmd.dmdcore import ExactLinearModel

        model = ExactLinearModel(np.zeros((2, 2)), np.zeros((2, 1)), conditioning_record(np.eye(2)))
        out = predict(model, (1.0, 2.0), np.ones((1, 4)), 4)
        assert np.all(out == 0.0)

    def test_identity_autonomous(self):
        from netdmd.dmdcore import ExactLinearModel

        model = ExactLinearModel(np.eye(2), None, conditioning_record(np.eye(2)))
        out = predict(model, (1.0, -1.0), None, 3)
        assert_allclose(out, np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]]))

    def test_reduced_matches_exact_over_rollout(self):
        rng = np.random.default_rng(30)
        a0 = rng.uniform(-0.5, 0.5, (4, 4))
        b0 = rng.uniform(-1, 1, (4, 2))
        z = rng.uniform(-1, 1, (4, 20))
        gamma = rng.uniform(-1, 1, (2, 20))
        y = a0 @ z + b0 @ gamma
        exact = dmdc_exact(z, y, gamma)
        reduced, _ = dmdc_reduced(z, y, gamma, FixedRank(6), FixedRank(4))
        x0 = rng.uniform(-1, 1, 4)
        u = rng.uniform(-1, 1, (2, 10))
        assert np.linalg.norm(predict(exact, x0, u, 10) - predict(reduced, x0, u, 10)) <= 1e-6

    @pytest.mark.parametrize(
        "b, x0, inputs, m, message",
        [
            (np.ones((2, 1)), (1.0, 1.0), np.ones((1, 4)), 0, "need at least one prediction step"),
            (np.ones((2, 1)), (1.0, 1.0, 1.0), np.ones((1, 4)), 4, "x0 has 3 entries, model expects 2"),
            (None, (1.0, 1.0), np.ones((1, 4)), 4, "model has no input operator but inputs were given"),
            (np.ones((2, 1)), (1.0, 1.0), np.ones((2, 4)), 4, r"inputs must be \(1, 4\), got \(2, 4\)"),
        ],
        ids=["no_steps", "x0_size", "inputs_without_b", "input_shape"],
    )
    def test_bad_arguments_raise(self, b, x0, inputs, m, message):
        from netdmd.dmdcore import ExactLinearModel

        model = ExactLinearModel(np.eye(2), b, conditioning_record(np.eye(2)))
        with pytest.raises(DimensionMismatch, match=message):
            predict(model, x0, inputs, m)


class TestModes:
    def test_exact_mode_residual(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            z = rng.uniform(-1, 1, (5, 12))
            y = rng.uniform(-1, 1, (5, 12))
            model = dmdc_exact(z, y)
            modes = dmd_modes(model)
            a_norm = np.linalg.norm(model.a)
            for lam, phi in zip(modes.eigenvalues, modes.modes.T):
                assert np.linalg.norm(model.a @ phi - lam * phi) <= 1e-6 * a_norm

    def test_exact_mode_matrix_residual(self):
        rng = np.random.default_rng(41)
        z = rng.uniform(-1, 1, (4, 10))
        y = rng.uniform(-1, 1, (4, 10))
        model = dmdc_exact(z, y)
        modes = dmd_modes(model)
        lhs = model.a @ modes.modes
        rhs = modes.modes @ np.diag(modes.eigenvalues)
        assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(model.a) * np.linalg.norm(modes.modes)

    def test_near_zero_eigenvalues_excluded(self):
        # rank-1 dynamics: most eigenvalues of a are exactly zero
        z = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]])
        y = np.vstack([z[0] * 0.5, z[0] * 0.25, z[0] * 0.125])
        model = dmdc_exact(z, y)
        modes = dmd_modes(model)
        assert modes.n_zero_excluded >= 1
        assert modes.eigenvalues.size + modes.n_zero_excluded == 3


class TestDeterminismAndSerialization:
    def test_identical_inputs_bit_identical_models(self):
        rng = np.random.default_rng(50)
        z = rng.uniform(-1, 1, (3, 7))
        y = rng.uniform(-1, 1, (3, 7))
        gamma = rng.uniform(-1, 1, (2, 7))
        m1 = dmdc_exact(z, y, gamma)
        m2 = dmdc_exact(z, y, gamma)
        assert m1.a.tobytes() == m2.a.tobytes()
        assert m1.b.tobytes() == m2.b.tobytes()

    def test_model_json_round_trip(self):
        rng = np.random.default_rng(51)
        z = rng.uniform(-1, 1, (3, 8))
        y = rng.uniform(-1, 1, (3, 8))
        gamma = rng.uniform(-1, 1, (1, 8))
        model = dmdc_exact(z, y, gamma)
        modes = dmd_modes(model)
        doc = model_to_dict(model, modes)
        back_model, back_modes = model_from_dict(doc)
        assert np.array_equal(back_model.a, model.a)
        assert np.array_equal(back_model.b, model.b)
        assert back_model.conditioning == model.conditioning
        assert np.array_equal(back_modes.eigenvalues, modes.eigenvalues)
        assert np.array_equal(back_modes.modes, modes.modes)

    def test_autonomous_model_round_trip(self):
        rng = np.random.default_rng(52)
        z = rng.uniform(-1, 1, (2, 5))
        model = dmdc_exact(z, rng.uniform(-1, 1, (2, 5)))
        back_model, _ = model_from_dict(model_to_dict(model))
        assert back_model.b is None
        assert np.array_equal(back_model.a, model.a)
