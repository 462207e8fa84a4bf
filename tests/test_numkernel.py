import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from helpers import conditioning_record, pinv_conditioning, rank_by_definition, reference_pinv_solve

from netdmd.errors import ConvergenceFailure, DimensionMismatch, NonFiniteEntry, NotSquare
from netdmd.numkernel import (
    EPS,
    EXACT_RULE,
    ConditioningRecord,
    FixedRank,
    MachineDefault,
    RelativeThreshold,
    conditioning_from_dict,
    conditioning_to_dict,
    eig,
    _kept,
    _pinv_stack,
    _qr_in_place,
    _rule_cut,
    _solve_triangular,
    _svd,
    _TRIANGULAR_BLOCK,
    as_matrix,
)
from netdmd.dmdcore import ExactLinearModel, dmd_reduced, dmdc_exact, dmdc_reduced, lift_reduced
from netdmd.netdmdc import model_error, network_dmdc_exact, network_dmdc_reduced
from netdmd.sysmodel import TrajectoryData
from netdmd.topology import NetworkTopology

# 3x3 stacked data matrix from the two-node worked example: [Z1; Gamma1]
STACK_3X3 = np.array([[2.0, 0.1, -1.63], [5.0, 4.3, 3.54], [0.2, 0.4, 0.8]])


def _kept_count(a, rule):
    """How many of ``a``'s singular values ``rule`` keeps, as the reduced solvers read it: :func:`_kept` under :func:`_rule_cut`."""
    return int(np.count_nonzero(_kept(_svd(a)[1], *_rule_cut(rule, a.shape))))


class TestTruncatedSvd:
    """The truncation rules, read from the library SVD the reduced solvers use, and dmd_reduced's cut SVD of z."""

    def test_identity_machine_default(self):
        assert _kept_count(np.eye(2), MachineDefault()) == 2
        model, _ = dmd_reduced(np.eye(2), np.eye(2), MachineDefault())
        assert model.p == 2
        assert (model.conditioning.sigma_max, model.conditioning.sigma_min) == (1.0, 1.0)

    def test_relative_threshold_discards_tiny(self):
        assert _kept_count(np.diag([3.0, 1e-16]), RelativeThreshold(1e-10)) == 1
        model, _ = dmd_reduced(np.diag([3.0, 1e-16]), np.eye(2), RelativeThreshold(1e-10))
        assert model.p == 1
        assert_allclose([model.conditioning.sigma_max, model.conditioning.sigma_min], [3.0, 1e-16])

    def test_full_rank_reconstruction(self):
        # with y = z and every value kept, a_tilde = u.T z v s^-1 is the identity and u_hat is square
        assert _kept_count(STACK_3X3, MachineDefault()) == 3
        model, _ = dmd_reduced(STACK_3X3, STACK_3X3, MachineDefault())
        assert model.p == 3
        assert np.linalg.norm(model.a_tilde - np.eye(3)) <= 1e-12
        assert np.linalg.norm(lift_reduced(model)[0] @ STACK_3X3 - STACK_3X3) <= 1e-12

    def test_all_zero_keeps_nothing_under_any_rule(self):
        # every rule keeps only sigma > 0, relative cuts included, so dmd_reduced of an all-zero z has p = 0
        for rule in (MachineDefault(), RelativeThreshold(0.5), FixedRank(1)):
            assert _kept_count(np.zeros((2, 2)), rule) == 0
            model, modes = dmd_reduced(np.zeros((2, 2)), np.eye(2), rule)
            assert (model.p, model.r, model.u_hat.shape) == (0, 0, (2, 0))
            assert not lift_reduced(model)[0].any() and modes.eigenvalues.size == 0
            assert (model.conditioning.sigma_max, model.conditioning.warning) == (0.0, True)

    def test_fixed_rank_caps_and_drops_exact_zeros(self):
        assert _kept_count(np.eye(2), FixedRank(5)) == 2
        assert _kept_count(np.zeros((2, 3)), FixedRank(2)) == 0
        assert _kept_count(np.diag([2.0, 0.0]), FixedRank(2)) == 1
        model, _ = dmd_reduced(np.diag([2.0, 0.0]), np.eye(2), FixedRank(5))
        assert model.p == 1 and model.u_hat.shape == (2, 1)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FixedRank(0)
        with pytest.raises(ValueError):
            RelativeThreshold(0.0)
        with pytest.raises(ValueError):
            RelativeThreshold(1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteEntry):
            dmd_reduced(np.array([[np.nan, 1.0]]), np.ones((1, 2)), MachineDefault())

    def test_random_orthonormality_and_reconstruction(self):
        # with y = z the lifted model is u_hat u_hat.T, which leaves exactly the discarded energy of z
        rng = np.random.default_rng(11)
        for _ in range(100):
            rows, cols = rng.integers(1, 9, size=2)
            a = rng.uniform(-5, 5, size=(rows, cols))
            rule = [MachineDefault(), RelativeThreshold(1e-3), FixedRank(int(rng.integers(1, 9)))][
                int(rng.integers(0, 3))
            ]
            model, _ = dmd_reduced(a, a, rule)
            k = model.p
            assert model.r == k == model.u_hat.shape[1] <= min(rows, cols)
            assert np.max(np.abs(model.u_hat.T @ model.u_hat - np.eye(k))) <= 1e-10
            assert model.conditioning.sigma_max >= model.conditioning.sigma_min >= 0
            s = np.linalg.svd(a, compute_uv=False)
            discarded = float(np.sum(s[k:] ** 2) / np.sum(s**2))
            err = np.linalg.norm(lift_reduced(model)[0] @ a - a)
            bound = (np.sqrt(discarded) + 1e-10) * np.linalg.norm(a)
            assert err <= bound + 1e-12


def test_fixed_rank_must_be_an_integer():
    # FixedRank(2.5) once built and failed in the solver with "slice indices must be integers"; True read as rank 1
    for rank in (2.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="rank must be an integer"):
            FixedRank(rank)
    assert FixedRank(np.int64(2)).rank == 2
    z = np.random.default_rng(5).uniform(-1, 1, (3, 6))
    assert dmd_reduced(z, z, FixedRank(np.int64(2)))[0].p == 2


def test_relative_threshold_must_be_a_number():
    # "0.5", None and 0.5j once failed in the range check with a bare TypeError
    for tau in ("0.5", None, 0.5j, True, False, [0.5]):
        with pytest.raises(ValueError, match="tau must be a number"):
            RelativeThreshold(tau)
    for tau in (0, 1, 0.0, 1.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"tau must lie in \(0, 1\)"):
            RelativeThreshold(tau)
    assert RelativeThreshold(np.float64(0.5)).tau == 0.5 and RelativeThreshold(np.float32(0.25)).tau == 0.25


@pytest.mark.parametrize("rule", [0.5, 1e-12, "junk", None, (FixedRank(2),)], ids=repr)
def test_a_value_that_is_not_a_rule_is_a_type_error(rule):
    # any such value once read as MachineDefault: dmdc_reduced(z, y, g, 0.5, 0.5) kept what MachineDefault keeps
    # (p = 4 below), and an old positional rcond, dmdc_exact(z, y, g, 1e-10), would have done the same
    rng = np.random.default_rng(3)
    z, y, gamma = rng.uniform(-1, 1, (3, 2, 6))
    t = NetworkTopology(("v1", "v2"), ("e1",), (("e1", "v1"), ("v1", "v2")), {"v1": 1, "v2": 1, "e1": 1})
    traj = TrajectoryData(z, gamma[:1], y, t.vertex_row_ranges())
    message = "a truncation rule must be FixedRank, RelativeThreshold or MachineDefault, got"
    for solve in (
        lambda: _rule_cut(rule, (4, 6)),
        lambda: dmdc_exact(z, y, gamma, rule),
        lambda: dmd_reduced(z, y, rule),
        lambda: dmdc_reduced(z, y, gamma, rule, MachineDefault()),
        lambda: dmdc_reduced(z, y, gamma, MachineDefault(), rule),
        lambda: network_dmdc_exact(t, traj, rule),
        lambda: network_dmdc_reduced(t, traj, rule, MachineDefault()),
        lambda: network_dmdc_reduced(t, traj, MachineDefault(), rule),  # scalar vertices: no projector is built
    ):
        with pytest.raises(TypeError, match=message):
            solve()


def test_truncation_rank_follows_each_rule():
    # the cases above, random matrices up to 8-by-8, and some of those with a repeated row
    rng = np.random.default_rng(11)
    cases = [np.eye(2), np.diag([3.0, 1e-16]), STACK_3X3, np.zeros((2, 3))]
    cases += [rng.uniform(-5, 5, size=rng.integers(1, 9, size=2)) for _ in range(100)]
    cases += [np.vstack([a, a[:1]]) for a in cases[4:20]]  # one value near zero
    rules = [MachineDefault(), RelativeThreshold(1e-3), RelativeThreshold(1e-10), FixedRank(1), FixedRank(2), FixedRank(5)]
    for a in cases:
        sigma = np.linalg.svd(a, compute_uv=False)
        for rule in rules:
            if not a.any() and not isinstance(rule, FixedRank):
                continue
            assert _kept_count(a, rule) == rank_by_definition(sigma, rule, a.shape), (a, rule)


def pseudoinverse(m):
    """The pseudoinverse alone, as ``pinv_conditioning`` returns it."""
    return pinv_conditioning(m)[0]


class TestPseudoinverse:
    def test_identity(self):
        assert_allclose(pseudoinverse(np.eye(3)), np.eye(3))

    def test_row_vector(self):
        pinv = pseudoinverse(np.array([[3.0, 4.0]]))
        assert_allclose(pinv, [[0.12], [0.16]], atol=1e-15)
        m = np.array([[3.0, 4.0]])
        assert_allclose(m @ pinv @ m, m, atol=1e-14)
        assert_allclose(pinv @ m @ pinv, pinv, atol=1e-14)

    def test_vector_is_a_row(self):
        assert_allclose(pseudoinverse([3.0, 4.0]), [[0.12], [0.16]], atol=1e-15)

    def test_zero_matrix(self):
        out = pseudoinverse(np.zeros((2, 3)))
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_penrose_identities_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rows, cols = rng.integers(1, 9, size=2)
            a = rng.uniform(-3, 3, size=(rows, cols))
            p = pseudoinverse(a)
            na = np.linalg.norm(a)
            np_ = np.linalg.norm(p)
            assert np.linalg.norm(a @ p @ a - a) <= 1e-8 * na
            assert np.linalg.norm(p @ a @ p - p) <= 1e-8 * np_
            ap = a @ p
            pa = p @ a
            assert np.linalg.norm(ap - ap.T) <= 1e-8 * max(1.0, np.linalg.norm(ap))
            assert np.linalg.norm(pa - pa.T) <= 1e-8 * max(1.0, np.linalg.norm(pa))

    def test_least_squares_matches_normal_equations(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            m = n + int(rng.integers(2, 6))
            z = rng.uniform(-2, 2, size=(n, m))
            y = rng.uniform(-2, 2, size=(3, m))
            gram = z @ z.T
            if np.linalg.cond(gram) > 1e8:
                continue
            via_pinv = y @ pseudoinverse(z)
            via_normal = y @ z.T @ np.linalg.inv(gram)
            assert np.linalg.norm(via_pinv - via_normal) <= 1e-8 * max(1.0, np.linalg.norm(via_normal))


class TestEig:
    def test_diagonal(self):
        res = eig(np.diag([2.0, -1.0]))
        assert_allclose(res.values, [2.0, -1.0])
        assert_allclose(res.vectors, np.eye(2), atol=1e-15)

    def test_rotation_tie_breaking(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        res = eig(m)
        assert_allclose(res.values, [1j, -1j], atol=1e-15)
        for lam, w in zip(res.values, res.vectors.T):
            assert np.linalg.norm(m @ w - lam * w) <= 1e-10

    def test_scalar(self):
        res = eig(np.array([[0.8]]))
        assert_allclose(res.values, [0.8])

    def test_not_square(self):
        with pytest.raises(NotSquare):
            eig(np.zeros((2, 3)))

    def test_rerun_is_bit_identical(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-1, 1, size=(6, 6))
        first = eig(m)
        second = eig(m)
        assert first.values.tobytes() == second.values.tobytes()
        assert first.vectors.tobytes() == second.vectors.tobytes()

    def test_ordering_is_total(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            m = rng.uniform(-2, 2, size=(5, 5))
            vals = eig(m).values
            keys = [(-abs(v), -v.real, -v.imag) for v in vals]
            assert keys == sorted(keys)

    def test_unit_norm_and_sign_rule(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(-1, 1, size=(5, 5))
        res = eig(m)
        for w in res.vectors.T:
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            lead = w[np.argmax(np.abs(w) > 1e-12 * np.abs(w).max())]
            assert lead.real > 0 or (lead.real == 0 and lead.imag >= 0)


def frobenius_norm(m):
    """The Frobenius norm as the program computes it: a model's distance from an all-zero truth."""
    a = np.asarray(m, dtype=float)
    return model_error(ExactLinearModel(a, None, ConditioningRecord(1.0, 1.0, 1e-12, False)), np.zeros(a.shape))


class TestFrobeniusNorm:
    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0

    def test_ones(self):
        assert frobenius_norm(np.ones((2, 2))) == 2.0

    def test_non_finite(self):
        with pytest.raises(NonFiniteEntry):
            frobenius_norm(np.array([[np.inf]]))


class TestConditioningRecord:
    def test_well_conditioned(self):
        rec = conditioning_record(np.eye(3))
        assert rec == ConditioningRecord(1.0, 1.0, 1e-12, False)
        assert rec.ratio == 1.0

    def test_warning_on_tiny_ratio(self):
        rec = conditioning_record(np.diag([1.0, 1e-12]))
        assert rec.warning
        assert rec.ratio == pytest.approx(1e-12)


def _solve(omega: np.ndarray, y: np.ndarray, rcond: float):
    """``_pinv_stack`` of the one gathered array ``[omega; y]``: ``y @ pinv(omega)`` and each matrix's sigma extremes."""
    solution, sigma = _pinv_stack(np.concatenate([omega, y], axis=1), omega.shape[1], rcond)
    return solution, sigma[:, 0], sigma[:, -1]


def _stack_pinv(omega: np.ndarray, rcond: float):
    """The pseudoinverses of a stack, as :func:`pinv_conditioning` computes each: the solve of the identity with min(k, m) rows, ``pinv(omega^T)^T`` when k < m."""
    g, k, m = omega.shape
    wide = k < m
    tall, r = (np.swapaxes(omega, 1, 2) if wide else omega), min(k, m)
    pinv, sigma_max, sigma_min = _solve(tall, np.broadcast_to(np.eye(r), (g, r, r)), rcond)
    return np.swapaxes(pinv, 1, 2) if wide else pinv, sigma_max, sigma_min


class TestPinvConditioning:
    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(8)
        stack = rng.uniform(-2, 2, size=(6, 3, 5))
        stack[2] = 0.0
        stack[4, 2] = stack[4, 0]  # rank deficient
        pinv, sigma_max, sigma_min = _stack_pinv(stack, EXACT_RULE.tau)
        assert pinv.shape == (6, 5, 3) and sigma_max.shape == sigma_min.shape == (6,)
        assert not pinv[2].any() and sigma_max[2] == sigma_min[2] == 0.0
        # the batched SVD factors each matrix on its own: the same values as one matrix at a time
        for a, p, hi, lo in zip(stack, pinv, sigma_max.tolist(), sigma_min.tolist()):
            one, rec = pinv_conditioning(a)
            assert np.array_equal(p, one) and (hi, lo) == (rec.sigma_max, rec.sigma_min)
            assert np.array_equal(one, pseudoinverse(a))
            assert np.linalg.norm(one - np.linalg.pinv(a, rcond=1e-12)) <= 1e-10 * max(1.0, np.linalg.norm(one))
            want = conditioning_record(a)
            assert abs(rec.sigma_max - want.sigma_max) <= 1e-12 * max(want.sigma_max, 1.0)
            assert abs(rec.sigma_min - want.sigma_min) <= 1e-12 * max(want.sigma_max, 1.0)
            assert rec.warning == want.warning
        assert pinv_conditioning(stack[2])[1] == ConditioningRecord(0.0, 0.0, 1e-12, True)
        assert pinv_conditioning(stack[4])[1].warning

    def test_singular_value_at_the_cutoff_is_kept(self):
        for a in (np.diag([2.0, 1.0]), np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])):
            assert np.array_equal(pinv_conditioning(a, rcond=0.5)[0], np.linalg.pinv(a))

    def test_exactly_singular_r_is_solved_through_its_svd_at_rcond_zero(self):
        # a zero column gives R an exact zero pivot, while rounding leaves sigma_min(R) ~ 5e-17 > 0
        a = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0], [2.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        for m in (a, a.T):
            pinv, rec = pinv_conditioning(m, rcond=0.0)
            assert np.all(np.isfinite(pinv)) and 0.0 < rec.sigma_min < 1e-15 * rec.sigma_max
            assert np.linalg.norm(pinv_conditioning(m)[0] - np.linalg.pinv(m)) <= 1e-14

    def test_wide_matrix_solves_an_identity_of_its_short_side(self):
        # the pseudoinverse of a k-by-m matrix, k < m, is pinv(omega^T)^T: an m-by-m identity
        # would take 3.2 GB here for a 0.48 MB result
        a = np.random.default_rng(9).uniform(-1, 1, (3, 20_000))
        tracemalloc.start()
        try:
            pinv, rec = pinv_conditioning(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        want = np.linalg.pinv(a)
        assert pinv.shape == (20_000, 3) and np.linalg.norm(pinv - want) <= 1e-12 * np.linalg.norm(want)
        record = conditioning_record(a)
        assert abs(rec.sigma_max - record.sigma_max) <= 1e-13 * record.sigma_max
        assert abs(rec.sigma_min - record.sigma_min) <= 1e-13 * record.sigma_min

    def test_empty_matrix(self):
        pinv, rec = pinv_conditioning(np.zeros((2, 0)))
        assert pinv.shape == (0, 2)
        assert rec == conditioning_record(np.zeros((2, 0))) == ConditioningRecord(0.0, 0.0, 1e-12, True)

    def test_rejects_bad_input(self):
        with pytest.raises(NonFiniteEntry):
            pinv_conditioning(np.full((2, 2, 2), np.nan))
        with pytest.raises(DimensionMismatch):
            pinv_conditioning(np.zeros((1, 2, 2, 2)))
        with pytest.raises(DimensionMismatch):
            pinv_conditioning(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            pinv_conditioning(np.eye(2), rcond=-1.0)
        with pytest.raises(ValueError):
            pinv_conditioning(np.eye(2), rcond=np.nan)


@pytest.mark.parametrize(
    "call",
    [as_matrix, lambda a: dmd_reduced(a, a), conditioning_record, eig, pinv_conditioning],
    ids=["as_matrix", "dmd_reduced", "conditioning_record", "eig", "pinv_conditioning"],
)
def test_arrays_of_more_than_two_dimensions_are_rejected(call):
    # a (2, 2, 2) array once reached LAPACK as a stack: truncation_rank 4, or an untyped ValueError
    with pytest.raises(DimensionMismatch, match=r"must be a matrix, got shape \(2, 2, 2\)"):
        call(np.ones((2, 2, 2)))
    # a scalar or a vector is still one row
    assert as_matrix(3.0).shape == (1, 1) and as_matrix([1.0, 2.0]).shape == (1, 2)


def test_none_is_rejected_before_the_nan_check():
    # np.asarray(None, dtype=float) is a 0-d NaN, which read as "contains NaN or Inf entries"
    with pytest.raises(DimensionMismatch, match=r"^gamma must be a matrix, got None$"):
        as_matrix(None, "gamma")


def _upper_triangular_stack(g: int, k: int, seed: int) -> np.ndarray:
    """G well-conditioned k-by-k R factors, from the QR of random tall matrices."""
    return np.linalg.qr(np.random.default_rng(seed).uniform(-1, 1, (g, k + 3, k)), mode="r")


@pytest.mark.parametrize("k", [1, 63, 64, 65, 200])
@pytest.mark.parametrize("transpose", [False, True], ids=["R", "R^T"])
def test_block_triangular_solve_matches_the_lu_solve(k, transpose):
    r = _upper_triangular_stack(3, k, k)
    b = np.random.default_rng(k + 1).uniform(-1, 1, (3, k, 5))
    a = np.swapaxes(r, 1, 2) if transpose else r
    got, want = _solve_triangular(r, b, transpose), np.linalg.solve(a, b)
    if k <= _TRIANGULAR_BLOCK:
        assert np.array_equal(got, want)  # one solve with all of R
    for one, reference in zip(got, want):
        assert np.linalg.norm(one - reference) <= 1e-13 * np.linalg.norm(reference)
    # each matrix of the stack is solved on its own
    for i in range(3):
        assert np.array_equal(_solve_triangular(r[i : i + 1], b[i : i + 1], transpose)[0], got[i])


@pytest.mark.parametrize(
    "k, m", [(63, 70), (64, 70), (65, 70), (130, 140), (70, 63), (140, 130)], ids=lambda v: str(v)
)
@pytest.mark.parametrize("d", [2, 5])
def test_pinv_stack_across_triangular_blocks(k, m, d):
    rng = np.random.default_rng(k * m + d)
    omega, y = rng.uniform(-1, 1, (3, k, m)), rng.uniform(-1, 1, (3, d, m))
    if k <= m:
        omega[1, -1] = omega[1, 0]  # a repeated row: the rcond rule cuts one value
    else:
        omega[1, :, -1] = omega[1, :, 0]  # a repeated column
    got, sigma_max, sigma_min = _solve(omega, y, EXACT_RULE.tau)
    pinv = _stack_pinv(omega, EXACT_RULE.tau)[0]
    want, want_max, want_min = reference_pinv_solve(omega, y, EXACT_RULE.tau)
    assert sigma_min[1] < EXACT_RULE.tau * sigma_max[1]
    for i in range(3):
        assert abs(sigma_max[i] - want_max[i]) <= 1e-12 * want_max[i]
        assert abs(sigma_min[i] - want_min[i]) <= 1e-12 * want_max[i]
        assert np.linalg.norm(got[i] - want[i]) <= 1e-12 * np.linalg.norm(want[i])
        reference = np.linalg.pinv(omega[i], rcond=EXACT_RULE.tau)
        assert np.linalg.norm(pinv[i] - reference) <= 1e-12 * np.linalg.norm(reference)
        one, one_max, one_min = _solve(omega[i : i + 1], y[i : i + 1], EXACT_RULE.tau)
        assert np.array_equal(one[0], got[i]) and (one_max[0], one_min[0]) == (sigma_max[i], sigma_min[i])


@given(st.integers(1, 130), st.integers(0, 3), st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
@example(k=130, d=3, extra=1, seed=0, zero_column=True, repeated_row=True)
@example(k=1, d=0, extra=1, seed=1, zero_column=False, repeated_row=False)
@settings(max_examples=60, deadline=None)
def test_in_place_qr_gives_numpys_r_bit_for_bit(k, d, extra, seed, zero_column, repeated_row):
    # a lone wide [omega; y] is factored in its own memory by dgeqrf through numpy.linalg.lapack_lite, and
    # np.linalg.qr runs dgeqrf through its own gufunc: both must give the kernel the same R and (y Q)^T
    m = k + extra
    data = np.random.default_rng(seed).uniform(-1, 1, (1, k + d, m))
    if zero_column:
        data[0, :, m // 2] = 0.0  # a zero snapshot
    if repeated_row:
        data[0, k - 1] = data[0, 0]  # a repeated row of omega (omega's only row when k = 1)
    want = np.linalg.qr(np.swapaxes(data, 1, 2), mode="r")
    factored = _qr_in_place(np.swapaxes(data, 1, 2))
    assert np.shares_memory(factored, data)
    assert np.array_equal(np.triu(factored[:, : want.shape[1]]), want)


def test_in_place_qr_factors_a_copy_of_what_it_may_not_overwrite():
    data = np.random.default_rng(3).uniform(-1, 1, (1, 5, 9))
    want = np.linalg.qr(np.swapaxes(data, 1, 2), mode="r")
    row_major = np.ascontiguousarray(np.swapaxes(data, 1, 2))  # [omega^T | y^T] in row-major order
    data.flags.writeable = False
    for a in (row_major, np.swapaxes(data, 1, 2)):
        before = a.copy()
        factored = _qr_in_place(a)
        assert not np.shares_memory(factored, a) and np.array_equal(a, before)
        assert np.array_equal(np.triu(factored[:, :5]), want)
    # the kernel solves read-only data without writing them
    assert np.array_equal(_pinv_stack(data, 3, EXACT_RULE.tau)[0], _pinv_stack(data.copy(), 3, EXACT_RULE.tau)[0])


@st.composite
def solve_stacks(draw):
    """``(omega, y, rcond)``: G in 1..8 matrices, k and m in 1..8 (wide, tall, square), d in 1..3.

    Each matrix is left as drawn, zeroed, or given repeated rows, so that
    all-zero and rank-deficient matrices come up in most examples, and most
    stacks mix matrices the rcond rule truncates with matrices it does not.
    Entries are multiples of 0.1 in [-4, 4].
    """
    g, k, m, d = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    entries = st.integers(-40, 40).map(lambda i: i / 10)
    omega = draw(arrays(np.float64, (g, k, m), elements=entries))
    for a in omega:
        kind = draw(st.sampled_from(["drawn", "zero", "repeated rows"]))
        if kind == "zero":
            a[...] = 0.0
        elif kind == "repeated rows":
            a[draw(st.lists(st.integers(0, k - 1), max_size=k))] = a[draw(st.integers(0, k - 1))]
    y = draw(arrays(np.float64, (g, d, m), elements=entries))
    return omega, y, draw(st.sampled_from([0.0, 1e-12, 0.5]))


def _clear_of_the_cutoff(a: np.ndarray, rcond: float) -> bool:
    """Whether rounding cannot change a matrix's solve much: every singular value kept is at least 1e-2 sigma_max, and every one is far from the cutoff."""
    sigma = np.linalg.svd(a, compute_uv=False)
    top = sigma[0]
    if top == 0.0:
        return True
    cut = rcond * top
    kept = sigma >= cut
    return bool(np.all(sigma[kept] >= 1e-2 * top) and np.all(np.abs(sigma - cut) > 1e-6 * top) and np.all(sigma[~kept] <= 0.5 * cut))


def _cancelling_case():
    """Matrix 1 of five: y pinv(omega) is exactly zero, [4, 0.1] [0.1, -4]^T / 16.01, but not in rounding."""
    omega, y = np.zeros((5, 1, 2)), np.zeros((5, 1, 2))
    omega[1], y[1] = [0.1, -4.0], [4.0, 0.1]
    return omega, y, 0.0


@given(solve_stacks())
@example(_cancelling_case())
@settings(max_examples=200, deadline=None)
def test_pinv_stack_matches_the_explicit_pseudoinverse(case):
    omega, y, rcond = case
    got, sigma_max, sigma_min = _solve(omega, y, rcond)
    pinv = _stack_pinv(omega, rcond)[0]
    want, want_max, want_min = reference_pinv_solve(omega, y, rcond)
    want_pinv = reference_pinv_solve(omega, None, rcond)[0]
    g, k, m = omega.shape
    assert got.shape == (g, y.shape[1], k) and pinv.shape == (g, m, k)
    # every singular value of each omega, descending, not only the extremes
    sigma = _pinv_stack(np.concatenate([omega, y], axis=1), k, rcond)[1]
    want_sigma = np.linalg.svd(omega, compute_uv=False)
    assert sigma.shape == want_sigma.shape and np.all(np.abs(sigma - want_sigma) <= 1e-12 * want_sigma[:, :1])
    for i in range(g):
        one, one_max, one_min = _solve(omega[i : i + 1], y[i : i + 1], rcond)
        assert np.array_equal(one[0], got[i]) and (one_max[0], one_min[0]) == (sigma_max[i], sigma_min[i])
        assert np.array_equal(_stack_pinv(omega[i : i + 1], rcond)[0][0], pinv[i])
        # the pseudoinverse is the solve of the identity through the tall side
        assert np.array_equal(pinv_conditioning(omega[i], rcond)[0], pinv[i])
        assert abs(sigma_max[i] - want_max[i]) <= 1e-12 * want_max[i]
        assert abs(sigma_min[i] - want_min[i]) <= 1e-12 * want_max[i]
        if _clear_of_the_cutoff(omega[i], rcond):
            # a solution that is zero by cancellation is zero only up to rounding: a few eps of |y| |pinv(omega)|
            floor = 4 * EPS * np.linalg.norm(y[i]) * np.linalg.norm(want_pinv[i])
            for reference in (want[i], y[i] @ np.linalg.pinv(omega[i], rcond=rcond)):
                assert np.linalg.norm(got[i] - reference) <= 1e-12 * np.linalg.norm(reference) + floor
            for reference in (want_pinv[i], np.linalg.pinv(omega[i], rcond=rcond)):
                assert np.linalg.norm(pinv[i] - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("k, m", [(3, 7), (7, 3), (4, 4), (1, 5)], ids=["wide", "tall", "square", "one row"])
@pytest.mark.parametrize("rank", [1, 2, 3, 8])
def test_pinv_stack_rank_cap_matches_the_explicit_pseudoinverse(k, m, rank):
    rng = np.random.default_rng(10 * k + rank)
    omega, y = rng.uniform(-2, 2, (5, k, m)), rng.uniform(-2, 2, (5, 2, m))
    omega[4] = 0.0  # keeps no value under any cap
    data = np.concatenate([omega, y], axis=1)
    got, sigma = _pinv_stack(data.copy(), k, 0.0, rank=rank)  # data is the kernel's workspace
    sigma_max, sigma_min = sigma[:, 0], sigma[:, -1]
    want, want_max, want_min = reference_pinv_solve(omega, y, 0.0, rank=rank)
    for i in range(5):
        assert np.linalg.norm(got[i] - want[i]) <= 1e-12 * np.linalg.norm(want[i])
        assert abs(sigma_max[i] - want_max[i]) <= 1e-12 * want_max[i]
        assert abs(sigma_min[i] - want_min[i]) <= 1e-12 * want_max[i]
    assert not got[4].any()
    if rank >= min(k, m):  # a cap that drops nothing is the uncapped solve, bit for bit
        assert np.array_equal(got, _pinv_stack(data, k, 0.0)[0])


def test_a_pivot_rounded_to_zero_sends_its_matrix_to_the_svd_path():
    # three equal rows leave this matrix rank 5, with two singular values near 1e-16 that rcond 0 keeps. Its
    # tall side is omega itself (8-by-7 here), solved through R^T, and the pivoted LU of that nearly singular
    # R^T rounds a pivot to exactly zero, a LinAlgError
    a = np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, -2.1],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, -2.1],
            [1.3, 1.5, 0.5, 1.2, 3.9, 3.2, 0.0, -2.8],
            [3.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3, -2.1],
            [0.0, 3.7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, -1.8, 0.0, 0.0, 0.0, -2.1, 0.0, 1.6],
        ]
    )
    rng = np.random.default_rng(2)
    omega, y = np.stack([a.T, rng.uniform(-2, 2, (8, 7))]), rng.uniform(-2, 2, (2, 3, 7))
    got, sigma_max, sigma_min = _solve(omega, y, 0.0)
    assert np.isfinite(got).all() and sigma_min[0] < 1e-15 * sigma_max[0]
    for i in range(2):  # each matrix as if alone: the other is solved through R, this one through its SVD
        one, one_max, one_min = _solve(omega[i : i + 1], y[i : i + 1], 0.0)
        assert np.array_equal(one[0], got[i]) and (one_max[0], one_min[0]) == (sigma_max[i], sigma_min[i])
    want = reference_pinv_solve(omega[1:], y[1:], 0.0)[0][0]
    assert np.linalg.norm(got[1] - want) <= 1e-12 * np.linalg.norm(want)
    assert np.isfinite(pinv_conditioning(a, 0.0)[0]).all()


def _svd_calls(monkeypatch):
    """Record ``(input shape, compute_uv)`` of each ``np.linalg.svd`` call."""
    real_svd = np.linalg.svd
    calls = []

    def svd(a, *args, compute_uv=True, **kwargs):
        calls.append((np.shape(a), compute_uv))
        return real_svd(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


SOLVE_SHAPES = pytest.mark.parametrize("k, m", [(3, 7), (7, 3), (4, 4)], ids=["wide", "tall", "square"])


@SOLVE_SHAPES
def test_full_rank_stack_computes_no_singular_vectors(monkeypatch, k, m):
    rng = np.random.default_rng(3)
    omega, y = rng.uniform(-2, 2, (5, k, m)), rng.uniform(-2, 2, (5, 2, m))
    calls = _svd_calls(monkeypatch)
    got, sigma_max, sigma_min = _solve(omega, y, EXACT_RULE.tau)
    # one values-only SVD, of the stack of R factors from the QR of each matrix's tall side
    assert calls == [((5, min(k, m), min(k, m)), False)]
    want, want_max, want_min = reference_pinv_solve(omega, y, EXACT_RULE.tau)
    assert np.all(np.abs(sigma_max - want_max) <= 1e-12 * want_max)
    assert np.all(np.abs(sigma_min - want_min) <= 1e-12 * want_max)
    for one, reference in zip(got, want):
        assert np.linalg.norm(one - reference) <= 1e-12 * np.linalg.norm(reference)


@SOLVE_SHAPES
def test_only_a_truncated_matrix_gets_singular_vectors(monkeypatch, k, m):
    rng = np.random.default_rng(4)
    omega, y = rng.uniform(-2, 2, (5, k, m)), rng.uniform(-2, 2, (5, 2, m))
    if k <= m:
        omega[2, -1] = omega[2, 0]  # a repeated row: rank k - 1
    else:
        omega[2, :, -1] = omega[2, :, 0]  # a repeated column: rank m - 1
    calls = _svd_calls(monkeypatch)
    got, sigma_max, sigma_min = _solve(omega, y, EXACT_RULE.tau)
    r = min(k, m)
    assert calls == [((5, r, r), False), ((1, r, r), True)]
    assert sigma_min[2] < EXACT_RULE.tau * sigma_max[2]
    want = y[2] @ np.linalg.pinv(omega[2], rcond=EXACT_RULE.tau)
    assert np.linalg.norm(got[2] - want) <= 1e-12 * np.linalg.norm(want)
    for i in range(5):
        calls.clear()
        one, one_max, one_min = _solve(omega[i : i + 1], y[i : i + 1], EXACT_RULE.tau)
        assert calls == [((1, r, r), False)] + [((1, r, r), True)] * (i == 2)
        assert np.array_equal(one[0], got[i]) and (one_max[0], one_min[0]) == (sigma_max[i], sigma_min[i])


def _qr_calls(monkeypatch):
    """Record ``(input shape, mode)`` of each ``np.linalg.qr`` call."""
    real_qr = np.linalg.qr
    calls = []

    def qr(a, mode="reduced"):
        calls.append((np.shape(a), mode))
        return real_qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", qr)
    return calls


def test_wide_stack_with_y_forms_no_q(monkeypatch):
    rng = np.random.default_rng(5)
    omega, y = rng.uniform(-2, 2, (4, 6, 9)), rng.uniform(-2, 2, (4, 2, 9))
    calls = _qr_calls(monkeypatch)
    got = _solve(omega, y, EXACT_RULE.tau)[0]
    # one R-only QR of [omega^T | y^T], G by m by k + d: the gathered [omega; y] in column-major order
    assert calls == [((4, 9, 8), "r")]
    want = reference_pinv_solve(omega, y, EXACT_RULE.tau)[0]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the pseudoinverse solves the identity with min(k, m) rows through omega's tall side, keeping Q:
    # no m-by-(k + m) factorization
    calls.clear()
    pinv_conditioning(rng.uniform(-2, 2, (3, 50)))
    assert calls == [((1, 50, 3), "reduced")]
    # y with more rows than omega (d > k) is read from the same one R factor
    omega, y = rng.uniform(-2, 2, (4, 2, 9)), rng.uniform(-2, 2, (4, 3, 9))
    calls.clear()
    got = _solve(omega, y, EXACT_RULE.tau)[0]
    assert calls == [((4, 9, 5), "r")]
    want = reference_pinv_solve(omega, y, EXACT_RULE.tau)[0]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize(
    "call",
    [
        conditioning_record,
        lambda a: dmd_reduced(a, a),
        pinv_conditioning,
        lambda a: _stack_pinv(np.stack([a, a]), EXACT_RULE.tau),
        eig,
    ],
    ids=["conditioning_record", "dmd_reduced", "pinv_conditioning", "pinv_stack", "eig"],
)
def test_svd_non_convergence_is_typed(call, monkeypatch):
    def fail(message):
        def routine(*args, **kwargs):
            raise np.linalg.LinAlgError(message)

        return routine

    monkeypatch.setattr(np.linalg, "svd", fail("SVD did not converge"))
    monkeypatch.setattr(np.linalg, "eig", fail("Eigenvalues did not converge"))
    with pytest.raises(ConvergenceFailure, match="did not converge"):
        call(STACK_3X3)


def test_conditioning_dict_round_trip():
    rec = conditioning_record(STACK_3X3)
    doc = conditioning_to_dict(rec)
    assert list(doc) == ["sigma_max", "sigma_min", "rcond_used", "warning"]
    assert conditioning_from_dict(doc) == rec
