"""Dense linear-algebra kernels with explicit truncation and ordering rules.

Everything here is a pure function of its inputs; there is no module state,
so calls are safe from concurrent contexts. Real input matrices may have
complex spectra, which are always returned as explicit complex arrays.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from numpy.linalg import lapack_lite

from .errors import ConvergenceFailure, DimensionMismatch, NonFiniteEntry, NotSquare, _json_value

EPS = float(np.finfo(np.float64).eps)

#: A data matrix with sigma_min/sigma_max below this is flagged as ill conditioned.
ILL_CONDITIONED_RATIO = 1e-10


@dataclass(frozen=True)
class FixedRank:
    """Keep at most ``rank`` singular values (capped at min(rows, cols)); ``rank`` is an integer >= 1, not a bool."""

    rank: int

    def __post_init__(self):
        if isinstance(self.rank, bool) or not isinstance(self.rank, (int, np.integer)):
            raise ValueError(f"rank must be an integer, got {self.rank!r}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class RelativeThreshold:
    """Keep exactly the singular values with sigma_i >= tau * sigma_max."""

    tau: float

    def __post_init__(self):
        if isinstance(self.tau, bool) or not isinstance(self.tau, (int, float, np.integer, np.floating)):
            raise ValueError(f"tau must be a number, got {self.tau!r}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")


@dataclass(frozen=True)
class MachineDefault:
    """Relative threshold of max(rows, cols) * machine epsilon."""


TruncationRule = FixedRank | RelativeThreshold | MachineDefault

#: The exact solvers' default rule: singular values below 1e-12 sigma_max are dropped.
EXACT_RULE = RelativeThreshold(1e-12)


@dataclass(frozen=True, eq=False)
class EigResult:
    """Eigendecomposition with a deterministic total order.

    Eigenvalues are sorted by descending modulus, ties broken by descending
    real part then descending imaginary part. Eigenvectors are unit 2-norm
    columns with the first nonzero component rotated to non-negative real part.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class ConditioningRecord:
    """Singular-value extremes of a data matrix plus an instability flag."""

    sigma_max: float
    sigma_min: float
    rcond_used: float
    warning: bool

    @property
    def ratio(self) -> float:
        """sigma_min / sigma_max, or 0.0 for an all-zero matrix."""
        return self.sigma_min / self.sigma_max if self.sigma_max > 0 else 0.0


def conditioning_to_dict(rec: ConditioningRecord) -> dict:
    """JSON-ready form; round-trips exactly through :func:`conditioning_from_dict`."""
    return {
        "sigma_max": rec.sigma_max,
        "sigma_min": rec.sigma_min,
        "rcond_used": rec.rcond_used,
        "warning": rec.warning,
    }


def conditioning_from_dict(d: dict) -> ConditioningRecord:
    """Read :func:`conditioning_to_dict`'s form: three JSON numbers and a JSON boolean ``warning``, else TypeError."""
    return ConditioningRecord(
        sigma_max=_json_value(d["sigma_max"], float),
        sigma_min=_json_value(d["sigma_min"], float),
        rcond_used=_json_value(d["rcond_used"], float),
        warning=_json_value(d["warning"], bool),
    )


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array; a scalar or 1-D input becomes one row.

    None raises :class:`DimensionMismatch` (numpy would read it as a NaN),
    then a NaN or Inf entry :class:`NonFiniteEntry`, and then an array of
    more than two dimensions :class:`DimensionMismatch`.
    """
    if m is None:
        raise DimensionMismatch(f"{name} must be a matrix, got None")
    a = np.asarray(m, dtype=np.float64)
    if a.size and not np.all(np.isfinite(a)):
        raise NonFiniteEntry(f"{name} contains NaN or Inf entries")
    if a.ndim > 2:
        raise DimensionMismatch(f"{name} must be a matrix, got shape {a.shape}")
    return np.atleast_2d(a)


def _rule_cut(rule: TruncationRule, shape) -> tuple[float, int | None]:
    """``rule`` as the ``(rcond, rank)`` of :func:`_kept` for a matrix of ``shape``: a relative cut, or for ``FixedRank(r)`` none and at most r values; anything but a rule is a TypeError."""
    if isinstance(rule, FixedRank):
        return 0.0, rule.rank
    if not isinstance(rule, (RelativeThreshold, MachineDefault)):
        raise TypeError(f"a truncation rule must be FixedRank, RelativeThreshold or MachineDefault, got {rule!r}")
    return (rule.tau if isinstance(rule, RelativeThreshold) else max(shape) * EPS), None


def _kept(sigma: np.ndarray, rcond: float, rank: int | None = None) -> np.ndarray:
    """Which singular values a truncation keeps, along the last axis (descending): sigma >= rcond * sigma_max and sigma > 0, at most the first ``rank``."""
    keep = (sigma >= rcond * sigma[..., :1]) & (sigma > 0.0)
    if rank is not None:
        keep[..., rank:] = False
    return keep


def _pinv_stack(data: np.ndarray, k: int, rcond: float, rank: int | None = None):
    """``y @ pinv(omega)`` for every matrix of a stack, without forming a pseudoinverse.

    ``data`` is G-by-(k + d)-by-m, each matrix ``[omega; y]`` stacked by
    rows: its first k rows are omega and the other d rows y, checked finite
    by the caller; the result is G-by-d-by-k. Omega and y are read as views
    of ``data``, which is workspace: the call may overwrite it. One batched
    Householder QR factors each omega's tall side T, omega^T when k < m and
    omega otherwise, as T = Q R, and one batched SVD of the R factors,
    values only, gives the singular values that the keep rule
    (:func:`_kept`: sigma >= rcond * sigma_max, sigma > 0, at most ``rank``
    of them) reads, returned G-by-min(k, m), descending (one 0.0 for an
    empty matrix). A matrix that keeps them all is the least-squares solve
    through R: ``(y Q) R^-T`` when k < m, ``(y R^-1) Q^T`` otherwise, by
    block substitution (:func:`_solve_triangular`). When k < m, Q is never
    formed: ``data`` in column-major order is ``[omega^T | y^T]``, and the
    QR, mode "r", factors it as it is, its R holding R in its leading k-by-k
    block and ``(y Q)^T`` beside it, whatever d is. A stack of one wide
    matrix is factored in ``data`` itself (:func:`_qr_in_place`), and only
    R's k-by-k block is copied out, row-major as ``np.linalg.qr``'s R, so
    the result is the batched QR's bit for bit. Q is formed only when k >=
    m. Only a matrix the rule truncates, or whose pivoted LU of R^T rounds a
    pivot to zero, gets singular vectors, from an SVD of its R, and is
    solved as ``((y P) S^-1) Q^T`` with ``omega = Q S P^T``: the values the
    rule drops get a zero in S^-1; its sigma and its cut both come from that
    SVD. Each matrix is factored and solved on its own, so its result does
    not depend on the rest of the stack.
    """
    if not rcond >= 0:
        raise ValueError(f"rcond must be >= 0, got {rcond}")
    omega, y = data[:, :k], data[:, k:]
    g, d, m = y.shape
    if omega.size == 0:
        return np.zeros((g, d, k)), np.zeros((g, 1))
    wide = k < m
    if wide:
        # [omega^T | y^T] = Q [R | Q^T y^T], so R and (y Q)^T are blocks of one R factor and
        # no Q is formed. data is [omega^T | y^T] in column-major order, the order LAPACK reads;
        # a lone matrix is factored in data itself, and R copied out in np.linalg.qr's row-major order
        if g == 1:
            factored = _linalg(_qr_in_place, np.swapaxes(data, 1, 2))
            r = np.triu(factored[:, :k, :k])
        else:
            factored = _linalg(np.linalg.qr, np.swapaxes(data, 1, 2), mode="r")
            r = factored[:, :k, :k]
        yq_t = factored[:, :k, k:]
    else:
        q, r = _linalg(np.linalg.qr, omega)
    sigma = _svd(r, compute_uv=False)
    # the rule keeps a prefix of sigma; an exact zero on R's diagonal leaves R singular, whatever sigma says
    full = _kept(sigma, rcond, rank)[:, -1] & np.diagonal(r, 0, 1, 2).all(axis=1)
    r_full = r if full.all() else np.where(full[:, None, None], r, np.eye(r.shape[1]))  # stand-ins so the batch runs; replaced below
    # omega^T = Q R when k < m, so y pinv(omega) = (y Q) R^-T; otherwise omega = Q R, and y pinv(omega) = (y R^-1) Q^T
    rhs = yq_t if wide else np.swapaxes(y, 1, 2)
    try:
        x = _solve_triangular(r_full, rhs, transpose=not wide)
    except ConvergenceFailure:  # the LU's pivoting can round a pivot of a nearly singular R^T to zero: such a matrix is cut
        x, solvable, full[:] = np.zeros(rhs.shape), full.copy(), False
        for i in np.flatnonzero(solvable):
            with suppress(ConvergenceFailure):
                x[i], full[i] = _solve_triangular(r_full[i : i + 1], rhs[i : i + 1], transpose=not wide)[0], True
    solution = np.swapaxes(x, 1, 2) if wide else np.swapaxes(x, 1, 2) @ np.swapaxes(q, 1, 2)
    cut = np.flatnonzero(~full)
    if cut.size:
        # R = U S V^T, so omega = V S (Q U)^T when k < m and (Q U) S V^T otherwise
        u, s, vt = _svd(r[cut])
        sigma[cut] = s
        s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=_kept(s, rcond, rank))
        if wide:
            y_p, qt = np.swapaxes(np.ascontiguousarray(yq_t[cut]), 1, 2) @ u, vt
        else:
            y_p, qt = y[cut] @ np.swapaxes(vt, 1, 2), np.swapaxes(q[cut] @ u, 1, 2)
        solution[cut] = (y_p * s_inv[:, None, :]) @ qt
    return solution, sigma


def _qr_in_place(a: np.ndarray) -> np.ndarray:
    """Householder QR of one m-by-n matrix, a 1-by-m-by-n stack ``a``, in ``a`` itself: R in its upper triangle.

    ``np.linalg.qr`` copies its input, then LAPACK's buffer, then R; this
    runs LAPACK's dgeqrf through ``numpy.linalg.lapack_lite`` on ``a``'s own
    memory when it is column-major, aligned and writable (else on one such
    copy), with leading dimension m and numpy's own work size: at least n,
    or what dgeqrf's query asks. Returns the factored 1-by-m-by-n stack; its
    entries below the diagonal hold the Householder vectors.
    """
    _, m, n = a.shape
    f = np.require(a[0].T, np.float64, "CAW")  # n-by-m row-major: the matrix in column-major order
    tau, work = np.empty(min(m, n)), np.empty(1)
    lapack_lite.dgeqrf(m, n, f, m, tau, work, -1, 0)
    work = np.empty(max(1, n, int(work[0])))
    lapack_lite.dgeqrf(m, n, f, m, tau, work, work.size, 0)
    return f.T[None]


#: Rows of R that each step of :func:`_solve_triangular` solves.
_TRIANGULAR_BLOCK = 64


def _solve_triangular(r: np.ndarray, b: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``R^-1 b``, or ``R^-T b`` with ``transpose``, for a stack of upper triangular R (G-by-k-by-k) and b (G-by-k-by-p).

    numpy has no triangular solve, and ``np.linalg.solve`` with all of R
    would first run a pivoted LU of it, 2k^3/3 flops that substitution does
    not need. So R is solved _TRIANGULAR_BLOCK rows at a time, bottom up
    (top down for R^T): one matmul subtracts the rows already solved, and
    one batched ``np.linalg.solve`` with the block's diagonal block of R
    solves the rest. A stack with k <= _TRIANGULAR_BLOCK is one solve with
    all of R.
    """
    k = r.shape[1]
    a = np.swapaxes(r, 1, 2) if transpose else r
    if k <= _TRIANGULAR_BLOCK:
        return _linalg(np.linalg.solve, a, b)
    x = np.empty(b.shape)
    starts = range(0, k, _TRIANGULAR_BLOCK)
    for lo in starts if transpose else reversed(starts):
        hi = min(lo + _TRIANGULAR_BLOCK, k)
        done = slice(0, lo) if transpose else slice(hi, k)
        rhs = b[:, lo:hi] - a[:, lo:hi, done] @ x[:, done]
        x[:, lo:hi] = _linalg(np.linalg.solve, a[:, lo:hi, lo:hi], rhs)
    return x


def _svd(a, compute_uv: bool = True):
    """Reduced SVD of a matrix or stack; LAPACK non-convergence becomes :class:`ConvergenceFailure`."""
    return _linalg(np.linalg.svd, a, full_matrices=False, compute_uv=compute_uv)


def _linalg(routine, *args, **kwargs):
    """``routine(*args, **kwargs)``, a ``numpy.linalg`` call, with its LinAlgError raised as :class:`ConvergenceFailure`."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


def eig(m) -> EigResult:
    """Eigendecomposition of a square matrix, deterministically ordered.

    The returned order is a total order (descending modulus, then real part,
    then imaginary part; remaining exact ties keep backend order), so equal
    inputs produce bit-identical results.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"eig requires a square matrix, got {a.shape}")
    if a.size == 0:
        return EigResult(np.zeros(0, dtype=complex), np.zeros((0, 0), dtype=complex))
    values, vectors = _linalg(np.linalg.eig, a)
    values = values.astype(np.complex128, copy=False)
    vectors = vectors.astype(np.complex128, copy=False)
    order = np.lexsort((-values.imag, -values.real, -np.abs(values)))
    values = values[order]
    vectors = vectors[:, order]
    return EigResult(values, _canonicalize_columns(vectors))


def _canonicalize_columns(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize columns and fix their sign by the first nonzero entry."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nrm = np.linalg.norm(col)
        if nrm > 0:
            col = col / nrm
        mags = np.abs(col)
        top = mags.max() if mags.size else 0.0
        if top > 0:
            lead = col[int(np.argmax(mags > 1e-12 * top))]
            if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
                col = -col
        out[:, j] = col
    return out


def _record(sigma: np.ndarray, rcond: float) -> ConditioningRecord:
    """The record of one matrix from its singular values, descending; an empty matrix has none."""
    extremes = sigma[[0, -1]] if sigma.size else np.zeros(2)
    sigma_max, sigma_min = extremes.tolist()
    return ConditioningRecord(sigma_max, sigma_min, rcond, bool(_ill_conditioned(*extremes)))


def _ill_conditioned(sigma_max: np.ndarray, sigma_min: np.ndarray) -> np.ndarray:
    """The records' ``warning`` flags: sigma_min/sigma_max below ILL_CONDITIONED_RATIO; an all-zero matrix always warns."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return (sigma_max == 0.0) | (sigma_min / sigma_max < ILL_CONDITIONED_RATIO)
