"""Dense linear-algebra kernels with explicit truncation and ordering rules.

Everything here is a pure function of its inputs; there is no module state,
so calls are safe from concurrent contexts. Real input matrices may have
complex spectra, which are always returned as explicit complex arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AllZeroMatrix, ConvergenceFailure, DimensionMismatch, NonFiniteEntry, NotSquare

EPS = float(np.finfo(np.float64).eps)

#: Default relative cutoff below which pseudoinverse singular values are dropped.
DEFAULT_RCOND = 1e-12

#: A data matrix with sigma_min/sigma_max below this is flagged as ill conditioned.
ILL_CONDITIONED_RATIO = 1e-10


@dataclass(frozen=True)
class FixedRank:
    """Keep at most ``rank`` singular values (capped at min(rows, cols))."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class RelativeThreshold:
    """Keep exactly the singular values with sigma_i >= tau * sigma_max."""

    tau: float

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")


@dataclass(frozen=True)
class MachineDefault:
    """Relative threshold of max(rows, cols) * machine epsilon."""


TruncationRule = FixedRank | RelativeThreshold | MachineDefault


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Truncated singular value decomposition ``input ~ u @ diag(sigma) @ v.T``.

    ``u`` is n-by-p, ``sigma`` the p retained singular values (descending),
    ``v`` is m-by-p. ``discarded_energy`` is the squared-singular-value mass
    dropped by truncation, as a fraction of the total. ``conditioning`` is
    :func:`conditioning_record`'s record of the input at ``DEFAULT_RCOND``,
    read from the same (untruncated) singular values on first access, so a
    caller that never reads it never builds it.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    truncation_rank: int
    discarded_energy: float
    _all_sigma: np.ndarray = field(repr=False)

    @cached_property
    def conditioning(self) -> ConditioningRecord:
        return _record(self._all_sigma, DEFAULT_RCOND)


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
    return ConditioningRecord(
        sigma_max=float(d["sigma_max"]),
        sigma_min=float(d["sigma_min"]),
        rcond_used=float(d["rcond_used"]),
        warning=bool(d["warning"]),
    )


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        a = np.atleast_2d(a)
    if a.size and not np.all(np.isfinite(a)):
        raise NonFiniteEntry(f"{name} contains NaN or Inf entries")
    return a


def truncated_svd(m, rule: TruncationRule = MachineDefault()) -> SvdResult:
    """Reduced SVD truncated according to ``rule``.

    ``FixedRank(r)`` keeps ``min(r, min(rows, cols))`` values, dropping any
    trailing exact zeros so that ``diag(sigma)`` stays invertible.
    ``RelativeThreshold(tau)`` keeps the values ``>= tau * sigma_max`` and
    ``MachineDefault`` uses ``tau = max(rows, cols) * eps``; both reject an
    all-zero input since the relative cutoff is then undefined.
    """
    a = as_matrix(m)
    if isinstance(rule, (RelativeThreshold, MachineDefault)) and not np.any(a):
        raise AllZeroMatrix("relative truncation is undefined for an all-zero matrix")
    u, s, vt = _svd(a)
    if isinstance(rule, FixedRank):
        k = min(rule.rank, s.size)
        while k > 0 and s[k - 1] == 0.0:
            k -= 1
    else:
        tau = rule.tau if isinstance(rule, RelativeThreshold) else max(a.shape) * EPS
        k = int(np.count_nonzero(s >= tau * s[0]))
    total = float(np.sum(s**2))
    discarded = float(np.sum(s[k:] ** 2)) / total if total > 0 else 0.0
    return SvdResult(
        u=u[:, :k].copy(),
        sigma=s[:k].copy(),
        v=vt[:k, :].T.copy(),
        truncation_rank=k,
        discarded_energy=discarded,
        _all_sigma=s,
    )


def pinv_conditioning(m, rcond: float = DEFAULT_RCOND):
    """Pseudoinverse and conditioning record of a matrix, or of a stack, from one SVD.

    ``m`` is one k-by-n matrix or a G-by-k-by-n stack of them, which LAPACK
    factors in one batched call. Returns the Moore-Penrose pseudoinverse
    (n-by-k, or G-by-n-by-k), with singular values below
    ``rcond * sigma_max`` treated as zero, and the record
    :func:`conditioning_record` describes (for a stack, a list of G records),
    both read from the same singular values.
    """
    if rcond < 0:
        raise ValueError(f"rcond must be >= 0, got {rcond}")
    a = np.asarray(m, dtype=np.float64)
    if a.ndim > 3:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if a.ndim < 3:
        stack = as_matrix(a)[None]
    elif a.size and not np.all(np.isfinite(a)):
        raise NonFiniteEntry("matrix stack contains NaN or Inf entries")
    else:
        stack = a
    g, k, n = stack.shape
    if stack.size == 0:
        pinv = np.zeros((g, n, k))
        sigma = np.zeros((g, 1))
    else:
        u, sigma, vt = _svd(stack)
        keep = (sigma >= rcond * sigma[:, :1]) & (sigma > 0.0)
        s_inv = np.zeros_like(sigma)
        s_inv[keep] = 1.0 / sigma[keep]
        pinv = (np.swapaxes(vt, 1, 2) * s_inv[:, None, :]) @ np.swapaxes(u, 1, 2)
    records = _records(sigma[:, 0], sigma[:, -1], rcond)
    if a.ndim < 3:
        return pinv[0], records[0]
    return pinv, records


def _svd(a, compute_uv: bool = True):
    """Reduced SVD of a matrix or stack; LAPACK non-convergence becomes :class:`ConvergenceFailure`."""
    try:
        return np.linalg.svd(a, full_matrices=False, compute_uv=compute_uv)
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
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
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


def conditioning_record(m, rcond: float = DEFAULT_RCOND) -> ConditioningRecord:
    """Singular-value extremes of a data matrix, flagging near-singularity.

    The warning trips when sigma_min/sigma_max < ILL_CONDITIONED_RATIO, the
    regime where pseudoinverse-based estimates become unreliable.
    """
    a = as_matrix(m)
    return _record(_svd(a, compute_uv=False) if a.size else np.zeros(0), rcond)


def _record(sigma: np.ndarray, rcond: float) -> ConditioningRecord:
    """The record of one matrix from its singular values, descending; an empty matrix has none."""
    sigma = sigma if sigma.size else np.zeros(1)
    return _records(sigma[:1], sigma[-1:], rcond)[0]


def _records(sigma_max: np.ndarray, sigma_min: np.ndarray, rcond: float) -> list[ConditioningRecord]:
    """One record per pair of singular-value extremes; an all-zero matrix always warns."""
    with np.errstate(divide="ignore", invalid="ignore"):
        warning = (sigma_max == 0.0) | (sigma_min / sigma_max < ILL_CONDITIONED_RATIO)
    return [
        ConditioningRecord(hi, lo, rcond, w)
        for hi, lo, w in zip(sigma_max.tolist(), sigma_min.tolist(), warning.tolist())
    ]
