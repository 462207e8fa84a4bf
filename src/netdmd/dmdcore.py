"""DMD and DMDc in exact (pseudoinverse) and reduced-order forms.

The exact variants solve the least-squares / minimum-norm problem
``Y ~ A Z`` (or ``Y ~ A Z + B Gamma``) as ``Y pinv(Omega)``, from one QR of
the data matrix and the singular values of its R factor, without forming
the pseudoinverse.
Reduced DMDc is that solve with its input truncation rule as the cut,
projected onto y's leading left singular vectors; reduced DMD projects onto
z's leading left singular vectors, from one SVD of z cut by its rule. Every
solver takes a truncation rule and reads its cut one way (``_kept`` under
``_rule_cut``): the exact ones default to ``EXACT_RULE``, a relative cut of
1e-12, the reduced ones to ``MachineDefault``. ``_kept`` keeps no zero, so
all-zero data give every solver the zero model. The reduced forms return a
small model plus the dynamic modes it induces in the full space. All
functions are pure; determinism comes from the fixed eigenvalue ordering in
:mod:`netdmd.numkernel`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numkernel import (
    EXACT_RULE,
    ConditioningRecord,
    MachineDefault,
    TruncationRule,
    _kept,
    _pinv_stack,
    _record,
    _rule_cut,
    _svd,
    as_matrix,
    conditioning_from_dict,
    conditioning_to_dict,
    eig,
)

#: Eigenvalues with modulus below this fraction of the largest are dropped
#: from the returned modes (a mode is undefined for a zero eigenvalue).
MODE_ZERO_TOL_FACTOR = 1e-12


@dataclass(frozen=True, eq=False)
class ExactLinearModel:
    """Full-order identified model ``y ~ a x (+ b u)``.

    ``b`` is None for the autonomous (DMD) case. ``conditioning`` describes
    the data matrix whose pseudoinverse produced the model.
    """

    a: np.ndarray
    b: np.ndarray | None
    conditioning: ConditioningRecord


@dataclass(frozen=True, eq=False)
class ReducedLinearModel:
    """Reduced-order model in the coordinates ``x_red = u_hat.T @ x``.

    ``u_hat`` (n-by-r, orthonormal columns) projects full states down and
    lifts reduced states back up. ``p`` is the input-stack truncation rank,
    the number of singular values of the data matrix (``[z; gamma]``, or z
    for DMD) that the input rule keeps, and ``r`` the output truncation
    rank. ``conditioning`` describes that data matrix, read from the same
    singular values.
    """

    a_tilde: np.ndarray
    b_tilde: np.ndarray | None
    u_hat: np.ndarray
    p: int
    r: int
    conditioning: ConditioningRecord


@dataclass(frozen=True, eq=False)
class DynamicModes:
    """Eigenvalues and full-space mode vectors of an identified model.

    Pairs whose eigenvalue modulus falls below ``MODE_ZERO_TOL_FACTOR`` times
    the largest modulus are excluded; ``n_zero_excluded`` counts them.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    source: str
    n_zero_excluded: int = 0


def _check_regression(z, y, *gammas):
    """The data of the regression ``y ~ a z (+ b gamma)`` as float matrices: z, y and each gamma.

    Each is read by :func:`as_matrix` in that order, so the first NaN or Inf
    entry is named by its argument; then the column counts must agree and y
    must have z's rows, else :class:`DimensionMismatch`. This is the one
    data check of every solver, exact or reduced: all-zero data pass it.
    """
    z, y = as_matrix(z, "z"), as_matrix(y, "y")
    gammas = [as_matrix(gamma, "gamma") for gamma in gammas]
    mats = (z, y, *gammas)
    if len({m.shape[1] for m in mats}) > 1:
        raise DimensionMismatch(f"column counts differ: {[m.shape for m in mats]}")
    if z.shape[0] != y.shape[0]:
        raise DimensionMismatch(f"z has {z.shape[0]} rows but y has {y.shape[0]}")
    return z, y, gammas


def _solve(z, y, gammas, rule: TruncationRule):
    """``y @ pinv([z; gamma...])`` of :func:`_check_regression`'s matrices under ``rule``'s cut, by :func:`_pinv_stack`; with omega's singular values and the cut."""
    k = len(z) + sum(len(gamma) for gamma in gammas)
    cut = _rule_cut(rule, (k, z.shape[1]))
    (g,), (sigma,) = _pinv_stack(np.concatenate([z, *gammas, y])[None], k, *cut)
    return g, sigma, cut


def dmdc_exact(z, y, gamma=None, rule: TruncationRule = EXACT_RULE) -> ExactLinearModel:
    """Minimum-norm solution of ``y ~ a z + b gamma``, or of ``y ~ a z`` (DMD) when gamma is None.

    Checks the data with :func:`_check_regression` and solves
    ``y @ pinv(omega)``, ``omega = [z; gamma]`` (just z for DMD), under
    ``rule``'s cut by :func:`_solve`. The result splits into the state part
    (first n columns) and the input part (last l); for DMD ``b`` is None.
    The record's ``rcond_used`` is the rule's relative cut.
    """
    z, y, gammas = _check_regression(z, y, *(() if gamma is None else (gamma,)))
    g, sigma, (rcond, _) = _solve(z, y, gammas, rule)
    return ExactLinearModel(a=g[:, : len(z)], b=g[:, len(z) :] if gammas else None, conditioning=_record(sigma, rcond))


def _filter_zero_modes(values: np.ndarray, modes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    top = np.max(np.abs(values)) if values.size else 0.0
    if top == 0.0:
        return values[:0], modes[:, :0], int(values.size)
    keep = np.abs(values) >= MODE_ZERO_TOL_FACTOR * top
    return values[keep], modes[:, keep], int(np.count_nonzero(~keep))


def dmd_reduced(z, y, rule: TruncationRule = MachineDefault()) -> tuple[ReducedLinearModel, DynamicModes]:
    """Reduced-order DMD through one SVD of z, cut by ``rule``.

    With ``z = u s v.T`` and p the singular values ``rule`` keeps
    (:func:`_rule_cut`), ``u_hat`` holds u's first p columns, the reduced
    operator is ``a_tilde = u_hat.T y v_p s_p^-1`` and each eigenpair (w, lam)
    of it, lam nonzero, lifts to the full-space mode
    ``phi = lam^-1 y v_p s_p^-1 w``. The record is z's, from the same
    singular values, with the rule's relative cut as ``rcond_used``. An
    all-zero z (p = 0) or y gives the zero model and no modes.
    """
    z, y, _ = _check_regression(z, y)
    u, s, vt = _svd(z)
    rcond, rank = _rule_cut(rule, z.shape)
    p = int(np.count_nonzero(_kept(s, rcond, rank)))
    # contiguous copies, not views: how BLAS rounds the products below depends on their operands' layout
    u_hat = u[:, :p].copy()
    core = (y @ vt[:p].T.copy()) / s[:p]
    a_tilde = u_hat.T @ core
    eigres = eig(a_tilde)
    raw_modes = core.astype(complex) @ eigres.vectors
    with np.errstate(divide="ignore", invalid="ignore"):
        raw_modes = np.where(eigres.values != 0, raw_modes / eigres.values, raw_modes)
    values, modes, dropped = _filter_zero_modes(eigres.values, raw_modes)
    model = ReducedLinearModel(a_tilde=a_tilde, b_tilde=None, u_hat=u_hat, p=p, r=p, conditioning=_record(s, rcond))
    return model, DynamicModes(values, modes, source="reduced", n_zero_excluded=dropped)


def dmdc_reduced(
    z,
    y,
    gamma,
    input_rule: TruncationRule = MachineDefault(),
    output_rule: TruncationRule = MachineDefault(),
) -> tuple[ReducedLinearModel, DynamicModes]:
    """Reduced-order DMDc: the exact solve with ``input_rule`` as its cut, then y's projector.

    ``[g_a g_b] = y @ pinv_p([z; gamma])`` is :func:`dmdc_exact`'s :func:`_solve`,
    keeping the p singular values ``input_rule`` keeps (:func:`_rule_cut`),
    and ``u_hat`` holds y's leading r left singular vectors under
    ``output_rule``: ``a_tilde = u_hat.T g_a u_hat``, ``b_tilde = u_hat.T g_b``
    and the modes are ``g_a u_hat w`` for each eigenvector w of ``a_tilde``.
    The record is ``[z; gamma]``'s, from the solve's values, with the input
    rule's relative cut as ``rcond_used``. An all-zero ``[z; gamma]``
    (p = 0) or y (r = 0) gives the zero model.
    """
    z, y, gammas = _check_regression(z, y, gamma)
    g, sigma, cut = _solve(z, y, gammas, input_rule)
    u, s, _ = _svd(y)
    u_hat = u[:, : np.count_nonzero(_kept(s, *_rule_cut(output_rule, y.shape)))]
    state_map = g[:, : len(z)] @ u_hat
    model = ReducedLinearModel(
        a_tilde=u_hat.T @ state_map,
        b_tilde=u_hat.T @ g[:, len(z) :],
        u_hat=u_hat,
        p=int(np.count_nonzero(_kept(sigma, *cut))),
        r=u_hat.shape[1],
        conditioning=_record(sigma, cut[0]),
    )
    eigres = eig(model.a_tilde)
    raw_modes = state_map.astype(complex) @ eigres.vectors
    values, modes, dropped = _filter_zero_modes(eigres.values, raw_modes)
    return model, DynamicModes(values, modes, source="reduced", n_zero_excluded=dropped)


def dmd_modes(model: ExactLinearModel) -> DynamicModes:
    """Eigenvalues and eigenvector modes of an exact model's state operator."""
    eigres = eig(model.a)
    values, modes, dropped = _filter_zero_modes(eigres.values, eigres.vectors)
    return DynamicModes(values, modes, source="exact", n_zero_excluded=dropped)


def lift_reduced(model: ReducedLinearModel) -> tuple[np.ndarray, np.ndarray | None]:
    """Express a reduced model in full-space coordinates via its projector."""
    a = model.u_hat @ model.a_tilde @ model.u_hat.T
    b = model.u_hat @ model.b_tilde if model.b_tilde is not None else None
    return a, b


def predict(model: ExactLinearModel | ReducedLinearModel, x0, inputs, m: int) -> np.ndarray:
    """Roll a model forward m steps; returns the n-by-m matrix of successors.

    For reduced models the initial state is projected through ``u_hat`` and
    every reported column is lifted back to full coordinates. ``inputs`` must
    be l-by-m for models with an input operator and None (or 0-row) without.
    """
    if m < 1:
        raise DimensionMismatch("need at least one prediction step")
    if isinstance(model, ReducedLinearModel):
        a, b = model.a_tilde, model.b_tilde
        project = model.u_hat.T
        lift = model.u_hat
    else:
        a, b = model.a, model.b
        project = lift = None
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n_full = lift.shape[0] if lift is not None else a.shape[0]
    if x0.size != n_full:
        raise DimensionMismatch(f"x0 has {x0.size} entries, model expects {n_full}")
    l = 0 if b is None else b.shape[1]
    if l == 0:
        u = np.zeros((0, m))
        if inputs is not None:
            u_given = np.asarray(inputs, dtype=float)
            if u_given.size:
                raise DimensionMismatch("model has no input operator but inputs were given")
    else:
        u = np.asarray(inputs, dtype=float)
        if u.ndim != 2 or u.shape != (l, m):
            raise DimensionMismatch(f"inputs must be {(l, m)}, got {None if inputs is None else u.shape}")
    x = project @ x0 if project is not None else x0
    out = np.empty((n_full, m))
    for k in range(m):
        x = a @ x + (b @ u[:, k] if b is not None and l else 0.0)
        out[:, k] = lift @ x if lift is not None else x
    return out


def model_to_dict(model: ExactLinearModel, modes: DynamicModes | None = None) -> dict:
    """JSON-ready form of an exact model plus its dynamic modes."""
    if modes is None:
        modes = dmd_modes(model)
    return {
        "A": model.a.tolist(),
        "B": model.b.tolist() if model.b is not None else None,
        "eigenvalues": [{"re": v.real, "im": v.imag} for v in modes.eigenvalues],
        "modes": [[{"re": c.real, "im": c.imag} for c in row] for row in modes.modes],
        "conditioning": conditioning_to_dict(model.conditioning),
    }


def model_from_dict(d: dict) -> tuple[ExactLinearModel, DynamicModes]:
    a = np.asarray(d["A"], dtype=float)
    b = np.asarray(d["B"], dtype=float) if d["B"] is not None else None
    cond = conditioning_from_dict(d["conditioning"])
    values = np.array([complex(e["re"], e["im"]) for e in d["eigenvalues"]], dtype=complex)
    if d["modes"]:
        modes = np.array([[complex(c["re"], c["im"]) for c in row] for row in d["modes"]], dtype=complex)
    else:
        modes = np.zeros((a.shape[0], 0), dtype=complex)
    return ExactLinearModel(a, b, cond), DynamicModes(values, modes, source="exact")
