"""Recovery-error sweeps: simulate, identify with several algorithms, compare.

A sweep draws one system per trial, one trajectory per (trial, m), and feeds
the identical trajectory to every requested algorithm, measuring the
Frobenius distance between the identified and true matrices. RNG streams are
keyed by (master_seed, trial[, m]), so results do not depend on execution
order and two runs of the same config produce identical rows (wall time
aside).
"""
from __future__ import annotations

import csv
import json
import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, NetdmdError
from .numkernel import (
    DEFAULT_RCOND,
    ConditioningRecord,
    FixedRank,
    MachineDefault,
    RelativeThreshold,
    TruncationRule,
)
from .dmdcore import ExactLinearModel, dmd_reduced, dmdc_exact, dmdc_reduced, lift_reduced
from .netdmdc import NetworkModel, model_error, network_dmdc_exact, network_dmdc_reduced
from .sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    derive_rng,
    gen_circular,
    gen_erdos_renyi,
    simulate,
    true_full_matrices,
)
from .topology import _json_value

ALGORITHMS = ("dmd", "dmdc", "network_dmdc")

#: CSV header of exported sweep results; order and spelling are part of the
#: file format.
CSV_COLUMNS = ("trial", "m", "algorithm", "frobenius_error", "cond_ratio", "wall_time_s", "warnings")


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to reproduce a sweep bit-for-bit."""

    generator: GeneratorConfig
    trials: int
    m_values: tuple[int, ...]
    algorithms: tuple[str, ...] = ("dmdc", "network_dmdc")
    truncation: TruncationRule = MachineDefault()
    rcond: float = DEFAULT_RCOND
    master_seed: int = 0
    initial_state_range: tuple[float, float] = (-1.0, 1.0)
    use_reduced: bool = False

    def __post_init__(self):
        object.__setattr__(self, "m_values", tuple(int(m) for m in self.m_values))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if self.trials < 1:
            raise BadConfig(f"trials must be >= 1, got {self.trials}")
        if not self.m_values or any(m < 1 for m in self.m_values):
            raise BadConfig(f"m_values must be nonempty with every entry >= 1, got {self.m_values}")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if not self.algorithms or unknown:
            raise BadConfig(f"algorithms must be a nonempty subset of {ALGORITHMS}, got {self.algorithms}")
        lo, hi = self.initial_state_range
        if not lo <= hi:
            raise BadConfig(f"initial_state_range is empty: ({lo}, {hi})")


@dataclass(frozen=True)
class SweepRow:
    """One (trial, simulation length, algorithm) measurement."""

    trial: int
    m: int
    algorithm: str
    frobenius_error: float
    cond_ratio: float
    wall_time_s: float
    warnings: str


@dataclass(frozen=True, eq=False)
class SweepResult:
    """All rows of a sweep plus the per-(m, algorithm) mean errors."""

    rows: tuple[SweepRow, ...]
    means: dict[tuple[int, str], float]
    config: SweepConfig | None = None


def mean_errors(rows) -> dict[tuple[int, str], float]:
    """Average frobenius_error per (m, algorithm) cell over its finite rows.

    Failed rows carry a NaN error and are skipped; a cell with no finite row
    averages to NaN.
    """
    sums: dict[tuple[int, str], list[float]] = {}
    for row in rows:
        vals = sums.setdefault((row.m, row.algorithm), [])
        if math.isfinite(row.frobenius_error):
            vals.append(row.frobenius_error)
    return {key: float(np.mean(vals)) if vals else math.nan for key, vals in sorted(sums.items())}


def _worst_record(records: dict, rcond: float) -> ConditioningRecord:
    """The per-node record with the smallest sigma ratio (degenerate if none)."""
    if not records:
        return ConditioningRecord(0.0, 0.0, rcond, True)
    return min(records.values(), key=lambda rec: rec.ratio)


def _identify(algorithm, system, traj, rcond, truncation, use_reduced):
    """Run one algorithm; returns (model to score, conditioning record, warnings list).

    A network result is scored as the full-space :class:`NetworkModel` both
    network solvers return; a whole-system result as the full-space
    :class:`ExactLinearModel` it lifts to.
    """
    t = system.topology
    if algorithm == "network_dmdc":
        if use_reduced:
            model = network_dmdc_reduced(t, traj, truncation, truncation)
        else:
            model = network_dmdc_exact(t, traj, rcond)
        records = model.per_node_conditioning
        warnings = [f"ill_conditioned:{v}" for v, rec in sorted(records.items()) if rec.warning]
        warnings += [f"failed:{v}" for v in sorted(model.node_failures)]
        return model, _worst_record(records, rcond), warnings
    if algorithm == "dmdc":
        if use_reduced:
            model, _ = dmdc_reduced(traj.z, traj.y, traj.gamma, truncation, truncation)
        else:
            model = dmdc_exact(traj.z, traj.y, traj.gamma, rcond)
    elif algorithm == "dmd":
        model = dmd_reduced(traj.z, traj.y, truncation)[0] if use_reduced else dmdc_exact(traj.z, traj.y, rcond=rcond)
    else:
        raise BadConfig(f"unknown algorithm {algorithm!r}")
    if use_reduced:
        a, b = lift_reduced(model)
        model = ExactLinearModel(a=a, b=b, conditioning=model.conditioning)
    warnings = ["ill_conditioned"] if model.conditioning.warning else []
    if algorithm == "dmd" and t.total_input_dim > 0:
        warnings.append("dmd_ignores_inputs")
    return model, model.conditioning, warnings


def run_trial(
    system: LinearNetworkSystem,
    m: int,
    algorithms,
    rng: np.random.Generator,
    rcond: float = DEFAULT_RCOND,
    truncation: TruncationRule = MachineDefault(),
    initial_state_range: tuple[float, float] = (-1.0, 1.0),
    input_range: tuple[float, float] = (-1.0, 1.0),
    trial: int = 0,
    use_reduced: bool = False,
) -> list[SweepRow]:
    """Simulate one trajectory of length m and score every algorithm on it.

    The state starts uniform in ``initial_state_range`` and each input entry
    is drawn i.i.d. uniform from ``input_range``. All algorithms consume the
    same trajectory, which :func:`simulate` returns read-only; the error is
    measured against the system's true assembled matrices. A plain DMD run
    on a driven system scores its state operator only and is tagged
    ``dmd_ignores_inputs``.

    Failures become rows, not exceptions. If the simulation or an algorithm
    raises a :class:`NetdmdError`, each affected row has a NaN error and
    sigma ratio and the tags ``failed`` and ``error:<type>``. A network row
    with failed nodes (tagged ``failed:<vertex>``) also reports a NaN error,
    since its zeroed blocks are not an estimate.
    """
    if m < 1:
        raise BadConfig(f"m must be >= 1, got {m}")
    t = system.topology
    x0 = rng.uniform(*initial_state_range, size=t.total_state_dim)
    inputs = rng.uniform(*input_range, size=(t.total_input_dim, m))
    try:
        traj = simulate(system, x0, inputs)
    except NetdmdError as exc:
        return [_failed_row(trial, m, algorithm, 0.0, exc) for algorithm in algorithms]
    truth_a, truth_b = true_full_matrices(system)
    rows = []
    for algorithm in algorithms:
        start = time.perf_counter()
        try:
            model, record, warnings = _identify(algorithm, system, traj, rcond, truncation, use_reduced)
        except NetdmdError as exc:
            rows.append(_failed_row(trial, m, algorithm, time.perf_counter() - start, exc))
            continue
        wall = time.perf_counter() - start
        if any(tag.startswith("failed:") for tag in warnings):
            error = math.nan
        else:
            scores_inputs = isinstance(model, NetworkModel) or model.b is not None
            error = model_error(model, truth_a, truth_b if scores_inputs else None)
        rows.append(
            SweepRow(
                trial=trial,
                m=m,
                algorithm=algorithm,
                frobenius_error=float(error),
                cond_ratio=float(record.ratio),
                wall_time_s=float(wall),
                warnings=";".join(warnings),
            )
        )
    return rows


def _failed_row(trial: int, m: int, algorithm: str, wall: float, exc: NetdmdError) -> SweepRow:
    return SweepRow(
        trial=trial,
        m=m,
        algorithm=algorithm,
        frobenius_error=math.nan,
        cond_ratio=math.nan,
        wall_time_s=float(wall),
        warnings=f"failed;error:{type(exc).__name__}",
    )


def generate_system(generator: GeneratorConfig, rng: np.random.Generator | None = None) -> LinearNetworkSystem:
    """Dispatch to the family's generator."""
    if isinstance(generator.family, Circular):
        return gen_circular(generator, rng)
    if isinstance(generator.family, ErdosRenyi):
        return gen_erdos_renyi(generator, rng)
    raise BadConfig(f"unknown generator family {type(generator.family).__name__}")


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Full sweep over trials and simulation lengths.

    Trial t's system comes from the stream (master_seed, t, 0) and its
    length-m trajectory from (master_seed, t, m), so any scheduling of the
    loop produces identical rows.
    """
    rows: list[SweepRow] = []
    for trial in range(cfg.trials):
        system = generate_system(cfg.generator, derive_rng(cfg.master_seed, trial, 0))
        for m in cfg.m_values:
            rows.extend(
                run_trial(
                    system,
                    m,
                    cfg.algorithms,
                    derive_rng(cfg.master_seed, trial, m),
                    rcond=cfg.rcond,
                    truncation=cfg.truncation,
                    initial_state_range=cfg.initial_state_range,
                    input_range=cfg.generator.input_range,
                    trial=trial,
                    use_reduced=cfg.use_reduced,
                )
            )
    return SweepResult(rows=tuple(rows), means=mean_errors(rows), config=cfg)


def truncation_to_dict(rule: TruncationRule) -> dict:
    if isinstance(rule, FixedRank):
        return {"kind": "fixed_rank", "rank": rule.rank}
    if isinstance(rule, RelativeThreshold):
        return {"kind": "relative_threshold", "tau": rule.tau}
    return {"kind": "machine_default"}


def truncation_from_dict(d: dict) -> TruncationRule:
    kind = d["kind"]
    if kind == "fixed_rank":
        return FixedRank(_json_value(d["rank"], int))
    if kind == "relative_threshold":
        return RelativeThreshold(float(d["tau"]))
    if kind == "machine_default":
        return MachineDefault()
    raise BadConfig(f"unknown truncation kind {kind!r}")


def generator_config_to_dict(cfg: GeneratorConfig) -> dict:
    if isinstance(cfg.family, Circular):
        family = {"family": "circular", "n_states": cfg.family.n_states, "input_period": cfg.family.input_period}
    else:
        family = {"family": "erdos_renyi", "n": cfg.family.n, "p": cfg.family.p}
    return {
        **family,
        "coeff_range": list(cfg.coeff_range),
        "input_range": list(cfg.input_range),
        "seed": cfg.seed,
    }


def generator_config_from_dict(d: dict) -> GeneratorConfig:
    name = d["family"]
    if name == "circular":
        family = Circular(
            n_states=_json_value(d["n_states"], int), input_period=_json_value(d.get("input_period", 2), int)
        )
    elif name == "erdos_renyi":
        family = ErdosRenyi(n=_json_value(d["n"], int), p=float(d["p"]))
    else:
        raise BadConfig(f"unknown generator family {name!r}")
    return GeneratorConfig(
        family=family,
        coeff_range=tuple(d.get("coeff_range", (-1.0, 1.0))),
        input_range=tuple(d.get("input_range", (-1.0, 1.0))),
        seed=_json_value(d.get("seed", 0), int),
    )


def sweep_config_to_dict(cfg: SweepConfig) -> dict:
    return {
        "generator": generator_config_to_dict(cfg.generator),
        "trials": cfg.trials,
        "m_values": list(cfg.m_values),
        "algorithms": list(cfg.algorithms),
        "truncation": truncation_to_dict(cfg.truncation),
        "rcond": cfg.rcond,
        "master_seed": cfg.master_seed,
        "initial_state_range": list(cfg.initial_state_range),
        "use_reduced": cfg.use_reduced,
    }


def sweep_config_from_dict(d: dict) -> SweepConfig:
    return SweepConfig(
        generator=generator_config_from_dict(d["generator"]),
        trials=_json_value(d["trials"], int),
        m_values=tuple(_json_value(m, int) for m in d["m_values"]),
        algorithms=tuple(d.get("algorithms", ("dmdc", "network_dmdc"))),
        truncation=truncation_from_dict(d.get("truncation", {"kind": "machine_default"})),
        rcond=float(d.get("rcond", DEFAULT_RCOND)),
        master_seed=_json_value(d.get("master_seed", 0), int),
        initial_state_range=tuple(d.get("initial_state_range", (-1.0, 1.0))),
        use_reduced=_json_value(d.get("use_reduced", False), bool),
    )


def export_result(result: SweepResult, format: str, path) -> None:
    """Write a sweep result as CSV rows or a JSON document.

    CSV columns are exactly ``CSV_COLUMNS``; the JSON mirrors the rows and
    adds the aggregate means plus the config (including the truncation rule
    in force for every row). Each mean entry counts, as ``excluded``, the
    rows of its cell whose error is not finite. The JSON is strict: a
    non-finite error, sigma ratio or mean is written as null, which
    :func:`load_result_json` reads back as NaN.
    """
    if format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in result.rows:
                writer.writerow(
                    [
                        row.trial,
                        row.m,
                        row.algorithm,
                        repr(row.frobenius_error),
                        repr(row.cond_ratio),
                        repr(row.wall_time_s),
                        row.warnings,
                    ]
                )
    elif format == "json":
        excluded = Counter((row.m, row.algorithm) for row in result.rows if not math.isfinite(row.frobenius_error))
        doc = {
            "config": sweep_config_to_dict(result.config) if result.config is not None else None,
            "rows": [
                {
                    "trial": row.trial,
                    "m": row.m,
                    "algorithm": row.algorithm,
                    "frobenius_error": _finite_or_null(row.frobenius_error),
                    "cond_ratio": _finite_or_null(row.cond_ratio),
                    "wall_time_s": row.wall_time_s,
                    "warnings": row.warnings,
                }
                for row in result.rows
            ],
            "aggregate": {
                "means": [
                    {
                        "m": m,
                        "algorithm": alg,
                        "mean_frobenius_error": _finite_or_null(err),
                        "excluded": excluded[(m, alg)],
                    }
                    for (m, alg), err in sorted(result.means.items())
                ]
            },
        }
        text = json.dumps(doc, indent=2, allow_nan=False)
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        raise BadConfig(f"unknown export format {format!r}")


def load_result_json(path) -> SweepResult:
    with open(path) as fh:
        doc = json.load(fh)
    rows = tuple(
        SweepRow(
            trial=int(r["trial"]),
            m=int(r["m"]),
            algorithm=r["algorithm"],
            frobenius_error=_float_or_nan(r["frobenius_error"]),
            cond_ratio=_float_or_nan(r["cond_ratio"]),
            wall_time_s=float(r["wall_time_s"]),
            warnings=r["warnings"],
        )
        for r in doc["rows"]
    )
    means = {
        (int(entry["m"]), entry["algorithm"]): _float_or_nan(entry["mean_frobenius_error"])
        for entry in doc["aggregate"]["means"]
    }
    config = sweep_config_from_dict(doc["config"]) if doc.get("config") else None
    return SweepResult(rows=rows, means=means, config=config)


def _finite_or_null(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _float_or_nan(x) -> float:
    return math.nan if x is None else float(x)


def load_result_csv(path) -> SweepResult:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = tuple(
            SweepRow(
                trial=int(r["trial"]),
                m=int(r["m"]),
                algorithm=r["algorithm"],
                frobenius_error=float(r["frobenius_error"]),
                cond_ratio=float(r["cond_ratio"]),
                wall_time_s=float(r["wall_time_s"]),
                warnings=r["warnings"],
            )
            for r in reader
        )
    return SweepResult(rows=rows, means=mean_errors(rows), config=None)
