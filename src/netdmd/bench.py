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

from .errors import BadConfig, NetdmdError, _json_value
from .numkernel import EXACT_RULE, FixedRank, MachineDefault, RelativeThreshold, TruncationRule
from .dmdcore import ExactLinearModel, dmd_reduced, dmdc_exact, dmdc_reduced, lift_reduced
from .netdmdc import NetworkModel, model_error, network_dmdc_exact, network_dmdc_reduced
from .sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    LinearNetworkSystem,
    _check_range,
    derive_rng,
    gen_circular,
    gen_erdos_renyi,
    simulate,
    true_full_matrices,
)
from .topology import gather_plan

ALGORITHMS = ("dmd", "dmdc", "network_dmdc")

#: CSV header of exported sweep results; order and spelling are part of the
#: file format.
CSV_COLUMNS = ("trial", "m", "algorithm", "frobenius_error", "cond_ratio", "wall_time_s", "warnings")


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to reproduce a sweep bit-for-bit; a ``truncation`` of None becomes the path's default rule."""

    generator: GeneratorConfig
    trials: int
    m_values: tuple[int, ...]
    algorithms: tuple[str, ...] = ("dmdc", "network_dmdc")
    truncation: TruncationRule | None = None
    master_seed: int = 0
    initial_state_range: tuple[float, float] = (-1.0, 1.0)
    use_reduced: bool = False

    def __post_init__(self):
        m_values = tuple(self.m_values)
        integers = (isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in (self.trials, *m_values))
        if not m_values or not all(integers) or min(self.trials, *m_values) < 1:
            raise BadConfig(f"trials and a nonempty m_values must be integers >= 1, got {self.trials!r}, {m_values!r}")
        if self.truncation is None:
            object.__setattr__(self, "truncation", _default_rule(self.use_reduced))
        elif not isinstance(self.truncation, TruncationRule):
            raise BadConfig(f"truncation must be a FixedRank, RelativeThreshold or MachineDefault rule, got {self.truncation!r}")
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "m_values", tuple(int(m) for m in m_values))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if not self.algorithms or unknown:
            raise BadConfig(f"algorithms must be a nonempty subset of {ALGORITHMS}, got {self.algorithms}")
        _check_range("initial_state_range", self.initial_state_range)


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


def _default_rule(use_reduced: bool) -> TruncationRule:
    """The rule a sweep cuts by when it names none: ``EXACT_RULE`` for the exact solvers, ``MachineDefault`` for the reduced."""
    return MachineDefault() if use_reduced else EXACT_RULE


def _identify(algorithm, system, traj, rule, use_reduced):
    """Run one algorithm, cut by ``rule``; returns (model to score, sigma ratio, warnings list).

    A network result is scored as the full-space :class:`NetworkModel` both
    network solvers return, and its ratio is the smallest of its nodes'
    records' (NaN if it has none), read with the warned nodes from the
    model's conditioning arrays; a whole-system result as the full-space
    :class:`ExactLinearModel` it lifts to.
    """
    t = system.topology
    if algorithm == "network_dmdc":
        model = network_dmdc_reduced(t, traj, rule, rule) if use_reduced else network_dmdc_exact(t, traj, rule)
        c = model.conditioning
        ratios = c.ratio[c.present]
        warned = sorted(t.state_vertices[i] for i in np.flatnonzero(c.warning).tolist())
        warnings = [f"ill_conditioned:{v}" for v in warned]
        under = sorted(i for g in gather_plan(t) if g.shape[2] > traj.z.shape[1] for i in g.vertex_index.tolist())
        warnings += [f"underdetermined:{t.state_vertices[i]}" for i in under]
        warnings += [f"failed:{v}" for v in sorted(model.node_failures)]
        return model, float(ratios.min()) if ratios.size else math.nan, warnings
    if algorithm == "dmdc":
        model = dmdc_reduced(traj.z, traj.y, traj.gamma, rule, rule)[0] if use_reduced else dmdc_exact(traj.z, traj.y, traj.gamma, rule)
    elif algorithm == "dmd":
        model = dmd_reduced(traj.z, traj.y, rule)[0] if use_reduced else dmdc_exact(traj.z, traj.y, rule=rule)
    else:
        raise BadConfig(f"unknown algorithm {algorithm!r}")
    if use_reduced:
        a, b = lift_reduced(model)
        model = ExactLinearModel(a=a, b=b, conditioning=model.conditioning)
    warnings = ["ill_conditioned"] if model.conditioning.warning else []
    if algorithm == "dmd" and t.total_input_dim > 0:
        warnings.append("dmd_ignores_inputs")
    return model, model.conditioning.ratio, warnings


def run_trial(
    system: LinearNetworkSystem,
    m: int,
    algorithms,
    rng: np.random.Generator,
    truncation: TruncationRule | None = None,
    initial_state_range: tuple[float, float] = (-1.0, 1.0),
    input_range: tuple[float, float] = (-1.0, 1.0),
    trial: int = 0,
    use_reduced: bool = False,
) -> list[SweepRow]:
    """Simulate one trajectory of length m and score every algorithm on it.

    The state starts uniform in ``initial_state_range`` and each input entry
    is drawn i.i.d. uniform from ``input_range``. All algorithms consume the
    same trajectory, which :func:`simulate` returns read-only; the error is
    measured against the system's true assembled matrices. Every algorithm
    cuts by ``truncation``, by default its path's rule. A plain DMD run
    on a driven system scores its state operator only and is tagged
    ``dmd_ignores_inputs``.

    Failures become rows, not exceptions. If the simulation or an algorithm
    raises a :class:`NetdmdError`, each affected row has a NaN error and
    sigma ratio and the tags ``failed`` and ``error:<type>``. A network row
    with failed nodes (tagged ``failed:<vertex>``) also reports a NaN error
    and sigma ratio, since its zeroed blocks are not an estimate; the
    ``ill_conditioned:<vertex>`` tags of its other nodes stay. A node whose
    local dimension exceeds m is tagged ``underdetermined:<vertex>``.
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
    rule = _default_rule(use_reduced) if truncation is None else truncation
    rows = []
    for algorithm in algorithms:
        start = time.perf_counter()
        try:
            model, ratio, warnings = _identify(algorithm, system, traj, rule, use_reduced)
        except NetdmdError as exc:
            rows.append(_failed_row(trial, m, algorithm, time.perf_counter() - start, exc))
            continue
        wall = time.perf_counter() - start
        if any(tag.startswith("failed:") for tag in warnings):
            error = ratio = math.nan
        else:
            scores_inputs = isinstance(model, NetworkModel) or model.b is not None
            error = model_error(model, truth_a, truth_b if scores_inputs else None)
        rows.append(
            SweepRow(
                trial=trial,
                m=m,
                algorithm=algorithm,
                frobenius_error=float(error),
                cond_ratio=float(ratio),
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
        return RelativeThreshold(_json_value(d["tau"], float))
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
        family = ErdosRenyi(n=_json_value(d["n"], int), p=_json_value(d["p"], float))
    else:
        raise BadConfig(f"unknown generator family {name!r}")
    return GeneratorConfig(
        family=family,
        coeff_range=tuple(_json_value(x, float) for x in d.get("coeff_range", (-1.0, 1.0))),
        input_range=tuple(_json_value(x, float) for x in d.get("input_range", (-1.0, 1.0))),
        seed=_json_value(d.get("seed", 0), int),
    )


def sweep_config_to_dict(cfg: SweepConfig) -> dict:
    return {
        "generator": generator_config_to_dict(cfg.generator),
        "trials": cfg.trials,
        "m_values": list(cfg.m_values),
        "algorithms": list(cfg.algorithms),
        "truncation": truncation_to_dict(cfg.truncation),
        "master_seed": cfg.master_seed,
        "initial_state_range": list(cfg.initial_state_range),
        "use_reduced": cfg.use_reduced,
    }


def sweep_config_from_dict(d: dict) -> SweepConfig:
    """Read :func:`sweep_config_to_dict`'s form; a legacy ``"rcond"`` is ``RelativeThreshold(rcond)``, an exact sweep's rule over any ``"truncation"``."""
    use_reduced = _json_value(d.get("use_reduced", False), bool)
    truncation = truncation_from_dict(d["truncation"]) if "truncation" in d else None
    if "rcond" in d:
        legacy = RelativeThreshold(_json_value(d["rcond"], float))
        truncation = truncation if use_reduced else legacy
    return SweepConfig(
        generator=generator_config_from_dict(d["generator"]),
        trials=_json_value(d["trials"], int),
        m_values=tuple(_json_value(m, int) for m in d["m_values"]),
        algorithms=tuple(d.get("algorithms", ("dmdc", "network_dmdc"))),
        truncation=truncation,
        master_seed=_json_value(d.get("master_seed", 0), int),
        initial_state_range=tuple(_json_value(x, float) for x in d.get("initial_state_range", (-1.0, 1.0))),
        use_reduced=use_reduced,
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
    """Read :func:`export_result`'s JSON.

    ``trial`` and ``m`` must be JSON integers, ``wall_time_s`` a JSON number,
    and each error, sigma ratio and mean a JSON number or null (read as NaN);
    anything else raises TypeError.
    """
    with open(path) as fh:
        doc = json.load(fh)
    rows = tuple(_row(r, _json_value, _float_or_nan) for r in doc["rows"])
    means = {
        (_json_value(entry["m"], int), entry["algorithm"]): _float_or_nan(entry["mean_frobenius_error"])
        for entry in doc["aggregate"]["means"]
    }
    config = sweep_config_from_dict(doc["config"]) if doc.get("config") else None
    return SweepResult(rows=rows, means=means, config=config)


def _finite_or_null(x: float) -> float | None:
    return x if math.isfinite(x) else None


def _float_or_nan(x) -> float:
    """A JSON number, or NaN for null."""
    return math.nan if x is None else _json_value(x, float)


def _row(r: dict, read, number_or_nan) -> SweepRow:
    """A row read back from its CSV or JSON record.

    ``read(value, kind)`` reads the trial, m and wall time as ``kind``, and
    ``number_or_nan`` the error and sigma ratio.
    """
    return SweepRow(
        trial=read(r["trial"], int),
        m=read(r["m"], int),
        algorithm=r["algorithm"],
        frobenius_error=number_or_nan(r["frobenius_error"]),
        cond_ratio=number_or_nan(r["cond_ratio"]),
        wall_time_s=read(r["wall_time_s"], float),
        warnings=r["warnings"],
    )


def load_result_csv(path) -> SweepResult:
    with open(path, newline="") as fh:
        rows = tuple(_row(r, lambda text, kind: kind(text), float) for r in csv.DictReader(fh))
    return SweepResult(rows=rows, means=mean_errors(rows), config=None)
