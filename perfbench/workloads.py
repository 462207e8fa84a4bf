"""The benchmark's seeded workloads, driven through netdmd's public API.

Each workload builds all of its inputs from its seed. ``setup`` builds what a
user would build once (system, ground truth); ``round_inputs(r)`` prepares
the op inputs of round r outside the timed ops; ``op`` is the timed unit of
work; ``check`` decides whether one op's output is correct. The paper sweep
runs its ops in whole passes of 120 cells so every measured phase sees the
same mix of cell sizes; the other workloads have one op per round.

Layer functions are always called through their module
(``netdmdc.network_dmdc_exact``) so the tracer's wrappers see every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from netdmd import bench, dmdcore, netdmdc, numkernel, sysmodel

#: A recovery error at or above this, where the data identify the model, fails the op.
RECOVERY_THRESHOLD = 1e-6

#: Criterion 3 of the acceptance suite, checked on every completed sweep pass.
SWEEP_NET_AT_M3 = 1e-6
SWEEP_DMDC_AT_M75 = 1e-3
SWEEP_WELL_CONDITIONED = 1e-10

DEFAULT_SEEDS = {"paper_ring_sweep": 2024, "ring_identify": 1, "er_identify": 1, "dense_dmdc": 1}


@dataclass
class Outcome:
    """What one op produced, as far as the benchmark judges it."""

    failure: str | None = None
    node_failures: int = 0
    ill_conditioned_nodes: int = 0


def local_dims(topology) -> list[int]:
    """Local-subsystem dimension of every state vertex, in one pass over the edges."""
    dims = {v: topology.dims[v] for v in topology.state_vertices}
    for src, dst in topology.edges:
        dims[dst] += topology.dims[src]
    return list(dims.values())


class PaperRingSweep:
    """Acceptance criterion 3: 20 rings of 50 scalar states, m in {3,...,75}, two algorithms.

    One op is one ``run_trial`` cell; a trial's first cell also generates the
    trial's system, as ``run_sweep`` does. Pass p of a run uses a master seed
    derived from (seed, p).
    """

    name = "paper_ring_sweep"

    def __init__(self, seed, n_states=50, trials=20, m_values=(3, 5, 10, 25, 50, 75)):
        self.seed = seed
        self.trials = trials
        self.m_values = tuple(m_values)
        self.gen = sysmodel.GeneratorConfig(
            sysmodel.Circular(n_states, 2), coeff_range=(-1.0, 1.0), input_range=(-10.0, 10.0)
        )
        self.algorithms = ("dmdc", "network_dmdc")
        self._system = None
        self._pass_rows: dict[int, list] = {}
        self.sweep_checks: list[dict] = []

    @property
    def ops_per_round(self) -> int:
        return self.trials * len(self.m_values)

    def setup(self) -> None:
        probe = bench.generate_system(self.gen, sysmodel.derive_rng(self.seed, 0, 0))
        self.topology = probe.topology
        self.max_local_dim = max(local_dims(probe.topology))

    def sizes(self) -> dict:
        t = self.topology
        return {
            "n": t.total_state_dim,
            "l": t.total_input_dim,
            "edges": len(t.edges),
            "m": list(self.m_values),
            "max_local_dim": self.max_local_dim,
            "trials_per_pass": self.trials,
            "ops_per_pass": self.ops_per_round,
        }

    def master_seed(self, r: int) -> int:
        return int(sysmodel.derive_rng(self.seed, r).integers(2**62))

    def round_inputs(self, r: int) -> list:
        master = self.master_seed(r)
        return [(r, master, trial, m) for trial in range(self.trials) for m in self.m_values]

    def op(self, cell):
        _, master, trial, m = cell
        if m == self.m_values[0]:
            self._system = bench.generate_system(self.gen, sysmodel.derive_rng(master, trial, 0))
        return bench.run_trial(
            self._system,
            m,
            self.algorithms,
            sysmodel.derive_rng(master, trial, m),
            input_range=self.gen.input_range,
            trial=trial,
        )

    def check(self, cell, rows) -> Outcome:
        r, _, trial, m = cell
        self._pass_rows.setdefault(r, []).extend(rows)
        failure = None
        node_failures = 0
        ill = 0
        for row in rows:
            tags = row.warnings.split(";") if row.warnings else []
            node_failures += sum(tag.startswith("failed:") for tag in tags)
            ill += sum(tag.startswith("ill_conditioned:") for tag in tags)
            if not math.isfinite(row.frobenius_error):
                failure = failure or f"{row.algorithm}: non-finite error"
            elif row.algorithm == "network_dmdc" and m >= self.max_local_dim and row.frobenius_error >= RECOVERY_THRESHOLD:
                failure = failure or f"network_dmdc: error {row.frobenius_error:.3e} at m={m}"
        if node_failures:
            failure = failure or f"{node_failures} node failures"
        return Outcome(failure, node_failures, ill)

    def end_round(self, r: int) -> None:
        """Run criterion 3's aggregate checks over pass r's rows (cells that raised are missing)."""
        rows = self._pass_rows.pop(r, [])
        means = bench.mean_errors(rows)
        nan = float("nan")
        m_lo, m_hi = self.m_values[0], self.m_values[-1]
        well = [row.frobenius_error for row in rows
                if row.m == m_hi and row.algorithm == "dmdc" and row.cond_ratio > SWEEP_WELL_CONDITIONED]
        dmdc_hi = float(np.mean(well)) if well else float("inf")
        net_lo = means.get((m_lo, "network_dmdc"), nan)
        ordering = all(
            means.get((m, "network_dmdc"), nan) < means.get((m, "dmdc"), nan) for m in self.m_values[:-1]
        )
        self.sweep_checks.append({
            "pass": r,
            "cells": len(rows) // len(self.algorithms),
            "net_at_m_lo": net_lo,
            "dmdc_at_m_hi_well_conditioned": dmdc_hi,
            "well_conditioned_rows": len(well),
            "ordering": ordering,
            "passed": bool(net_lo < SWEEP_NET_AT_M3 and well and dmdc_hi < SWEEP_DMDC_AT_M75 and ordering),
        })

    def checks_passed(self) -> bool:
        return all(c["passed"] for c in self.sweep_checks)


class _Identify:
    """Shared shape of the single-system workloads: one op per round.

    Every op gets a fresh trajectory, rolled out from the true model by
    ``dmdcore.predict`` from a fresh x0 and input draw (stream (seed, 1, r)).
    """

    ops_per_round = 1

    def __init__(self, seed, family, m, input_range):
        self.seed = seed
        self.m = m
        self.gen = sysmodel.GeneratorConfig(family, coeff_range=(-1.0, 1.0), input_range=input_range)
        self.system = None

    def setup(self) -> None:
        self.system = self.truth = self.truth_a = self.truth_b = None
        self.system = bench.generate_system(self.gen, sysmodel.derive_rng(self.seed, 0))
        self.truth_a, self.truth_b = sysmodel.true_full_matrices(self.system)
        self.topology = self.system.topology
        self.ranges = self.topology.vertex_row_ranges()
        self.max_local_dim = max(local_dims(self.topology))
        l = self.topology.total_input_dim
        self.identifiable = self.m >= self._snapshots_needed()
        self.truth = dmdcore.ExactLinearModel(
            a=self.truth_a,
            b=self.truth_b if l else None,
            conditioning=numkernel.ConditioningRecord(1.0, 1.0, 0.0, False),
        )

    def sizes(self) -> dict:
        t = self.topology
        return {
            "n": t.total_state_dim,
            "l": t.total_input_dim,
            "edges": len(t.edges),
            "m": self.m,
            "max_local_dim": self.max_local_dim,
            "identifiable": self.identifiable,
        }

    def round_inputs(self, r: int) -> list:
        rng = sysmodel.derive_rng(self.seed, 1, r)
        n = self.topology.total_state_dim
        l = self.topology.total_input_dim
        x0 = rng.uniform(-1.0, 1.0, size=n)
        u = rng.uniform(*self.gen.input_range, size=(l, self.m))
        y = dmdcore.predict(self.truth, x0, u if l else None, self.m)
        z = np.hstack([x0[:, None], y[:, :-1]])
        return [sysmodel.TrajectoryData(z=z, gamma=u, y=y, vertex_row_ranges=self.ranges)]

    def _judge(self, a, b, error, node_failures=0, ill=0) -> Outcome:
        if not (np.all(np.isfinite(a)) and (b is None or np.all(np.isfinite(b)))):
            return Outcome("non-finite model matrices", node_failures, ill)
        if node_failures:
            return Outcome(f"{node_failures} node failures", node_failures, ill)
        if not math.isfinite(error):
            return Outcome("non-finite recovery error", node_failures, ill)
        if self.identifiable and error >= RECOVERY_THRESHOLD:
            return Outcome(f"recovery error {error:.3e} at m={self.m}", node_failures, ill)
        return Outcome(None, node_failures, ill)

    def end_round(self, r: int) -> None:
        pass

    def checks_passed(self) -> bool:
        return True


class NetworkIdentify(_Identify):
    """One ``network_dmdc_exact`` identification plus its score against the truth."""

    def __init__(self, name, seed, family, m, input_range=(-10.0, 10.0)):
        super().__init__(seed, family, m, input_range)
        self.name = name

    def _snapshots_needed(self) -> int:
        return self.max_local_dim

    def op(self, traj):
        model = netdmdc.network_dmdc_exact(self.topology, traj)
        return model, netdmdc.model_error(model, self.truth_a, self.truth_b)

    def check(self, traj, result) -> Outcome:
        model, error = result
        ill = sum(rec.warning for rec in model.per_node_conditioning.values())
        return self._judge(model.assembled_a, model.assembled_b, error, len(model.node_failures), ill)


class DenseDmdc(_Identify):
    """Whole-system ``dmdc_exact`` with more snapshots than states plus inputs."""

    name = "dense_dmdc"

    def __init__(self, seed, n_states=800, m=1300):
        super().__init__(seed, sysmodel.Circular(n_states, 2), m, (-10.0, 10.0))

    def _snapshots_needed(self) -> int:
        return self.topology.total_state_dim + self.topology.total_input_dim

    def op(self, traj):
        model = dmdcore.dmdc_exact(traj.z, traj.y, traj.gamma)
        return model, netdmdc.model_error(model, self.truth_a, self.truth_b)

    def check(self, traj, result) -> Outcome:
        model, error = result
        return self._judge(model.a, model.b, error)


def make(name: str, seed: int):
    """The workload called ``name`` at its benchmark size."""
    if name == "paper_ring_sweep":
        return PaperRingSweep(seed)
    if name == "ring_identify":
        return NetworkIdentify(name, seed, sysmodel.Circular(2000, 2), m=10)
    if name == "er_identify":
        return NetworkIdentify(name, seed, sysmodel.ErdosRenyi(2000, 2.5 / 2000), m=20, input_range=(-1.0, 1.0))
    if name == "dense_dmdc":
        return DenseDmdc(seed)
    raise KeyError(name)


NAMES = tuple(DEFAULT_SEEDS)
