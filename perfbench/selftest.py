"""Self-test of the benchmark at toy sizes; exits 0 when every check holds.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that an injected bad op is counted as failed while the workload carries on,
and that traced self times are non-negative with trace coverage at most 1.
"""
import json
import math
import os
import sys

import run  # sets the BLAS thread count before numpy is imported

sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from netdmd import sysmodel  # noqa: E402

SECONDS = 0.2


def toy_workloads(seed):
    return [
        workloads.PaperRingSweep(seed, n_states=6, trials=2, m_values=(3, 5, 10)),
        workloads.NetworkIdentify("ring_identify", seed, sysmodel.Circular(20, 2), m=10),
        workloads.NetworkIdentify("er_identify", seed, sysmodel.ErdosRenyi(30, 2.5 / 30), m=20,
                                  input_range=(-1.0, 1.0)),
        workloads.DenseDmdc(seed, n_states=10, m=30),
    ]


class Corrupted:
    """Delegates to a workload but corrupts the op inputs of round 1."""

    def __init__(self, inner, corrupt):
        self._inner = inner
        self._corrupt = corrupt

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def round_inputs(self, r):
        inputs = self._inner.round_inputs(r)
        if r == 1:
            self._corrupt(inputs[0])
        return inputs


def nan_state(traj):
    traj.z[0, 0] = np.nan


def shifted_successor(traj):
    traj.y[0, -1] += 1.0


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    for trace in (0, 1):
        for workload in toy_workloads(seed=5):
            label = f"{workload.name} trace={trace}"
            result, record = run.measure(workload, SECONDS, trace)
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == wanted[trace], f"{label}: metrics/units {units} differ from BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0, f"{label}: clean toy run not correct: {record['failures']}")
            expect(all(math.isfinite(m["value"]) for m in result["metrics"].values()), f"{label}: non-finite metric")
            if trace:
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                negative = [n for n, v in metrics.items() if n.endswith(".self_s") and v < 0]
                expect(not negative, f"{label}: negative self time in {negative}")
                expect(0 < metrics["trace.coverage"] <= 1, f"{label}: coverage {metrics['trace.coverage']}")
                if workload.name == "dense_dmdc":
                    expect(metrics["topology.local_subsystem.calls"] == 0, f"{label}: topology called in timed ops")

    toys = {w.name: w for w in toy_workloads(seed=6)}
    injected = [
        ("ring_identify", nan_state, "node failures"),
        ("dense_dmdc", nan_state, "NonFiniteEntry"),
        ("er_identify", shifted_successor, "recovery error"),
    ]
    for name, corrupt, reason in injected:
        label = f"{name} with {corrupt.__name__} in round 1"
        result, record = run.measure(Corrupted(toys[name], corrupt), SECONDS, 0)
        expect(result["failed"] == 1, f"{label}: failed={result['failed']}, expected 1")
        expect(result["attempted"] > 2, f"{label}: workload stopped after {result['attempted']} ops")
        expect(not result["correct"], f"{label}: run still reported correct")
        expect(any(reason in f for f in record["failures"]), f"{label}: failures {record['failures']} lack {reason!r}")
        expect(record["failed_ratio"] == 1 / result["attempted"], f"{label}: failed_ratio {record['failed_ratio']}")

    for p in problems:
        print("FAIL", p)
    print(f"selftest: {'FAIL' if problems else 'PASS'} ({len(problems)} problems)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
