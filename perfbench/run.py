"""netdmd benchmark: one workload per process, closed loop with a single caller.

Run from the repository root (the program is imported from ./src):

    python3 perfbench/run.py --workload er_identify --seed 3 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
runs an untraced phase and then a traced phase of the same length, and prints
the per-layer metrics (per op) of the traced phase plus the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON record
of the environment, input sizes, checks and failures.

BLAS runs with a fixed thread count. The benchmark starts no threads; its
only child processes are the short-lived interpreters that time the import
during set-up, one at a time, before any op runs.
"""
import ctypes
import os

#: BLAS/OpenMP threads. One thread per process keeps the dense kernels off the
#: other core, which a shared 2-core machine needs for repeatable timings.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

#: glibc raises its mmap threshold after large frees, so whether a large array
#: lands in reusable heap or in its own mapping depends on allocation history,
#: and peak RSS moved by about 15 MB between identical runs. A fixed threshold
#: (set before numpy allocates anything) keeps ``peak_rss_mb`` tied to live memory.
MMAP_THRESHOLD = 1 << 17
M_MMAP_THRESHOLD = -3


def _fix_mmap_threshold():
    """Pin glibc's mmap threshold; returns it, or None where mallopt is unavailable."""
    try:
        ok = ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    except (OSError, AttributeError):
        return None
    return MMAP_THRESHOLD if ok else None


MALLOC_MMAP_THRESHOLD = _fix_mmap_threshold()

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up (fresh-interpreter import, then system build) is repeated this many
#: times per run; ``setup_s`` adds the two medians.
SETUP_REPEATS = 3

#: Round index of the warm-up op, a stream no timed round uses.
WARMUP_ROUND = -1


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default: the workload's recorded default)")
    p.add_argument("--seconds", type=float, default=10.0, help="length of each measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root):
    """HEAD commit read from ``.git`` directly, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def environment(np):
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})

    def lib(kind):
        entry = deps.get(kind, {})
        return {"name": entry.get("name"), "version": entry.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": lib("blas"),
        "lapack": lib("lapack"),
        "blas_threads": int(BLAS_THREADS),
        "malloc_mmap_threshold": MALLOC_MMAP_THRESHOLD,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def import_runs():
    """Seconds a fresh interpreter spends importing the program, timed inside it."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = "import time; t = time.perf_counter(); import netdmd; print(time.perf_counter() - t)"
    runs = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=60,
                               capture_output=True, text=True)
        runs.append(float(child.stdout))
    return runs


class Phase:
    """Latencies and outcomes of the ops of one measured phase."""

    def __init__(self):
        self.latencies = []
        self.failures = []
        self.node_failures = 0
        self.ill_conditioned_nodes = 0
        self.rounds = 0

    @property
    def ops(self):
        return len(self.latencies)

    @property
    def ops_per_s(self):
        return self.ops / sum(self.latencies)


def run_op(workload, inp, phase, tracer=None):
    """Time one op, then judge it; an op that raises is a failed op and the phase goes on."""
    if tracer is not None:
        tracer.recording = True
    start = time.perf_counter()
    try:
        result, error = workload.op(inp), None
    except Exception as exc:  # any exception fails this op only; its type and message are kept
        result, error = None, f"{type(exc).__name__}: {exc}"
    phase.latencies.append(time.perf_counter() - start)
    if tracer is not None:
        tracer.recording = False
    if error is not None:
        phase.failures.append(error)
        return
    outcome = workload.check(inp, result)
    phase.node_failures += outcome.node_failures
    phase.ill_conditioned_nodes += outcome.ill_conditioned_nodes
    if outcome.failure is not None:
        phase.failures.append(outcome.failure)


def run_phase(workload, seconds, first_round, tracer=None):
    """Run whole rounds until ``seconds`` have passed (at least one round)."""
    phase = Phase()
    start = time.perf_counter()
    r = first_round
    while phase.rounds == 0 or time.perf_counter() - start < seconds:
        for inp in workload.round_inputs(r):
            run_op(workload, inp, phase, tracer)
        workload.end_round(r)
        phase.rounds += 1
        r += 1
    return phase, r


def end_to_end_metrics(np, phase, setup_s):
    lat = np.asarray(phase.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "ops/s"),
        "op_p50_s": (float(np.percentile(lat, 50)), "s"),
        "op_p90_s": (float(np.percentile(lat, 90)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


#: (span, statistic) pairs reported as ``<span>.<statistic>``, per op of the traced phase.
SPAN_METRICS = (
    ("topology.local_subsystem", "calls"),
    ("topology.local_subsystem", "self_s"),
    ("sysmodel.generate", "self_s"),
    ("sysmodel.simulate", "self_s"),
    ("sysmodel.step", "calls"),
    ("sysmodel.true_full_matrices", "self_s"),
    ("netdmdc.build_local_data", "calls"),
    ("netdmdc.build_local_data", "self_s"),
    ("netdmdc.network_dmdc_exact", "self_s"),
    ("netdmdc.model_error", "self_s"),
    ("dmdcore.dmdc_exact", "calls"),
    ("dmdcore.dmdc_exact", "self_s"),
    ("numkernel.pseudoinverse", "calls"),
    ("numkernel.pseudoinverse", "self_s"),
    ("numkernel.conditioning_record", "calls"),
    ("numkernel.conditioning_record", "self_s"),
    ("numkernel.svd", "calls"),
    ("numkernel.svd", "self_s"),
    ("bench.run_trial", "self_s"),
    ("bench.trajectory_digest", "calls"),
    ("bench.trajectory_digest", "self_s"),
)


def per_layer_metrics(tracer, phase, base_ops_per_s):
    ops = phase.ops
    out = {}
    for span, stat in SPAN_METRICS:
        value = getattr(tracer.stat(span), stat)
        out[f"{span}.{stat}"] = (value / ops, "s/op" if stat == "self_s" else "calls/op")
    out["netdmdc.node_solves"] = (tracer.node_solves / ops, "calls/op")
    out["netdmdc.node_failures"] = (phase.node_failures / ops, "count/op")
    out["netdmdc.ill_conditioned_nodes"] = (phase.ill_conditioned_nodes / ops, "count/op")
    out["numkernel.svd.matrices"] = (tracer.svd_matrices / ops, "count/op")
    out["numkernel.svd.elements"] = (tracer.svd_elements / ops, "count/op")
    out["trace.coverage"] = (tracer.top_s / sum(phase.latencies), "ratio")
    out["trace.overhead"] = (phase.ops_per_s / base_ops_per_s, "ratio")
    return out


def measure(workload, seconds, trace, import_s=0.0):
    """Set up, warm up and measure one workload; returns (result, record).

    ``import_s`` is the import part of ``setup_s``; ``workload.setup`` runs
    ``SETUP_REPEATS`` times and its median is added.

    ``result`` is the object printed as the last output line; ``record``
    holds the environment, input sizes, checks and failures.
    """
    import numpy as np
    import spans

    setup_runs = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_runs.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_runs)

    warmup = Phase()
    run_op(workload, workload.round_inputs(WARMUP_ROUND)[0], warmup)

    phase, next_round = run_phase(workload, seconds, 0)
    base = None
    if trace:
        tracer = spans.Tracer()
        base = phase
        with spans.installed(tracer):
            phase, _ = run_phase(workload, seconds, next_round, tracer)
        metrics = per_layer_metrics(tracer, phase, base.ops_per_s)
    else:
        metrics = end_to_end_metrics(np, phase, setup_s)

    measured = [p for p in (base, phase) if p is not None]
    attempted = sum(p.ops for p in measured)
    failed = sum(len(p.failures) for p in measured)
    failures = warmup.failures + [f for p in measured for f in p.failures]
    lat = np.asarray(phase.latencies)
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(np),
        "inputs": {**workload.sizes(), "ops": attempted},
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "warmup_s": warmup.latencies[0],
        "op_samples": phase.ops,
        "op_samples_beyond_p90": int(np.count_nonzero(lat > np.percentile(lat, 90))),
        "rounds": phase.rounds,
        "failed_ratio": failed / attempted,
        "failures": failures[:10],
        "checks": getattr(workload, "sweep_checks", None),
    }
    if base is not None:
        record["trace_overhead_base_ops_per_s"] = base.ops_per_s
        record["traced_ops_per_s"] = phase.ops_per_s
        record["per_round_counts"] = {
            name: value * workload.ops_per_round
            for name, (value, unit) in metrics.items()
            if unit in ("calls/op", "count/op")
        }
    result = {
        "correct": not failures and workload.checks_passed(),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, record


def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    try:
        import netdmd
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(netdmd.__file__).startswith(SRC + os.sep):
        print(f"netdmd was imported from {netdmd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, workloads.NAMES)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    workload = workloads.make(args.workload, seed)
    imports = import_runs()
    result, record = measure(workload, args.seconds, args.trace, import_s=statistics.median(imports))
    record["default_seed"] = workloads.DEFAULT_SEEDS[args.workload]
    record["import_runs_s"] = imports

    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} failed_ratio = {record['failed_ratio']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(record, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
