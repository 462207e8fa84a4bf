"""Command-line entry point.

Subcommands: ``gen-network`` (random system JSON), ``simulate`` (system ->
trajectory CSV), ``identify`` (trajectory + topology -> model JSON),
``sweep`` (config JSON -> results CSV/JSON), ``validate`` (topology JSON ->
violations). Exit codes: 0 success, 1 validation/configuration errors,
2 I/O errors.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import BadConfig, NetdmdError
from .numkernel import EXACT_RULE, RelativeThreshold
from .bench import (
    export_result,
    generate_system,
    generator_config_from_dict,
    run_sweep,
    sweep_config_from_dict,
)
from .dmdcore import dmdc_exact, model_to_dict
from .netdmdc import network_dmdc_exact, network_model_to_dict
from .sysmodel import (
    derive_rng,
    read_trajectory_csv,
    simulate,
    system_from_dict,
    system_to_dict,
    write_trajectory_csv,
)
from .topology import topology_from_dict, validate


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _read_document(path, reader):
    """``reader`` applied to the JSON document at ``path``.

    The readers index and convert fields as they are documented, so a field
    of the wrong type (a list where an object belongs, a number where a list
    does) surfaces as a TypeError or AttributeError from the reader; that is
    a :class:`BadConfig` about the document.
    """
    doc = _load_json(path)
    try:
        return reader(doc)
    except (TypeError, AttributeError) as exc:
        raise BadConfig(f"{path}: field of the wrong type: {exc}") from exc


def _dump_json(doc, path):
    if path is None:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _cmd_gen_network(args) -> int:
    family = {"family": args.family.replace("-", "_")}
    if args.family == "circular":
        family.update(n_states=args.n_states, input_period=args.input_period)
    else:
        family.update(n=args.n, p=args.p)
    cfg = generator_config_from_dict(
        {
            **family,
            "coeff_range": args.coeff_range,
            "input_range": args.input_range,
            "seed": args.seed,
        }
    )
    system = generate_system(cfg)
    _dump_json(system_to_dict(system), args.out)
    return 0


def _cmd_simulate(args) -> int:
    system = _read_document(args.system, system_from_dict)
    t = system.topology
    if args.x0 is not None:
        x0 = np.array([float(s) for s in args.x0.split(",")])
    else:
        x0 = derive_rng(args.x0_seed).uniform(*args.x0_range, size=t.total_state_dim)
    if args.inputs_json is not None:
        inputs = _read_document(args.inputs_json, lambda doc: np.asarray(doc, dtype=float))
    else:
        if args.steps is None:
            raise NetdmdError("--steps is required when inputs are drawn from a seed")
        inputs = derive_rng(args.input_seed).uniform(
            *args.input_range, size=(t.total_input_dim, args.steps)
        )
    traj = simulate(system, x0, inputs)
    write_trajectory_csv(traj, t, args.out)
    return 0


def _cmd_identify(args) -> int:
    topology = _read_document(args.topology, topology_from_dict)
    traj = read_trajectory_csv(args.trajectory)
    algorithm = args.algorithm.replace("-", "_")
    rule = RelativeThreshold(args.rcond)
    if algorithm == "network_dmdc":
        model = network_dmdc_exact(topology, traj, rule)
        _dump_json(network_model_to_dict(model), args.out)
        return 0
    gamma = traj.gamma if algorithm == "dmdc" else None
    model = dmdc_exact(traj.z, traj.y, gamma, rule)
    _dump_json(model_to_dict(model), args.out)
    return 0


def _cmd_sweep(args) -> int:
    cfg = _read_document(args.config, sweep_config_from_dict)
    result = run_sweep(cfg)
    if args.csv is None and args.json is None:
        for (m, alg), err in sorted(result.means.items()):
            print(f"m={m} {alg}: mean_error={err:.6e}")
        return 0
    if args.csv is not None:
        export_result(result, "csv", args.csv)
    if args.json is not None:
        export_result(result, "json", args.json)
    return 0


def _cmd_validate(args) -> int:
    topology = _read_document(args.topology, topology_from_dict)
    violations = validate(topology)
    for violation in violations:
        print(f"{violation.code}: {violation.message}")
    if violations:
        return 1
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="netdmd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-network", help="generate a random system as JSON")
    gen.add_argument("--family", choices=("circular", "erdos-renyi"), required=True)
    gen.add_argument("--n-states", type=int, default=6, help="circular: number of ring vertices")
    gen.add_argument("--input-period", type=int, default=2, help="circular: attach an input every k-th vertex")
    gen.add_argument("--n", type=int, default=10, help="erdos-renyi: number of vertices")
    gen.add_argument("--p", type=float, default=0.1, help="erdos-renyi: edge probability")
    gen.add_argument("--coeff-range", type=float, nargs=2, default=(-1.0, 1.0), metavar=("LO", "HI"))
    gen.add_argument("--input-range", type=float, nargs=2, default=(-1.0, 1.0), metavar=("LO", "HI"))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", "-o", default=None, help="output file (default: stdout)")
    gen.set_defaults(func=_cmd_gen_network)

    sim = sub.add_parser("simulate", help="simulate a system to a trajectory CSV")
    sim.add_argument("--system", required=True, help="system JSON file")
    sim.add_argument("--x0", default=None, help="comma-separated initial state")
    sim.add_argument("--x0-seed", type=int, default=0)
    sim.add_argument("--x0-range", type=float, nargs=2, default=(-1.0, 1.0), metavar=("LO", "HI"))
    sim.add_argument("--inputs-json", default=None, help="JSON file with an l-by-m input matrix")
    sim.add_argument("--input-seed", type=int, default=0)
    sim.add_argument("--input-range", type=float, nargs=2, default=(-1.0, 1.0), metavar=("LO", "HI"))
    sim.add_argument("--steps", type=int, default=None, help="number of snapshot triples m")
    sim.add_argument("--out", "-o", required=True, help="trajectory CSV path")
    sim.set_defaults(func=_cmd_simulate)

    ident = sub.add_parser("identify", help="identify a model from a trajectory CSV")
    ident.add_argument("--trajectory", required=True, help="trajectory CSV file")
    ident.add_argument("--topology", required=True, help="topology JSON file")
    ident.add_argument("--algorithm", choices=("dmd", "dmdc", "network-dmdc"), required=True)
    ident.add_argument("--rcond", type=float, default=EXACT_RULE.tau, help="relative cut in (0, 1): RelativeThreshold(RCOND)")
    ident.add_argument("--out", "-o", default=None, help="model JSON path (default: stdout)")
    ident.set_defaults(func=_cmd_identify)

    sweep = sub.add_parser("sweep", help="run a recovery-error sweep from a config file")
    sweep.add_argument("--config", required=True, help="sweep config JSON file")
    sweep.add_argument("--csv", default=None, help="write rows as CSV here")
    sweep.add_argument("--json", default=None, help="write rows plus aggregates as JSON here")
    sweep.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="check a topology JSON for violations")
    val.add_argument("--topology", required=True, help="topology JSON file")
    val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (NetdmdError, ValueError, KeyError, OverflowError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
