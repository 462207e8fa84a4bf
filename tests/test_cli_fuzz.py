"""The CLI's file readers under arbitrary and mutated input: every run exits 0, 1 or 2, never with a traceback.

Numbers are drawn small, so a mutated document that still parses names a
small network, sweep or trajectory and runs in milliseconds. A topology
that breaks an invariant of :func:`validate` (a duplicate edge, an id used
for a state and an input vertex, a self edge, an edge into an input) exits 1.
"""
import contextlib
import copy
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from netdmd.cli import main
from netdmd.sysmodel import (
    BLOCK_KEY_SEP,
    Circular,
    GeneratorConfig,
    gen_circular,
    simulate,
    system_to_dict,
    write_trajectory_csv,
)
from netdmd.topology import topology_to_dict

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(-4.0, 4.0, allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["v0", "v1", "e0", "circular", "erdos_renyi", "fixed_rank", "dmdc", "network_dmdc"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

SYSTEM = gen_circular(GeneratorConfig(Circular(4, 2), seed=1))
TOPOLOGY_DOC = topology_to_dict(SYSTEM.topology)
SYSTEM_DOC = system_to_dict(SYSTEM)
SWEEP_DOC = {
    "generator": {"family": "circular", "n_states": 3, "input_period": 2, "seed": 0},
    "trials": 1,
    "m_values": [3],
    "algorithms": ["dmd", "dmdc", "network_dmdc"],
    "truncation": {"kind": "fixed_rank", "rank": 2},
    "master_seed": 5,
}


def _trajectory_text():
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "traj"
        write_trajectory_csv(simulate(SYSTEM, [0.5, -0.2, 0.1, 0.3], [[0.1, 0.2, -0.3, 0.4, 0.5, -0.6]] * 2), SYSTEM.topology, path)
        return path.read_text()


TRAJECTORY_TEXT = _trajectory_text()


def _paths(node, path=()):
    """The key path of every value inside ``node``, at any depth."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield (*path, key)
        yield from _paths(child, (*path, key))


def _document(data, valid):
    """An arbitrary JSON value, or ``valid`` with one to three values, at any depth, deleted or replaced."""
    if data.draw(st.booleans()):
        return data.draw(JSON_VALUES)
    doc = copy.deepcopy(valid)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            return data.draw(JSON_VALUES)
        *route, key = data.draw(st.sampled_from(paths))
        parent = doc
        for step in route:
            parent = parent[step]
        if data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(JSON_VALUES)
    return doc


def _run(files, argv):
    """``main(argv)`` with each ``{name}`` in argv a file of that name holding ``files[name]``."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: pathlib.Path(tmp) / name for name in ("out", *files)}
        for name, text in files.items():
            paths[name].write_text(text)
        return main([arg.format(**paths) for arg in argv])


ALGORITHMS = st.sampled_from(["dmd", "dmdc", "network-dmdc"])


@given(st.data(), ALGORITHMS)
@settings(max_examples=150, deadline=None)
def test_topology_files(data, algorithm):
    files = {"topology": json.dumps(_document(data, TOPOLOGY_DOC)), "traj": TRAJECTORY_TEXT}
    assert _run(files, ["validate", "--topology", "{topology}"]) in (0, 1, 2)
    identify = ["identify", "--trajectory", "{traj}", "--topology", "{topology}", "--algorithm", algorithm]
    assert _run(files, [*identify, "--out", "{out}"]) in (0, 1, 2)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_system_files(data):
    files = {"system": json.dumps(_document(data, SYSTEM_DOC))}
    assert _run(files, ["simulate", "--system", "{system}", "--steps", "3", "--out", "{out}"]) in (0, 1, 2)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sweep_config_files(data):
    files = {"sweep": json.dumps(_document(data, SWEEP_DOC))}
    assert _run(files, ["sweep", "--config", "{sweep}", "--csv", "{out}"]) in (0, 1, 2)


@given(st.data(), ALGORITHMS)
@settings(max_examples=150, deadline=None)
def test_trajectory_csvs(data, algorithm):
    lines = TRAJECTORY_TEXT.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(["delete", "duplicate", "replace", "cut", "insert"]))
        if action == "delete" and len(lines) > 1:
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "replace":
            lines[i] = ",".join(data.draw(st.lists(st.text(max_size=5), max_size=6)))
        elif action == "cut":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
        else:
            at = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + data.draw(st.text(max_size=4)) + lines[i][at:]
    files = {"traj": "\n".join(lines) + "\n", "topology": json.dumps(TOPOLOGY_DOC)}
    argv = ["identify", "--trajectory", "{traj}", "--topology", "{topology}", "--algorithm", algorithm]
    assert _run(files, [*argv, "--out", "{out}"]) in (0, 1, 2)


STRUCTURAL = st.sampled_from(["duplicate_edge", "state_id_as_input", "self_edge", "edge_into_input"])


def _break_structure(data, doc, blocks=None):
    """Apply one structural mutation to topology document ``doc``, and give every new edge a block in ``blocks``."""
    states = [v["id"] for v in doc["state_vertices"]]
    inputs = [e["id"] for e in doc["input_vertices"]]
    kind = data.draw(STRUCTURAL)
    if kind == "duplicate_edge":
        edge = data.draw(st.sampled_from(doc["edges"]))
        doc["edges"].insert(data.draw(st.integers(0, len(doc["edges"]))), list(edge))
        return
    if kind == "state_id_as_input":
        old = data.draw(st.sampled_from([e for e in inputs if e not in states]))
        new = data.draw(st.sampled_from(states))
        doc["input_vertices"][inputs.index(old)]["id"] = new
        doc["edges"] = [[new if end == old else end for end in edge] for edge in doc["edges"]]
        if blocks is not None:
            for key in list(blocks):
                ends = [new if end == old else end for end in key.split(BLOCK_KEY_SEP)]
                blocks[BLOCK_KEY_SEP.join(ends)] = blocks.pop(key)
        return
    src = data.draw(st.sampled_from(states))
    dst = src if kind == "self_edge" else data.draw(st.sampled_from(inputs))
    doc["edges"].append([src, dst])
    if blocks is not None:
        blocks[f"{src}{BLOCK_KEY_SEP}{dst}"] = [[0.5]]


def _run_rejected(files, argv):
    """``_run``'s exit code, and whether stderr names an invalid topology."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = _run(files, argv)
    return code, "invalid topology" in err.getvalue()


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_structurally_invalid_topology_files(data):
    doc = copy.deepcopy(TOPOLOGY_DOC)
    for _ in range(data.draw(st.integers(1, 2))):
        _break_structure(data, doc)
    files = {"topology": json.dumps(doc), "traj": TRAJECTORY_TEXT}
    assert _run(files, ["validate", "--topology", "{topology}"]) == 1
    identify = ["identify", "--trajectory", "{traj}", "--topology", "{topology}", "--algorithm", "network-dmdc"]
    assert _run_rejected(files, [*identify, "--out", "{out}"]) == (1, True)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_structurally_invalid_system_files(data):
    doc = copy.deepcopy(SYSTEM_DOC)
    for _ in range(data.draw(st.integers(1, 2))):
        _break_structure(data, doc["topology"], doc["edge_blocks"])
    files = {"system": json.dumps(doc)}
    assert _run_rejected(files, ["simulate", "--system", "{system}", "--steps", "3", "--out", "{out}"]) == (1, True)
