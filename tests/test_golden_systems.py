"""Generated and loaded systems against digests recorded from the per-vertex, per-block generators.

Each case fixes a seed and records the sha256 of the topology's edges (one
``"src dst"`` line per edge, in order), of ``coeffs.tobytes()`` and of the
gather plan's index arrays, plus the caller's next ``rng.random()``, so a
set-up that draws, orders or places anything differently fails here.
"""
import hashlib

import numpy as np
import pytest

from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    _draw_blocks,
    derive_rng,
    gen_circular,
    gen_erdos_renyi,
    system_from_dict,
    system_to_dict,
)
from netdmd.topology import NetworkTopology, gather_plan


def _digests(system, rng) -> tuple:
    t = system.topology
    plan = hashlib.sha256()
    for group in gather_plan(t):
        for a in (group.rows, group.cols, group.vertex_index):
            plan.update(repr(a.shape).encode())
            plan.update(a.tobytes())
    return (
        len(t.edges),
        hashlib.sha256("\n".join(f"{src} {dst}" for src, dst in t.edges).encode()).hexdigest(),
        hashlib.sha256(system.coeffs.tobytes()).hexdigest(),
        plan.hexdigest(),
        rng.random().hex(),
    )


def _vector_topology() -> NetworkTopology:
    """30 states and 6 inputs of dimensions 1 to 3, 88 edges listed in a scrambled order."""
    rng = np.random.default_rng(11)
    states = tuple(f"v{i}" for i in range(1, 31))
    inputs = tuple(f"e{i}" for i in range(1, 7))
    dims = {w: 1 + i % 3 for i, w in enumerate(states + inputs)}
    edges = [(s, d) for s in states + inputs for d in states if s != d]
    keep = rng.random(len(edges)) < 0.08
    edges = [e for e, k in zip(edges, keep) if k]
    order = np.argsort(rng.random(len(edges)), kind="stable")
    return NetworkTopology(states, inputs, tuple(edges[i] for i in order), dims)


GOLDEN = {
    "ring50": (
        75,
        "e205a06190447c1f92b32d67ed03a0d946a6a9294a1471e12efa871d70f4720f",
        "317e649740f33332425fdce0a03319a1e60d578f6b6ae13c1a1f9e70677a0c30",
        "9c8d7110d7ce4ddbf21ef53be0aac57f93c8f23c1bbaaaa73179c64a8ad4052c",
        "0x1.03d866dac5ad2p-2",
    ),
    "ring800": (
        1200,
        "598ecacf7b1777e0407bb5b8c9ce4657d2b67dd60e499485d02e856d4ce532e5",
        "1017bc98c2dad2c14767409934eb77349170fc125760627ff89dc28fb21aef3b",
        "0ef91cfcaad1dc069b55f8d3310ab01147d6d19065bef952d5e76267a799c7b6",
        "0x1.4f676419f623ap-1",
    ),
    "ring10000": (
        15000,
        "f9276445d83d8c2135c45df026102befb326f68c8cfb59f5da80dd8a0963fb0c",
        "f389c6720910c21dff125249b660d0b38b69d36f09d0fe659e913345e66b4df4",
        "073632091124604325ddb1bc568b8c043b0263333deeaf2b62f41e18ad0d684a",
        "0x1.d586dd765da4dp-1",
    ),
    "er200": (
        507,
        "7005947896c075077ffad6dbd9b6f6f177f39bccdb065743ef0debdb872000ae",
        "612258c17cd434830f7ed21d2c07503465eaa3088cf9da7b62e73e6964227a00",
        "2ed0dd211db7beb51680bbe5457203b6218af6200bf68cb49c742d464ece88bd",
        "0x1.cc5e1eba8841ap-2",
    ),
    "er2000": (
        5045,
        "4ff34747d2987b0d76a195c17eef2efa12380383670182af2e2d058695429afe",
        "5ce1f0e21fb595010dacc1fd6578d8337c1f515073ba5ef97d4160c27ddd840e",
        "c3e34761c3fe4753fc542d216c17bb06e5ece667579cb0fbdbd740b1f33e374b",
        "0x1.56bcd15078ee4p-3",
    ),
    "vector": (
        88,
        "2afacae395ef3fcda46d89a4318001a7567ff299b9156a5c61e843dd1886ec62",
        "25c43876671ff92beef796de7ff010bf24ca72832a77c779f57a767e08e97702",
        "f7bcc03aef903c0219ea2b8647cb181de6e854fc4b18bde39ca145642fc3d909",
        "0x1.75afb36309fbap-1",
    ),
}


def _generated(case):
    family, n, seed = case
    rng = derive_rng(seed)
    if family == "ring":
        return gen_circular(GeneratorConfig(Circular(n, 2)), rng), rng
    if family == "er":
        return gen_erdos_renyi(GeneratorConfig(ErdosRenyi(n, 2.5 / n)), rng), rng
    return _draw_blocks(_vector_topology(), rng, (-0.5, 0.5)), rng


CASES = {
    "ring50": ("ring", 50, 3),
    "ring800": ("ring", 800, 4),
    "ring10000": ("ring", 10_000, 5),
    "er200": ("er", 200, 6),
    "er2000": ("er", 2000, 7),
    "vector": ("vector", 36, 8),
}


@pytest.mark.parametrize("name", CASES)
def test_generated_system_matches_its_digests(name):
    assert _digests(*_generated(CASES[name])) == GOLDEN[name]


@pytest.mark.parametrize("name", ["ring800", "er200", "vector"])
def test_loaded_system_matches_its_digests(name):
    system, rng = _generated(CASES[name])
    assert _digests(system_from_dict(system_to_dict(system)), rng) == GOLDEN[name]
