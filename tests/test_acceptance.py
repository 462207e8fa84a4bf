"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""
import time

import numpy as np

from helpers import build_local_data, pinv_conditioning, random_small_system

from netdmd.bench import (
    CSV_COLUMNS,
    SweepConfig,
    export_result,
    generate_system,
    run_sweep,
    run_trial,
)
from netdmd.numkernel import FixedRank, MachineDefault, _kept, _rule_cut, _svd
from netdmd.dmdcore import dmd_modes, dmdc_exact, dmdc_reduced, predict
from netdmd.netdmdc import model_error, network_dmdc_exact
from netdmd.sysmodel import (
    Circular,
    ErdosRenyi,
    GeneratorConfig,
    derive_rng,
    gen_circular,
    simulate,
    true_full_matrices,
)
from netdmd.topology import max_local_dim


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def test_criterion_1_worked_example_exact_recovery(two_node_topology, two_node_trajectory):
    start = time.perf_counter()
    model = network_dmdc_exact(two_node_topology, two_node_trajectory)
    elapsed = time.perf_counter() - start
    node1 = np.array([model.blocks_a[("v1", "v1")][0, 0], model.blocks_a[("v1", "v2")][0, 0],
                      model.blocks_b[("v1", "e1")][0, 0]])
    node2 = np.array([model.blocks_a[("v2", "v2")][0, 0], model.blocks_b[("v2", "e2")][0, 0]])
    err1 = np.max(np.abs(node1 - [1.2, -0.5, 1.0]))
    err2 = np.max(np.abs(node2 - [0.8, 1.0]))
    _report(
        "criterion 1 (worked-example recovery)",
        err1 < 1e-9 and err2 < 1e-9 and elapsed < 1.0,
        f"node1 err={err1:.2e}, node2 err={err2:.2e}, runtime={elapsed:.3f}s",
    )


def test_criterion_2_standard_dmdc_contrast(two_node_system, two_node_trajectory):
    truth_a, truth_b = true_full_matrices(two_node_system)
    stacked = dmdc_exact(two_node_trajectory.z, two_node_trajectory.y, two_node_trajectory.gamma)
    err_m3 = model_error(stacked, truth_a, truth_b)
    rng = derive_rng(314)
    traj5 = simulate(
        two_node_system,
        rng.uniform(-1, 1, 2),
        rng.uniform(-1, 1, (2, 5)),
    )
    fresh = dmdc_exact(traj5.z, traj5.y, traj5.gamma)
    err_m5 = model_error(fresh, truth_a, truth_b)
    _report(
        "criterion 2 (standard DMDc contrast)",
        err_m3 > 1e-3 and err_m5 < 1e-6,
        f"underdetermined m=3 err={err_m3:.2e} (> 1e-3), full-rank m=5 err={err_m5:.2e} (< 1e-6)",
    )


def test_criterion_3_circular_sweep():
    cfg = SweepConfig(
        generator=GeneratorConfig(Circular(50, 2), coeff_range=(-1, 1), input_range=(-10, 10)),
        trials=20,
        m_values=(3, 5, 10, 25, 50, 75),
        algorithms=("dmdc", "network_dmdc"),
        master_seed=2024,
    )
    start = time.perf_counter()
    result = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    net_at_3 = result.means[(3, "network_dmdc")]
    rows75 = [r for r in result.rows if r.m == 75 and r.algorithm == "dmdc" and r.cond_ratio > 1e-10]
    dmdc_at_75 = float(np.mean([r.frobenius_error for r in rows75])) if rows75 else float("inf")
    ordering = all(
        result.means[(m, "network_dmdc")] < result.means[(m, "dmdc")] for m in (3, 5, 10, 25, 50)
    )
    _report(
        "criterion 3 (circular sweep)",
        net_at_3 < 1e-6 and dmdc_at_75 < 1e-3 and len(rows75) > 0 and ordering and elapsed < 60.0,
        f"net@m=3 mean={net_at_3:.2e}, dmdc@m=75 mean={dmdc_at_75:.2e} "
        f"({len(rows75)}/20 well-conditioned), ordering at m<75: {ordering}, runtime={elapsed:.1f}s",
    )


def test_criterion_4_erdos_renyi_sweep():
    gen = GeneratorConfig(ErdosRenyi(50, 0.05), coeff_range=(-1, 1))
    grid = (4, 8, 16, 32, 50)
    cfg = SweepConfig(
        generator=gen,
        trials=20,
        m_values=grid,
        algorithms=("dmd", "network_dmdc"),
        master_seed=77,
    )
    result = run_sweep(cfg)
    ordering = all(result.means[(m, "network_dmdc")] < result.means[(m, "dmd")] for m in grid)
    worst = 0.0
    for trial in range(20):
        system = generate_system(gen, derive_rng(77, trial, 0))
        mld = max_local_dim(system.topology)
        rows = run_trial(
            system, mld, ("network_dmdc",), derive_rng(77, trial, 1000 + mld), trial=trial
        )
        worst = max(worst, rows[0].frobenius_error)
    _report(
        "criterion 4 (erdos-renyi sweep)",
        worst < 1e-6 and ordering,
        f"worst per-trial error at m=max_local_dim: {worst:.2e}, dmd above net at all tested m: {ordering}",
    )


def test_criterion_5_property_suite(tmp_path):
    rng = np.random.default_rng(1001)
    # Penrose identities at 1e-8 relative residual
    penrose_ok = True
    for _ in range(100):
        rows, cols = rng.integers(1, 9, size=2)
        a = rng.uniform(-3, 3, size=(rows, cols))
        p = pinv_conditioning(a)[0]
        penrose_ok &= np.linalg.norm(a @ p @ a - a) <= 1e-8 * np.linalg.norm(a)
        penrose_ok &= np.linalg.norm(p @ a @ p - p) <= 1e-8 * np.linalg.norm(p)
        ap, pa = a @ p, p @ a
        penrose_ok &= np.linalg.norm(ap - ap.T) <= 1e-8 * max(1.0, np.linalg.norm(ap))
        penrose_ok &= np.linalg.norm(pa - pa.T) <= 1e-8 * max(1.0, np.linalg.norm(pa))

    # SVD orthonormality and reconstruction with the 1e-10 floor: the library SVD the reduced solvers use,
    # cut as they cut it
    svd_ok = True
    for _ in range(50):
        rows, cols = rng.integers(1, 9, size=2)
        a = rng.uniform(-3, 3, size=(rows, cols))
        u, s, vt = _svd(a)
        k = int(np.count_nonzero(_kept(s, *_rule_cut(MachineDefault(), a.shape))))
        u, v = u[:, :k], vt[:k].T
        svd_ok &= np.max(np.abs(u.T @ u - np.eye(k))) <= 1e-10
        svd_ok &= np.max(np.abs(v.T @ v - np.eye(k))) <= 1e-10
        err = np.linalg.norm(u @ np.diag(s[:k]) @ v.T - a)
        discarded = float(np.sum(s[k:] ** 2)) / float(np.sum(s**2))
        svd_ok &= err <= (np.sqrt(discarded) + 1e-10) * np.linalg.norm(a)

    # structural zeros are exact on an identified sparse network
    from netdmd.sysmodel import gen_erdos_renyi

    system = gen_erdos_renyi(GeneratorConfig(ErdosRenyi(10, 0.25), seed=5))
    t = system.topology
    traj = simulate(system, derive_rng(5, 1).uniform(-1, 1, 10), np.zeros((0, 12)))
    net = network_dmdc_exact(t, traj)
    srows = t.state_row_ranges()
    edge_set = set(t.edges)
    zeros_ok = all(
        np.all(net.assembled_a[srows[vj][0] : srows[vj][1], srows[vi][0] : srows[vi][1]] == 0.0)
        for vi in t.state_vertices
        for vj in t.state_vertices
        if vi != vj and (vi, vj) not in edge_set
    )

    # full-rank reduced/exact equivalence over a 10-step rollout at 1e-6
    a0 = rng.uniform(-0.5, 0.5, (4, 4))
    b0 = rng.uniform(-1, 1, (4, 2))
    z = rng.uniform(-1, 1, (4, 20))
    gamma = rng.uniform(-1, 1, (2, 20))
    y = a0 @ z + b0 @ gamma
    exact = dmdc_exact(z, y, gamma)
    reduced, _ = dmdc_reduced(z, y, gamma, FixedRank(6), FixedRank(4))
    x0 = rng.uniform(-1, 1, 4)
    u = rng.uniform(-1, 1, (2, 10))
    rollout_ok = (
        np.linalg.norm(predict(exact, x0, u, 10) - predict(reduced, x0, u, 10)) <= 1e-6
    )

    # mode residual ||A Phi - Phi Lambda||_F <= 1e-6 ||A||_F ||Phi||_F
    modes_ok = True
    for _ in range(20):
        zr = rng.uniform(-1, 1, (5, 12))
        yr = rng.uniform(-1, 1, (5, 12))
        model = dmdc_exact(zr, yr)
        modes = dmd_modes(model)
        lhs = model.a @ modes.modes - modes.modes @ np.diag(modes.eigenvalues)
        bound = 1e-6 * np.linalg.norm(model.a) * max(np.linalg.norm(modes.modes), 1e-30)
        modes_ok &= np.linalg.norm(lhs) <= bound

    # generator determinism, bit for bit
    cfg = GeneratorConfig(Circular(12, 2), coeff_range=(-1, 1), seed=31)
    s1, s2 = gen_circular(cfg), gen_circular(cfg)
    gen_ok = s1.topology == s2.topology and all(
        s1.self_blocks[v].tobytes() == s2.self_blocks[v].tobytes() for v in s1.topology.state_vertices
    ) and all(s1.edge_blocks[e].tobytes() == s2.edge_blocks[e].tobytes() for e in s1.topology.edges)

    # sweep CSV determinism, bit for bit excluding the timing column
    sweep_cfg = SweepConfig(
        generator=GeneratorConfig(Circular(6, 2), seed=2),
        trials=2,
        m_values=(3, 6),
        master_seed=21,
    )
    texts = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        export_result(run_sweep(sweep_cfg), "csv", path)
        idx = CSV_COLUMNS.index("wall_time_s")
        texts.append(
            "\n".join(
                ",".join(c for i, c in enumerate(line.split(",")) if i != idx)
                for line in path.read_text().splitlines()
            )
        )
    csv_ok = texts[0] == texts[1]

    ok = penrose_ok and svd_ok and zeros_ok and rollout_ok and modes_ok and gen_ok and csv_ok
    _report(
        "criterion 5 (property suite)",
        ok,
        f"penrose={penrose_ok}, svd={svd_ok}, structural_zeros={zeros_ok}, "
        f"reduced_equiv={rollout_ok}, mode_residual={modes_ok}, gen_det={gen_ok}, csv_det={csv_ok}",
    )


def test_criterion_6_brute_force_oracle_equivalence():
    mismatches = 0
    nodes_checked = 0
    for seed in range(50):
        rng = derive_rng(4242, seed)
        system = random_small_system(rng, max_states=4, max_inputs=2)
        t = system.topology
        m = max_local_dim(t) + 2
        traj = simulate(
            system,
            rng.uniform(-1, 1, t.total_state_dim),
            rng.uniform(-1, 1, (t.total_input_dim, m)),
        )
        model = network_dmdc_exact(t, traj)
        for v in t.state_vertices:
            ld = build_local_data(t, traj, v)
            omega = np.vstack([ld.z_j, ld.gamma_j])
            if np.linalg.matrix_rank(omega) < omega.shape[0]:
                continue
            nodes_checked += 1
            oracle = ld.y_j @ omega.T @ np.linalg.inv(omega @ omega.T)
            got = [model.blocks_a[(v, v)]]
            sub_state = [w for w in t.state_vertices if (w, v) in set(t.edges)]
            sub_input = [e for e in t.input_vertices if (e, v) in set(t.edges)]
            got += [model.blocks_a[(v, w)] for w in sub_state]
            got += [model.blocks_b[(v, e)] for e in sub_input]
            strip = np.hstack(got)
            if np.linalg.norm(strip - oracle) > 1e-8 * max(1.0, np.linalg.norm(oracle)):
                mismatches += 1
    _report(
        "criterion 6 (normal-equations oracle)",
        mismatches == 0 and nodes_checked > 50,
        f"{nodes_checked} full-row-rank node regressions compared, {mismatches} mismatches",
    )
