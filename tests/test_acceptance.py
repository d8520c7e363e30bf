"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints a single "AC<n> PASS/FAIL: ..." line with the measured
numbers before asserting, so a transcript of this module reads as the
acceptance report. Oracles are kept independent of the code paths under
test where the criterion calls for it: the dimension check diagonalizes
a dense Hamiltonian assembled column by column, and the reproducibility
check runs the installed CLI in fresh subprocesses.
"""

import math
import subprocess
import sys
import time

import numpy as np
import scipy.linalg

from tvq.circuits import (
    THETA,
    compile_fmove,
    compile_pachner13,
    ry_matrix,
    simulate_circuit,
)
from tvq.errors import stretch_report
from tvq.fusion import (
    fibonacci_data,
    verify_f_unitarity,
    verify_pentagon_coherence,
)
from tvq.gadgets import (
    baseline_schedule,
    braid_arena,
    braid_schedule,
    logical_action,
    split_row,
)
from tvq.lattice import (
    MoveError,
    build_honeycomb_torus,
    build_planar_patch,
    build_tetra_sphere,
    build_theta_sphere,
    pachner_13,
    pachner_22,
    pachner_31,
    polar_vertex_id,
)
from tvq.statevec import (
    apply_bp,
    apply_fmove,
    apply_pachner13,
    apply_pachner31,
    apply_qv,
    bit_positions,
    code_space,
    code_space_dim,
    diff_norm,
    ground_project,
    inner,
    make_delta_state,
    make_state,
    random_valid_state,
)

DATA = fibonacci_data()
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def verdict(n, ok, detail):
    line = f"AC{n} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def random_code_state(lat, rng):
    st = ground_project(random_valid_state(lat, rng, data=DATA), lat, DATA)
    return make_state(lat, st.configs, st.amps / st.norm())


def to_dense(state, lat):
    n = len(lat.qubit_slots())
    v = np.zeros(1 << n, dtype=complex)
    v[state.configs.astype(np.int64)] = state.amps
    return v


def embed_dense(psi, small_slots, big_slots):
    """Insert a register into a larger one, new qubits in |0>."""
    pos = {s: i for i, s in enumerate(sorted(big_slots))}
    idxs = [pos[s] for s in sorted(small_slots)]
    src = np.arange(len(psi), dtype=np.int64)
    dst = np.zeros_like(src)
    for b, p in enumerate(idxs):
        dst |= ((src >> b) & 1) << p
    out = np.zeros(1 << len(big_slots), dtype=complex)
    out[dst] = psi
    return out


def fidelity(a, b):
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


# ---- 1: fusion data ------------------------------------------------------------


def test_ac1_fusion_data():
    t0 = time.perf_counter()
    orth = verify_f_unitarity(DATA, tol=1e-12)
    pent = verify_pentagon_coherence(DATA, tol=1e-12)
    golden = np.array([[1 / PHI, PHI ** -0.5], [PHI ** -0.5, -1 / PHI]])
    res_block = float(np.max(np.abs(DATA.fsym[1, 1, 1, 1] - golden)))
    dt = time.perf_counter() - t0
    ok = orth and pent and res_block <= 1e-12 and dt < 1.0
    verdict(
        1,
        ok,
        f"F orthogonality {orth}, pentagon {pent}, "
        f"block residual {res_block:.2e} <= 1e-12, runtime {dt:.2f}s < 1s",
    )


# ---- 2: projector algebra ------------------------------------------------------


def test_ac2_projector_algebra():
    t0 = time.perf_counter()
    lat = build_honeycomb_torus(2, 2)
    rng = np.random.default_rng(20)
    plaqs = sorted(lat.plaquette_vertices())
    tris = sorted(lat.triangles)

    res = 0.0
    for _ in range(20):
        st = random_valid_state(lat, rng, data=DATA)
        bp = {p: apply_bp(st, lat, p, DATA) for p in plaqs}
        qv = {t: apply_qv(st, lat, t, DATA) for t in tris}
        for p in plaqs:
            res = max(res, diff_norm(lat, apply_bp(bp[p], lat, p, DATA), bp[p]))
        for t in tris:
            res = max(res, diff_norm(lat, apply_qv(qv[t], lat, t, DATA), qv[t]))
        for i, p in enumerate(plaqs):
            for q in plaqs[i + 1 :]:
                res = max(
                    res, diff_norm(lat, apply_bp(bp[q], lat, p, DATA), apply_bp(bp[p], lat, q, DATA))
                )
        for i, s in enumerate(tris):
            for t in tris[i + 1 :]:
                res = max(
                    res, diff_norm(lat, apply_qv(qv[t], lat, s, DATA), apply_qv(qv[s], lat, t, DATA))
                )
        for p in plaqs:
            for t in tris:
                res = max(
                    res, diff_norm(lat, apply_bp(qv[t], lat, p, DATA), apply_qv(bp[p], lat, t, DATA))
                )
    dt = time.perf_counter() - t0
    ok = res <= 1e-10 and dt < 30.0
    verdict(
        2,
        ok,
        f"torus(2,2), 20 states: idempotence and all commutators, "
        f"max residual {res:.2e} <= 1e-10, runtime {dt:.1f}s < 30s",
    )


# ---- 3: code-space dimensions against dense diagonalization --------------------


def dense_hamiltonian(lat):
    """Sum of projector complements, assembled over the full 2^n space.

    The vertex term is recomputed here straight from the branching
    table (independent of the sparse operator path); the plaquette term
    is assembled column by column on delta states.
    """
    pos = bit_positions(lat)
    n = len(lat.qubit_slots())
    N = 1 << n
    cfgs = np.arange(N, dtype=np.int64)

    diag = np.zeros(N)
    for tri in lat.triangles.values():
        idx = np.zeros(N, dtype=np.int64)
        for e in tri:
            b = pos.get(e)
            lab = (cfgs >> b) & 1 if b is not None else 0
            idx = (idx << 1) | lab
        diag += 1.0 - DATA.branching.reshape(-1)[idx]

    h = np.diag(diag)
    for p in sorted(lat.plaquette_vertices()):
        for c in range(N):
            out = apply_bp(make_delta_state(lat, c), lat, p, DATA)
            h[out.configs.astype(np.int64), c] -= out.amps.real
            h[c, c] += 1.0
    return h


def kernel_dim_dense(lat):
    h = dense_hamiltonian(lat)
    asym = float(np.max(np.abs(h - h.T)))
    assert asym < 1e-12, f"Hamiltonian not symmetric: {asym:.2e}"
    k = min(len(h), 10)
    w = scipy.linalg.eigh(h, subset_by_index=[0, k - 1], eigvals_only=True)
    assert w[-1] > 0.5, "spectral gap window too small to count the kernel"
    return int(np.sum(w < 0.5))


def test_ac3_code_space_dimensions():
    t0 = time.perf_counter()
    theta = build_theta_sphere()
    torus = build_honeycomb_torus(2, 2)
    got = {
        "theta": (code_space_dim(theta, DATA), kernel_dim_dense(theta)),
        "torus": (code_space_dim(torus, DATA), kernel_dim_dense(torus)),
    }
    dt = time.perf_counter() - t0
    ok = got["theta"] == (1, 1) and got["torus"] == (4, 4) and dt < 300.0
    verdict(
        3,
        ok,
        f"theta (seeded, dense) = {got['theta']} expect (1, 1); "
        f"torus(2,2) = {got['torus']} expect (4, 4); runtime {dt:.0f}s < 300s",
    )


# ---- 4: Pachner invariance -----------------------------------------------------


def random_pachner_walk(lat, rng, n_moves=3):
    cur = lat
    added = []
    moves = 0
    for _ in range(n_moves):
        kind = int(rng.integers(3))
        if kind == 0:
            eids = sorted(cur.edges)
            for _ in range(8):
                e = eids[int(rng.integers(len(eids)))]
                try:
                    cur, _ = pachner_22(cur, e)
                    moves += 1
                    break
                except MoveError:
                    continue
        elif kind == 1 and len(cur.edges) + 3 <= 30:
            tids = sorted(cur.triangles)
            t = tids[int(rng.integers(len(tids)))]
            cur, rec = pachner_13(cur, t)
            added.append(rec.vertex)
            moves += 1
        elif added:
            cur, _ = pachner_31(cur, added.pop())
            moves += 1
    return cur, moves


def test_ac4_pachner_invariance():
    rng = np.random.default_rng(40)
    lattices = {"tetra": build_tetra_sphere(), "torus": build_honeycomb_torus(2, 2)}
    dims_ok = True
    total_moves = 0
    for name, lat in lattices.items():
        want = code_space_dim(lat, DATA)
        for _ in range(10):
            walked, moves = random_pachner_walk(lat, rng)
            total_moves += moves
            if code_space_dim(walked, DATA, max_seeds=12) != want:
                dims_ok = False

    res = 0.0
    for lat in lattices.values():
        tri = sorted(lat.triangles)[0]
        for _ in range(3):
            st = random_code_state(lat, rng)
            mid, mid_lat = apply_pachner13(st, lat, tri, DATA)
            _, rec = pachner_13(lat, tri)
            back, _ = apply_pachner31(mid, mid_lat, rec.vertex, DATA)
            back = make_state(lat, back.configs, back.amps)
            res = max(res, diff_norm(lat, back, st))

    ok = dims_ok and res <= 1e-10
    verdict(
        4,
        ok,
        f"dim unchanged over 10 random walks per lattice ({total_moves} moves): {dims_ok}; "
        f"1-3 then 3-1 round-trip residual {res:.2e} <= 1e-10",
    )


# ---- 5: circuit equivalence ----------------------------------------------------


def test_ac5_circuit_equivalence():
    lat = build_honeycomb_torus(2, 2)
    rng = np.random.default_rng(50)
    slots = sorted(lat.qubit_slots())

    worst_f = 1.0
    for i in range(50):
        edge = sorted(lat.edges)[int(rng.integers(len(lat.edges)))]
        try:
            circ = compile_fmove(lat, edge, DATA)
        except MoveError:
            continue
        st = random_code_state(lat, rng)
        sem, sem_lat = apply_fmove(st, lat, edge, DATA)
        got = simulate_circuit(circ, to_dense(st, lat))
        worst_f = min(worst_f, fidelity(got, to_dense(sem, sem_lat)))

    worst_13 = 1.0
    tris = sorted(lat.triangles)
    for i in range(50):
        tri = tris[int(rng.integers(len(tris)))]
        circ = compile_pachner13(lat, tri, DATA)
        st = random_code_state(lat, rng)
        sem, sem_lat = apply_pachner13(st, lat, tri, DATA)
        got = simulate_circuit(circ, embed_dense(to_dense(st, lat), slots, circ.qubits))
        worst_13 = min(worst_13, fidelity(got, to_dense(sem, sem_lat)))

    sandwich = ry_matrix(-THETA) @ np.array([[0.0, 1.0], [1.0, 0.0]]) @ ry_matrix(THETA)
    golden = np.array([[1 / PHI, PHI ** -0.5], [PHI ** -0.5, -1 / PHI]])
    res_block = float(np.max(np.abs(sandwich - golden)))

    ok = worst_f >= 1 - 1e-10 and worst_13 >= 1 - 1e-10 and res_block <= 1e-12
    verdict(
        5,
        ok,
        f"50 code states each: F-move fidelity >= {worst_f:.12f}, "
        f"1-3 fidelity >= {worst_13:.12f} (need >= 1-1e-10); "
        f"RY(-t)XRY(t) sandwich residual {res_block:.2e} <= 1e-12",
    )


# ---- 6: constant depth ---------------------------------------------------------


def test_ac6_constant_depth():
    t0 = time.perf_counter()
    split_depths = {
        length: split_row(build_planar_patch(2, length), 1).depth_report().local_depth
        for length in (2, 4, 8)
    }

    stats = {}
    for d in (4, 8):
        lat, cols, anyon = braid_arena(d)
        sched = braid_schedule(lat, anyon, 0, steps=6, data=DATA)
        rep = sched.depth_report()
        from tvq.circuits import compile_schedule

        gate_depth = compile_schedule(lat, sched, DATA).depth()
        path = [polar_vertex_id(cols, 2, -(i + 1) % cols) for i in range(cols)]
        base_steps = baseline_schedule(lat, anyon, path, data=DATA).depth_report().total_steps
        stats[d] = (rep.local_depth, gate_depth, base_steps, rep.permutation_range)
    dt = time.perf_counter() - t0

    ld4, gd4, bs4, pr4 = stats[4]
    ld8, gd8, bs8, pr8 = stats[8]
    base_ratio = bs8 / bs4
    range_ratio = pr8 / pr4
    ok = (
        len(set(split_depths.values())) == 1
        and ld4 == ld8
        and gd4 == gd8
        and abs(base_ratio - 2.0) <= 1.0 / bs4
        and abs(range_ratio - 2.0) <= 1.0 / pr4
        and dt < 600.0
    )
    verdict(
        6,
        ok,
        f"split_row depth {split_depths} equal; braid local depth {ld4}=={ld8}, "
        f"gate depth {gd4}=={gd8}; baseline steps {bs4}->{bs8} ratio {base_ratio:.2f}=2.0"
        f"±{1.0 / bs4:.3f}; permutation range {pr4}->{pr8} ratio {range_ratio:.2f}=2.0"
        f"±{1.0 / pr4:.2f}; runtime {dt:.0f}s < 600s",
    )


# ---- 7: braid correctness ------------------------------------------------------


def test_ac7_braid_equals_baseline():
    lat = build_planar_patch(4, 4, punctures=[(0, 0), (2, 0)])
    anyon = polar_vertex_id(4, 2, 0)
    basis = code_space(lat, DATA, max_edges=40, max_seeds=8)
    braid = braid_schedule(lat, anyon, 0, steps=4, data=DATA)
    path = [polar_vertex_id(4, 2, -(i + 1) % 4) for i in range(4)]
    base = baseline_schedule(lat, anyon, path, data=DATA)
    u_braid = logical_action(braid, lat, data=DATA, basis=basis)
    u_base = logical_action(base, lat, data=DATA, basis=basis)

    i, j = np.unravel_index(np.argmax(np.abs(u_base)), u_base.shape)
    phase = u_braid[i, j] / u_base[i, j]
    res_phase = abs(abs(phase) - 1.0)
    res = float(np.max(np.abs(u_braid - phase * u_base)))
    res_unit = float(np.max(np.abs(u_braid.conj().T @ u_braid - np.eye(len(basis)))))
    ok = res <= 1e-8 and res_unit <= 1e-8 and res_phase <= 1e-8
    verdict(
        7,
        ok,
        f"encoded dim {len(basis)}; braid vs sequential baseline entrywise "
        f"residual {res:.2e} <= 1e-8 (global phase {phase:.6f}); "
        f"unitarity residual {res_unit:.2e} <= 1e-8",
    )


# ---- 8: error stretch ----------------------------------------------------------


def test_ac8_error_stretch():
    rep = stretch_report([4, 8], trials=100, seed=17)
    summ = {s["d"]: s for s in rep["summary"]}
    gap = summ[8]["max_ratio"] - summ[4]["max_ratio"]
    cones = (summ[4]["lightcone_radius"], summ[8]["lightcone_radius"])
    ok = gap <= 1.0 and cones[0] == cones[1]
    verdict(
        8,
        ok,
        f"100 trials per size: max stretch d=4 {summ[4]['max_ratio']:.2f}, "
        f"d=8 {summ[8]['max_ratio']:.2f}, excess {gap:.2f} <= 1 edge unit; "
        f"light-cone radius {cones[0]} == {cones[1]}",
    )


# ---- 9: reproducibility --------------------------------------------------------


def test_ac9_reproducible_reports():
    cmds = [
        [sys.executable, "-m", "tvq.cli", "verify", "all", "--seed", "5"],
        [sys.executable, "-m", "tvq.cli", "errors", "--distances", "4", "--trials", "3", "--seed", "9"],
        [sys.executable, "-m", "tvq.cli", "braid", "--distance", "4"],
    ]
    identical = True
    checked = 0
    for cmd in cmds:
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        checked += 1
        if first.stdout != second.stdout:
            identical = False
    verdict(
        9,
        identical,
        f"{checked} CLI commands rerun in fresh processes, reports byte-identical: {identical}",
    )
