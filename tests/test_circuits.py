"""Gate-level compilation against the sparse semantic simulator.

The two implementations share no code path for the actual linear maps:
the semantic side contracts F-symbol tensors over sparse configs, the
compiled side applies rotation-sandwiched and classically controlled X
gates one at a time (simulate_sparse, and simulate_circuit on dense
vectors through it). Agreement on the valid subspace is the main
correctness evidence for both.
"""

import dataclasses
import functools
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvq.fusion import f_unitarity_residual, fibonacci_data, trivial_data, verify_pentagon_coherence
from tvq.lattice import (
    F_MOVE,
    MoveError,
    MoveRecord,
    build_honeycomb_torus,
    build_planar_patch,
    build_tetra_sphere,
    pachner_13,
    pachner_22,
    pachner_31,
    polar_vertex_id,
)
from tvq.statevec import (
    apply_fmove,
    apply_pachner13,
    apply_pachner31,
    diff_norm,
    enumerate_valid_configs,
    ground_project,
    make_delta_state,
    make_state,
    bit_positions,
    random_valid_state,
    rebind_state,
    valid_mask,
)
from tvq.gadgets import (
    LOCAL,
    MoveGroup,
    MoveSchedule,
    baseline_schedule,
    braid_arena,
    braid_schedule,
    merge_rows,
    run_schedule,
    shear_step,
    split_row,
)
from tvq.circuits import (
    SPREP_ANGLE,
    GATE_KINDS,
    THETA,
    Gate,
    GateCircuit,
    circuit_from_jsonable,
    circuit_to_jsonable,
    compile_fmove,
    compile_pachner13,
    compile_schedule,
    export_circuit,
    import_circuit,
    inverse_circuit,
    ry_matrix,
    simulate_circuit,
    simulate_sparse,
    sprep_matrix,
)

DATA = fibonacci_data()
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def to_dense(state, lat):
    out = np.zeros(1 << len(lat.qubit_slots()), dtype=np.complex128)
    out[state.configs.astype(np.int64)] = state.amps
    return out


def embed_dense(psi, small_slots, big_slots):
    """Lift a dense vector onto a larger register, new bits in 0."""
    pos_small = {q: i for i, q in enumerate(sorted(small_slots))}
    pos_big = {q: i for i, q in enumerate(sorted(big_slots))}
    idx = np.arange(psi.size)
    big_idx = np.zeros_like(idx)
    for q, ps in pos_small.items():
        big_idx |= ((idx >> ps) & 1) << pos_big[q]
    out = np.zeros(1 << len(big_slots), dtype=np.complex128)
    out[big_idx] = psi
    return out


def random_code_state(lat, rng, data=DATA):
    st = ground_project(random_valid_state(lat, rng, data=data), lat, data)
    return make_state(lat, st.configs, st.amps / st.norm())


# ---- primitive matrices --------------------------------------------------------


def test_golden_rotation_sandwich_matches_fblock():
    """RY(-t) X RY(t) with t = arctan(phi**-0.5) is the tau F-block."""
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sandwich = ry_matrix(-THETA) @ x @ ry_matrix(THETA)
    block = np.array(
        [
            [DATA.fsym[1, 1, 1, 1, 0, 0], DATA.fsym[1, 1, 1, 1, 0, 1]],
            [DATA.fsym[1, 1, 1, 1, 1, 0], DATA.fsym[1, 1, 1, 1, 1, 1]],
        ]
    )
    assert np.max(np.abs(sandwich - block)) < 1e-12
    expect = np.array([[1 / PHI, PHI ** -0.5], [PHI ** -0.5, -1 / PHI]])
    assert np.max(np.abs(block - expect)) < 1e-12


def test_sprep_prepares_vacuum_loop_weights():
    col = sprep_matrix()[:, 0]
    dsq = 2.0 + PHI
    assert abs(col[0] - 1.0 / math.sqrt(dsq)) < 1e-12
    assert abs(col[1] - PHI / math.sqrt(dsq)) < 1e-12
    u = sprep_matrix()
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12


def test_angle_constants_survive_export_rounding():
    # constants are pre-rounded so 15-significant-digit JSON is lossless
    for x in (THETA, -THETA, SPREP_ANGLE, -SPREP_ANGLE):
        assert float(format(x, ".15g")) == x
    # pre-rounding moves each angle by at most half an ulp at 15 digits
    assert abs(THETA - math.atan(PHI ** -0.5)) < 5e-15
    assert abs(SPREP_ANGLE - 2.0 * math.atan(PHI)) < 5e-15


# ---- compiled F-move -----------------------------------------------------------


def test_compiled_fmove_exhaustive_on_tetra():
    """Full-space check on all 6 edges x 64 basis states.

    Valid inputs must reproduce the semantic tensor contraction; invalid
    inputs must stay invalid (the circuit permutes that sector, it has
    no room to act as the identity there and remain unitary).
    """
    lat = build_tetra_sphere()
    n = len(lat.qubit_slots())
    for edge in sorted(lat.edges):
        circ = compile_fmove(lat, edge)
        new_lat, _ = pachner_22(lat, edge)
        cols = []
        for c in range(1 << n):
            e_c = np.zeros(1 << n, dtype=np.complex128)
            e_c[c] = 1.0
            cols.append(simulate_circuit(circ, e_c))
        mat = np.stack(cols, axis=1)
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(1 << n))) < 1e-10

        all_cfg = np.arange(1 << n, dtype=np.uint64)
        old_valid = valid_mask(lat, all_cfg, DATA)
        new_valid = valid_mask(new_lat, all_cfg, DATA)
        for c in range(1 << n):
            if old_valid[c]:
                st, _ = apply_fmove(make_delta_state(lat, c), lat, edge, DATA)
                assert np.max(np.abs(mat[:, c] - to_dense(st, new_lat))) < 1e-10
            else:
                support = np.nonzero(np.abs(mat[:, c]) > 1e-12)[0]
                assert not new_valid[support].any()


def test_compiled_fmove_matches_semantic_on_torus_states():
    lat = build_honeycomb_torus(2, 2)
    rng = np.random.default_rng(11)
    edge = sorted(lat.edges)[0]
    circ = compile_fmove(lat, edge)
    new_lat, _ = pachner_22(lat, edge)
    for _ in range(10):
        st = random_code_state(lat, rng)
        out, _ = apply_fmove(st, lat, edge, DATA)
        got = simulate_circuit(circ, to_dense(st, lat))
        assert np.linalg.norm(got - to_dense(out, new_lat)) < 1e-10


def test_compiled_fmove_folds_pinned_legs():
    """Boundary-adjacent flip: pinned legs drop controls at compile time."""
    lat = build_planar_patch(2, 4, punctures=[(0, 0)])
    edge = 12
    _, rec = pachner_22(lat, edge)
    assert any(lat.edges[x].pinned for x in rec.legs)
    circ = compile_fmove(lat, edge)
    # folded: fewer than the 7 full-quad layers
    assert circ.depth() < 7
    new_lat, _ = pachner_22(lat, edge)
    rng = np.random.default_rng(5)
    for _ in range(10):
        st = random_valid_state(lat, rng, data=DATA)
        out, _ = apply_fmove(st, lat, edge, DATA)
        got = simulate_circuit(circ, to_dense(st, lat))
        assert np.linalg.norm(got - to_dense(out, new_lat)) < 1e-10


def test_compiled_fmove_is_self_inverse():
    lat = build_tetra_sphere()
    circ = compile_fmove(lat, 0)
    rng = np.random.default_rng(3)
    psi = rng.normal(size=64) + 1j * rng.normal(size=64)
    psi /= np.linalg.norm(psi)
    assert np.linalg.norm(simulate_circuit(circ, simulate_circuit(circ, psi)) - psi) < 1e-10


def test_compile_fmove_rejects_pinned_target():
    lat = build_planar_patch(2, 4, punctures=[(0, 0)])
    pinned = next(e for e, r in sorted(lat.edges.items()) if r.pinned)
    with pytest.raises(MoveError, match="pinned"):
        compile_fmove(lat, pinned)


def test_compile_rejects_non_fibonacci_data():
    # the gate angles are the Fibonacci ones; another category must not
    # silently get the Fibonacci circuit
    lat = build_tetra_sphere()
    with pytest.raises(MoveError, match="Fibonacci"):
        compile_fmove(lat, 0, trivial_data())
    with pytest.raises(MoveError, match="Fibonacci"):
        compile_pachner13(lat, sorted(lat.triangles)[0], trivial_data())
    assert compile_fmove(lat, 0, fibonacci_data()) == compile_fmove(lat, 0)


def test_compile_rejects_fibonacci_fsym_with_other_quantum_dimensions():
    # SPREP's angle is the Fibonacci quantum dimension's, so matching
    # F-symbols alone do not make the circuit right
    lat = build_tetra_sphere()
    data = fibonacci_data()
    compile_pachner13(lat, sorted(lat.triangles)[0], data)
    scaled = dataclasses.replace(data, qdim=data.qdim * np.array([1.0, 0.5]))
    with pytest.raises(MoveError, match="Fibonacci"):
        compile_pachner13(lat, sorted(lat.triangles)[0], scaled)


# ---- compiled 1-3 and 3-1 ------------------------------------------------------


def test_compiled_pachner13_matches_semantic():
    lat = build_tetra_sphere()
    tri = sorted(lat.triangles)[0]
    circ = compile_pachner13(lat, tri)
    new_lat, rec = pachner_13(lat, tri)
    assert circ.allocated == rec.new_slots
    rng = np.random.default_rng(23)
    for _ in range(10):
        st = random_valid_state(lat, rng, data=DATA)
        out, _ = apply_pachner13(st, lat, tri, DATA)
        big = embed_dense(to_dense(st, lat), lat.qubit_slots(), circ.qubits)
        got = simulate_circuit(circ, big)
        assert np.linalg.norm(got - to_dense(out, new_lat)) < 1e-10


def test_compiled_pachner13_round_trips_through_inverse():
    lat = build_tetra_sphere()
    tri = sorted(lat.triangles)[0]
    circ = compile_pachner13(lat, tri)
    inv = inverse_circuit(circ)
    assert inv.released == circ.allocated
    rng = np.random.default_rng(29)
    st = random_valid_state(lat, rng, data=DATA)
    big = embed_dense(to_dense(st, lat), lat.qubit_slots(), circ.qubits)
    back = simulate_circuit(inv, simulate_circuit(circ, big))
    assert np.linalg.norm(back - big) < 1e-10


def test_compiled_pachner31_matches_semantic():
    """Vertex removal compiles to the reversed subdivision gadget."""
    lat = build_tetra_sphere()
    tri = sorted(lat.triangles)[0]
    lat2, rec13 = pachner_13(lat, tri)
    _, rec31 = pachner_31(lat2, rec13.vertex)
    sched = MoveSchedule((MoveGroup(LOCAL, ((rec31,),)),))
    circ = compile_schedule(lat2, sched)
    assert circ.released == rec31.released_slots
    rng = np.random.default_rng(31)
    for _ in range(5):
        st = random_valid_state(lat, rng, data=DATA)
        mid, _ = apply_pachner13(st, lat, tri, DATA)
        out, out_lat = apply_pachner31(mid, lat2, rec13.vertex, DATA)
        got = simulate_circuit(circ, to_dense(mid, lat2))
        want = embed_dense(to_dense(out, out_lat), out_lat.qubit_slots(), circ.qubits)
        assert np.linalg.norm(got - want) < 1e-10


# ---- schedule compilation ------------------------------------------------------


def test_compile_empty_schedule():
    lat = build_tetra_sphere()
    circ = compile_schedule(lat, MoveSchedule(()))
    assert circ.depth() == 0
    assert circ.gate_count() == 0
    assert circ.permutation_layers == ()


def test_compiled_shear_weaves_permutation_into_simulation():
    """One shear step: gate layers, then the relabeling, end to end."""
    lat = build_planar_patch(2, 4, punctures=[(0, 0)])
    sched = shear_step(lat, 0, stride=1, data=DATA)
    circ = compile_schedule(lat, sched, DATA)
    assert len(circ.permutation_layers) == 1
    assert circ.permutation_layers[0][0] == circ.depth()
    rng = np.random.default_rng(41)
    st = random_valid_state(lat, rng, data=DATA)
    out, out_lat = run_schedule(st, lat, sched, data=DATA)
    got = simulate_circuit(circ, to_dense(st, lat))
    assert np.linalg.norm(got - to_dense(out, out_lat)) < 1e-10


def test_compiled_split_then_merge_matches_semantic():
    """1-3 and 3-1 moves lowered inside one schedule, between flip layers."""
    lat = build_planar_patch(2, 2)
    split = split_row(lat, 1, data=DATA)
    mid = run_schedule(None, lat, split)[1]
    fresh = [rec.vertex for rec in split.groups[0].layers[0]]
    sched = split.then(merge_rows(mid, fresh, data=DATA))
    circ = compile_schedule(lat, sched, DATA)
    assert len(circ.qubits) == 14
    assert len(circ.allocated) == 6 and set(circ.released) == set(circ.allocated)
    rng = np.random.default_rng(43)
    st = random_valid_state(lat, rng, data=DATA)
    out, out_lat = run_schedule(st, lat, sched, data=DATA)
    assert out_lat.signature() == lat.signature()
    got = simulate_circuit(circ, embed_dense(to_dense(st, lat), lat.qubit_slots(), circ.qubits))
    want = embed_dense(to_dense(out, out_lat), out_lat.qubit_slots(), circ.qubits)
    assert np.linalg.norm(got - want) < 1e-10


def test_compile_repeated_groups():
    # the braid repeats one flip group object; lowering it once per call
    # gives the gates of lowering equal copies one by one
    lat, _, anyon = braid_arena(4)
    sched = braid_schedule(lat, anyon, 0, steps=6)
    copies = MoveSchedule(tuple(dataclasses.replace(g) for g in sched.groups))
    assert sched.groups[0] is sched.groups[2] and copies.groups[0] is not copies.groups[2]
    assert compile_schedule(lat, sched, DATA) == compile_schedule(lat, copies, DATA)
    # a repeated group that allocates slots is checked on every occurrence
    small = build_planar_patch(2, 4)
    split = split_row(small, 1, data=DATA)
    with pytest.raises(MoveError, match="allocated twice"):
        compile_schedule(small, MoveSchedule(split.groups * 2), DATA)


def test_repeated_groups_share_layer_objects_and_check_reads_each_once():
    lat, _, anyon = braid_arena(4)
    circ = compile_schedule(lat, braid_schedule(lat, anyon, 0, steps=6), DATA)
    per_step = circ.depth() // 6
    assert all(circ.layers[i] is circ.layers[i % per_step] for i in range(circ.depth()))
    assert len({id(layer) for layer in circ.layers}) == per_step
    # a malformed layer object is refused whether or not it recurs
    bad = (Gate("X", (0,)), Gate("RY", (0,), params=(1.0,)))
    for layers in ((bad, bad), ((Gate("X", (1,)),), bad, bad)):
        with pytest.raises(MoveError, match="overlapping"):
            GateCircuit(qubits=(0, 1), layers=layers).check()


def test_check_reads_a_recurring_relabeling_once_but_places_each():
    swap = ((0, 1), (1, 0))
    GateCircuit(qubits=(0, 1), layers=((),), permutation_layers=((0, swap), (1, swap))).check()
    with pytest.raises(MoveError, match="placed outside"):
        GateCircuit(qubits=(0, 1), layers=((),), permutation_layers=((0, swap), (2, swap))).check()
    bad = ((0, 1), (1, 1))
    with pytest.raises(MoveError, match="bijection"):
        GateCircuit(qubits=(0, 1), permutation_layers=((0, bad), (0, bad))).check()


def stamped_circuits():
    """Compiled circuits of every move kind: the d = 4 and 8 braids, the
    d = 8 baseline, a split and a merge of row 1 of the 4x4 patch, and a
    1-3 and a 3-1 move."""
    for d in (4, 8):
        lat, cols, anyon = braid_arena(d)
        yield compile_schedule(lat, braid_schedule(lat, anyon, 0, steps=6), DATA)
    path = [polar_vertex_id(cols, 2, -(i + 1) % cols) for i in range(cols)]
    yield compile_schedule(lat, baseline_schedule(lat, anyon, path, data=DATA), DATA)
    lat = build_planar_patch(4, 4)
    split = split_row(lat, 1, data=DATA)
    mid = run_schedule(None, lat, split)[1]
    yield compile_schedule(lat, split, DATA)
    yield compile_schedule(mid, merge_rows(mid, [rec.vertex for rec in split.groups[0].layers[0]], data=DATA), DATA)
    tetra = build_tetra_sphere()
    tri = sorted(tetra.triangles)[0]
    sub, rec13 = pachner_13(tetra, tri)
    yield compile_pachner13(tetra, tri)
    yield compile_schedule(sub, MoveSchedule((MoveGroup(LOCAL, ((pachner_31(sub, rec13.vertex)[1],),)),)))


def test_stamped_gates_equal_validated_gates():
    # flips stamp their gates unchecked from a checked template, so each
    # must be a gate the constructor accepts, and equal to what it builds
    kinds = set()
    for circ in stamped_circuits():
        for layer in circ.layers:
            for g in layer:
                assert type(g) is Gate
                assert Gate(*g) == g
                kinds.add(g.kind)
    # a bare X needs a flip whose controls all fold away; none does here
    assert kinds == {"RY", "CX", "MCX", "SPREP"}


def test_compile_schedule_rejects_a_flip_whose_target_is_a_leg():
    lat = build_tetra_sphere()
    rec = pachner_22(lat, 0)[1]
    bad = rec._replace(qubits=(rec.qubits[1],) + rec.qubits[1:])
    with pytest.raises(MoveError, match="also one of its legs"):
        compile_schedule(lat, MoveSchedule((MoveGroup(LOCAL, ((bad,),)),)))


def test_compile_schedule_rejects_record_without_slots():
    lat = build_tetra_sphere()
    sched = MoveSchedule((MoveGroup(LOCAL, ((MoveRecord(F_MOVE, edge=0),),)),))
    with pytest.raises(MoveError, match="qubit slots"):
        compile_schedule(lat, sched)


def test_braid_gate_depth_constant_across_tiers():
    depths = {}
    base_depths = {}
    for d, (rows, cols) in {4: (6, 12), 8: (8, 24)}.items():
        lat = build_planar_patch(rows, cols, punctures=[(0, 0), (2, 0)])
        a = polar_vertex_id(cols, 2, 0)
        circ = compile_schedule(lat, braid_schedule(lat, a, 0, steps=6))
        depths[d] = circ.depth()
        path = [polar_vertex_id(cols, 2, -(i + 1) % cols) for i in range(cols)]
        base_depths[d] = compile_schedule(lat, baseline_schedule(lat, a, path)).depth()
    assert depths[4] == depths[8] == 168
    # the sequential transport compiles to depth linear in the loop length
    assert base_depths[4] == 168
    assert base_depths[8] == 336


def test_compile_schedule_rejects_parallel_slot_reuse():
    lat = build_tetra_sphere()
    tris = sorted(lat.triangles)
    _, r0 = pachner_13(lat, tris[0])
    _, r1 = pachner_13(lat, tris[1])  # same fresh slots, dry-run from same base
    assert set(r0.new_slots) & set(r1.new_slots)
    with pytest.raises(MoveError, match="overlap"):
        compile_schedule(lat, MoveSchedule((MoveGroup(LOCAL, ((r0, r1),)),)))


# ---- gate and circuit validation ----------------------------------------------


def test_gate_rejects_unknown_kind():
    # SWAP is no kind either: no move lowers to it
    for kind, targets in (("HADAMARD", (0,)), ("SWAP", (0, 1))):
        with pytest.raises(MoveError, match="gate kind"):
            Gate(kind, targets)


def test_gate_requires_polarity_per_control():
    with pytest.raises(MoveError, match="polarity"):
        Gate("CX", (0,), controls=(1,))


def test_circuit_check_rejects_overlapping_layer():
    circ = GateCircuit(
        qubits=(0, 1),
        layers=((Gate("X", (0,)), Gate("RY", (0,), params=(1.0,))),),
    )
    with pytest.raises(MoveError, match="overlapping"):
        circ.check()


def test_circuit_check_rejects_foreign_qubit():
    circ = GateCircuit(qubits=(0, 1), layers=((Gate("X", (5,)),),))
    with pytest.raises(MoveError, match="outside the circuit"):
        circ.check()


def test_circuit_check_rejects_non_bijective_permutation():
    circ = GateCircuit(qubits=(0, 1), permutation_layers=((0, ((0, 1), (1, 1))),))
    with pytest.raises(MoveError, match="bijection"):
        circ.check()


def test_simulate_rejects_oversized_register():
    circ = GateCircuit(qubits=tuple(range(23)))
    with pytest.raises(MoveError, match="dense simulation capped"):
        simulate_circuit(circ, np.zeros(1 << 23, dtype=np.complex128))


def test_simulate_rejects_wrong_state_length():
    circ = GateCircuit(qubits=(0, 1))
    with pytest.raises(MoveError, match="length"):
        simulate_circuit(circ, np.zeros(3, dtype=np.complex128))


# ---- sparse simulation above the dense cap -------------------------------------


def star_state(lat, rng, count):
    """Random normalized state over XORs of vertex stars, drawn as
    tests/test_gadgets.py draws it; every config is branching-valid.
    Test modules import nothing from each other, so that they collect
    in every pytest import mode."""
    pos = bit_positions(lat)
    stars = [
        sum(1 << pos[e] for e in edges)
        for _, edges in sorted(lat.vertex_edges().items())
        if all(e in pos for e in edges)
    ]
    stars = np.array(stars, dtype=np.uint64)
    pick = rng.random((count, len(stars))) < 0.5
    configs = np.unique(np.bitwise_xor.reduce(np.where(pick, stars, np.uint64(0)), axis=1))
    amps = rng.normal(size=len(configs)) + 1j * rng.normal(size=len(configs))
    return make_state(lat, configs, amps / np.linalg.norm(amps))


def embed_configs(configs, small_slots, big_slots):
    """Lift configs onto a larger register, new bits in 0."""
    pos_big = {q: i for i, q in enumerate(sorted(big_slots))}
    out = np.zeros(len(configs), dtype=np.uint64)
    for i, q in enumerate(sorted(small_slots)):
        out |= ((configs >> np.uint64(i)) & np.uint64(1)) << np.uint64(pos_big[q])
    return out


def assert_sparse_matches(circ, start_configs, start_amps, want_configs, want_amps):
    """simulate_sparse gives the wanted support, amplitudes within 1e-12."""
    configs, amps = simulate_sparse(circ, start_configs, start_amps)
    assert np.array_equal(configs, want_configs)
    assert np.max(np.abs(amps - want_amps), initial=0.0) <= 1e-12
    return configs, amps


@functools.lru_cache(maxsize=None)
def star_patch():
    """The 52-qubit 5x4 two-puncture patch, where the braid's flips have
    no pinned leg and the golden F-block fires, and a star state of 50
    draws on it."""
    lat = build_planar_patch(5, 4, punctures=[(0, 0), (2, 0)])
    return lat, star_state(lat, np.random.default_rng(11), 50)


def patch_protocol(lat, name):
    anyon = polar_vertex_id(4, 2, 0)
    if name == "baseline":
        path = [polar_vertex_id(4, 2, -(i + 1) % 4) for i in range(4)]
        return baseline_schedule(lat, anyon, path, data=DATA)
    return braid_schedule(lat, anyon, 0, steps=int(name.split()[-1]), data=DATA)


@pytest.mark.parametrize("name", ["braid steps 4", "braid steps 2", "baseline"])
def test_sparse_simulation_matches_replay_above_the_dense_cap(name):
    lat, start = star_patch()
    sched = patch_protocol(lat, name)
    circ = compile_schedule(lat, sched, DATA)
    assert len(circ.qubits) == 52
    want, out_lat = run_schedule(start, lat, sched, data=DATA)
    assert tuple(out_lat.qubit_slots()) == circ.qubits
    assert want.nnz() > start.nnz()  # the golden F-blocks spread amplitude
    assert_sparse_matches(circ, start.configs, start.amps, want.configs, want.amps)


@pytest.mark.parametrize("rows, row", [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (5, 4)])
def test_sparse_simulation_matches_split_then_merge(rows, row):
    """A split allocates 12 slots, so the 5x4 patch's 52 reach the full
    64-bit config, and the merge releases them again."""
    lat = build_planar_patch(rows, 4)
    start = star_state(lat, np.random.default_rng(11), 50)
    split = split_row(lat, row, data=DATA)
    mid, mid_lat = run_schedule(start, lat, split, data=DATA)
    merge = merge_rows(mid_lat, [rec.vertex for rec in split.groups[0].layers[0]], data=DATA)
    out, out_lat = run_schedule(mid, mid_lat, merge, data=DATA)
    assert out_lat.signature() == lat.signature()

    circ = compile_schedule(lat, split, DATA)
    assert len(circ.qubits) == {4: 52, 5: 64}[rows]
    assert tuple(mid_lat.qubit_slots()) == circ.qubits
    got = assert_sparse_matches(
        circ, embed_configs(start.configs, lat.qubit_slots(), circ.qubits), start.amps, mid.configs, mid.amps
    )
    if rows == 5:
        assert np.any(got[0] >> np.uint64(63))

    back = compile_schedule(mid_lat, merge, DATA)
    assert back.qubits == circ.qubits and set(back.released) == set(circ.allocated)
    want = embed_configs(out.configs, out_lat.qubit_slots(), back.qubits)
    assert_sparse_matches(back, *got, want, out.amps)


@st.composite
def flip_schedules(draw):
    """One LOCAL group of up to three layers, each of up to four flips
    on disjoint slots, drawn on the star patch. Gates act in layer
    order, so each rotation layer can double the support; four flips a
    layer keep it small."""
    cur, _ = star_patch()
    layers = []
    for _ in range(draw(st.integers(1, 3))):
        layer, used = [], set()
        for _ in range(draw(st.integers(1, 4))):
            flips = []
            for e, rec in sorted(cur.edges.items()):
                if rec.qubit is None:
                    continue
                try:
                    nxt, move = pachner_22(cur, e)
                except MoveError:
                    continue  # a flip the patch does not admit
                if used.isdisjoint(q for q in move.qubits if q >= 0):
                    flips.append((nxt, move))
            if not flips:
                break
            cur, move = draw(st.sampled_from(flips))
            used.update(q for q in move.qubits if q >= 0)
            layer.append(move)
        layers.append(tuple(layer))
    return MoveSchedule((MoveGroup(LOCAL, tuple(layers)),))


@settings(max_examples=40, deadline=None)
@given(flip_schedules())
def test_sparse_simulation_matches_replay_of_random_flips(sched):
    lat, start = star_patch()
    circ = compile_schedule(lat, sched, DATA)
    want, _ = run_schedule(start, lat, sched, data=DATA)
    assert_sparse_matches(circ, start.configs, start.amps, want.configs, want.amps)


def test_compiled_braid_sees_wrong_f_symbols_that_the_baseline_does_not():
    """The golden F-block with its diagonal signs swapped is unitary but
    no pentagon solution. Braid and baseline replayed with it still
    agree exactly, so comparing them (AC7) cannot see it; the compiled
    braid takes its angles from THETA, not from fsym, and disagrees."""
    fsym = DATA.fsym.copy()
    fsym[1, 1, 1, 1, 0, 0] *= -1
    fsym[1, 1, 1, 1, 1, 1] *= -1
    bad = dataclasses.replace(DATA, fsym=fsym)
    assert f_unitarity_residual(bad) < 1e-12 and not verify_pentagon_coherence(bad)

    lat, start = star_patch()
    braid, base = patch_protocol(lat, "braid steps 4"), patch_protocol(lat, "baseline")
    braided, out_lat = run_schedule(start, lat, braid, data=bad)
    based, base_lat = run_schedule(start, lat, base, data=bad)
    assert base_lat.signature() == out_lat.signature()
    assert diff_norm(out_lat, braided, rebind_state(based, out_lat)) == 0.0

    configs, amps = simulate_sparse(compile_schedule(lat, braid, DATA), start.configs, start.amps)
    assert (len(configs), braided.nnz()) == (217, 241)
    assert diff_norm(out_lat, make_state(out_lat, configs, amps), braided) > 1.0


def test_simulate_sparse_refuses_a_register_past_the_config_width():
    circ = GateCircuit(qubits=tuple(range(65)))
    with pytest.raises(MoveError, match="64-bit config width"):
        simulate_sparse(circ, np.zeros(1, dtype=np.uint64), np.ones(1))


@pytest.mark.parametrize(
    "configs, amps",
    [
        (np.zeros((2, 1), dtype=np.uint64), np.ones((2, 1))),
        (np.zeros(2, dtype=np.uint64), np.ones(3)),
        (np.uint64(0), np.complex128(1)),
    ],
)
def test_simulate_sparse_refuses_arrays_that_are_not_parallel(configs, amps):
    with pytest.raises(MoveError, match="parallel 1-d arrays"):
        simulate_sparse(GateCircuit(qubits=(0, 1)), configs, amps)


def test_simulate_sparse_refuses_a_config_past_the_register():
    with pytest.raises(MoveError, match="at or above the circuit's 2 qubit slots"):
        simulate_sparse(GateCircuit(qubits=(3, 7)), np.array([0b100], dtype=np.uint64), np.ones(1))
    # a full 64-slot register reads and writes bit 63
    wide = GateCircuit(qubits=tuple(range(64)), layers=((Gate("RY", (63,), params=(math.pi,)),),))
    configs, amps = simulate_sparse(wide, np.array([1], dtype=np.uint64), np.ones(1))
    assert configs.tolist() == [1 | 1 << 63] and np.allclose(amps, [1.0])


# ---- persistence ---------------------------------------------------------------


def test_export_import_round_trip_is_structural():
    lat = build_tetra_sphere()
    circ = compile_pachner13(lat, sorted(lat.triangles)[0])
    buf = io.StringIO()
    export_circuit(circ, buf)
    back = import_circuit(io.StringIO(buf.getvalue()))
    assert back == circ


def test_export_is_byte_stable():
    lat = build_tetra_sphere()
    circ = compile_fmove(lat, 0)
    a = export_circuit(circ, io.StringIO())
    b = export_circuit(compile_fmove(lat, 0), io.StringIO())
    assert a == b
    doc = json.loads(a)
    assert set(doc) == {"version", "qubits", "allocated", "released", "layers", "permutations"}


def test_export_matches_golden_file(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "fmove_tetra_edge0.json"
    lat = build_tetra_sphere()
    text = export_circuit(compile_fmove(lat, 0), tmp_path / "circ.json")
    assert text == golden.read_text(encoding="utf-8")
    assert (tmp_path / "circ.json").read_text(encoding="utf-8") == text


def test_import_rejects_missing_file():
    with pytest.raises(MoveError, match="cannot read"):
        import_circuit("/nonexistent/circuit.json")


def test_import_rejects_permutation_layers_out_of_order():
    from tvq.errors import lightcone_grow

    def two_swaps(first, second):
        swap = [[0, 1], [1, 0]]
        doc = {
            "qubits": [0, 1],
            "layers": [[]],
            "permutations": [
                {"after_layer": first, "sigma": swap},
                {"after_layer": second, "sigma": swap},
            ],
        }
        return io.StringIO(json.dumps(doc))

    with pytest.raises(MoveError, match="out of order"):
        import_circuit(two_swaps(1, 0))
    # equal positions stay allowed and act in their listed order
    for first, second in ((0, 0), (0, 1), (1, 1)):
        assert lightcone_grow({1}, import_circuit(two_swaps(first, second))) == {1}


# slot ids and params far from the compiled ones: negative and wide
# slots, a signed zero, a subnormal-adjacent and a large param
SLOTS = st.integers(-(2**40), 2**40) | st.sampled_from([-1, 0, 1])
PARAMS = st.sampled_from([-0.0, 0.0, 1e-300, 1e16, THETA, -SPREP_ANGLE]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def gates(draw):
    """Gates the constructor accepts: one target, distinct controls off
    the target (none on a rotation), one param on RY alone."""
    kind = draw(st.sampled_from(GATE_KINDS))
    target = draw(SLOTS)
    rotation = kind in ("RY", "SPREP")
    controls = draw(st.lists(SLOTS.filter(lambda s: s != target), unique=True, max_size=0 if rotation else 3))
    return Gate(
        kind,
        (target,),
        tuple(controls),
        tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=len(controls), max_size=len(controls)))),
        (draw(PARAMS),) if kind == "RY" else (),
    )


@st.composite
def circuits(draw):
    """Unchecked circuits whose layers and slot-pair tuples are drawn
    from small pools, so objects recur; empty ones included."""
    layer_pool = draw(st.lists(st.lists(gates(), max_size=3).map(tuple), min_size=1, max_size=4))
    layers = draw(st.lists(st.sampled_from(layer_pool), max_size=8))
    pair_pool = draw(st.lists(st.lists(st.tuples(SLOTS, SLOTS), max_size=4).map(tuple), min_size=1, max_size=3))
    afters = sorted(draw(st.lists(st.integers(0, len(layers)), max_size=5)))
    return GateCircuit(
        qubits=tuple(draw(st.lists(SLOTS, max_size=4))),
        layers=tuple(layers),
        permutation_layers=tuple((a, draw(st.sampled_from(pair_pool))) for a in afters),
        allocated=tuple(draw(st.lists(SLOTS, max_size=2))),
        released=tuple(draw(st.lists(SLOTS, max_size=2))),
        lattice_version=draw(st.integers(0, 2**40)),
    )


@settings(max_examples=300, deadline=None)
@given(circuits())
def test_export_renders_the_json_dumps_text(circ):
    want = json.dumps(circuit_to_jsonable(circ), indent=2, sort_keys=True)
    assert export_circuit(circ, io.StringIO()) == want


def braid_d8():
    lat, _, anyon = braid_arena(8)
    return compile_schedule(lat, braid_schedule(lat, anyon, 0, steps=6), DATA)


def test_import_shares_equal_gates_layers_and_relabelings():
    circ = braid_d8()
    # compile_schedule shares recurring layers and each relabeling's pairs
    assert len({id(layer) for layer in circ.layers}) == 28
    assert len({id(pairs) for _, pairs in circ.permutation_layers}) == 1
    back = import_circuit(io.StringIO(export_circuit(circ, io.StringIO())))
    assert back == circ
    assert len({id(layer) for layer in back.layers}) == 28
    assert len({id(pairs) for _, pairs in back.permutation_layers}) == 1
    gates = [g for layer in back.layers for g in layer]
    assert len({id(g) for g in gates}) == len(set(gates))
    # a plain document comes back the same way, and stays unaliased
    doc = circuit_to_jsonable(circ)
    assert circuit_from_jsonable(doc) == circ
    assert circ.layers[0] is circ.layers[28]
    doc["layers"][0][0]["targets"].append(-5)
    doc["permutations"][0]["sigma"].pop()
    assert doc["layers"][28] == [g.to_jsonable() for g in circ.layers[28]]
    assert len(doc["permutations"][1]["sigma"]) == len(circ.permutation_layers[1][1])


def test_import_keeps_signed_zero_params_apart():
    doc = {"qubits": [0, 1], "layers": [[{"kind": "RY", "targets": [0], "params": [0.0]}], [{"kind": "RY", "targets": [0], "params": [-0.0]}]]}
    text = json.dumps(doc)
    circ = import_circuit(io.StringIO(text))
    assert circ.layers[0] is not circ.layers[1]
    again = export_circuit(circ, io.StringIO())
    assert export_circuit(import_circuit(io.StringIO(again)), io.StringIO()) == again
    assert '"params": [\n          -0.0\n' in again


def gate_doc(*gates):
    return {"qubits": [0, 1, 2], "layers": [[g] for g in gates]}


@pytest.mark.parametrize(
    "gate, message",
    [
        # left unvalidated, the first two die in simulate_circuit with an
        # IndexError, and the next two simulate silently wrong
        ({"kind": "X", "targets": []}, "exactly one target"),
        ({"kind": "RY", "targets": [0]}, "takes 1 params, got 0"),
        ({"kind": "RY", "targets": [0, 1], "params": [0.5]}, "exactly one target"),
        ({"kind": "CX", "targets": [1], "controls": [1], "polarities": [1]}, "differ from its target"),
        ({"kind": "MCX", "targets": [2], "controls": [0, 0], "polarities": [1, 1]}, "distinct"),
        ({"kind": "CX", "targets": [1], "controls": [0], "polarities": [2]}, "polarities must be 0 or 1"),
        ({"kind": "CX", "targets": [1], "controls": [0], "polarities": [1.0]}, "polarities must be 0 or 1"),
        ({"kind": "X", "targets": [0], "params": [0.5]}, "takes 0 params, got 1"),
        ({"kind": "SPREP", "targets": [0], "params": [0.5]}, "takes 0 params, got 1"),
        ({"kind": "RY", "targets": [1], "controls": [0], "polarities": [1], "params": [0.5]}, "takes no controls"),
        ({"kind": "Z", "targets": [0]}, "unknown gate kind"),
        ({"kind": "CX", "targets": [1], "controls": [0]}, "one polarity"),
    ],
)
def test_import_rejects_malformed_gates(gate, message):
    good = {"kind": "X", "targets": [2]}
    doc = gate_doc(good, gate, gate)
    with pytest.raises(MoveError, match=message):
        import_circuit(io.StringIO(json.dumps(doc)))
    with pytest.raises(MoveError, match=message):
        circuit_from_jsonable(doc)
    # the constructor is the one validation import runs
    with pytest.raises(MoveError, match=message):
        Gate(**gate)


MALFORMED_CIRCUITS = [
    ("x", "JSONDecodeError"),
    ("[]", "TypeError"),
    ("{}", "KeyError: 'layers'"),
    ('{"layers": []}', "KeyError: 'qubits'"),
    ('{"qubits": "ab", "layers": []}', "qubits must hold integers only"),
    ('{"qubits": 5, "layers": []}', "TypeError"),
    ('{"qubits": [0], "layers": [], "version": "3"}', "version must be an integer"),
    ('{"qubits": [0], "layers": [], "allocated": [0.5]}', "allocated must hold integers only"),
    ('{"qubits": [0], "layers": [], "released": ["0"]}', "released must hold integers only"),
    ('{"qubits": [0], "layers": [], "permutations": [{"after_layer": 0}]}', "KeyError: 'sigma'"),
    ('{"qubits": [0], "layers": [], "permutations": [{"after_layer": 0.0, "sigma": []}]}', "after_layer must be"),
    ('{"qubits": [0, 1], "layers": [], "permutations": [{"after_layer": 0, "sigma": [[0.9, 1], [1, 0]]}]}',
     "sigma must hold integers only"),
    ('{"qubits": [0, 1], "layers": [], "permutations": [{"after_layer": 0, "sigma": [[0, 1, 2]]}]}', "ValueError"),
    ('{"qubits": [0], "layers": [[1]]}', "a gate must be an object"),
    ('{"qubits": [0], "layers": [[{"kind": ["X"], "targets": [0]}]]}', "TypeError"),
]


@pytest.mark.parametrize("text, message", MALFORMED_CIRCUITS)
def test_import_circuit_rejects_malformed_documents(text, message):
    with pytest.raises(MoveError, match=re.escape(message)):
        import_circuit(io.StringIO(text))


@pytest.mark.parametrize("text, message", [(t, m) for t, m in MALFORMED_CIRCUITS if t != "x"])
def test_circuit_from_jsonable_rejects_malformed_documents(text, message):
    with pytest.raises(MoveError, match=re.escape(message)):
        circuit_from_jsonable(json.loads(text))


def test_import_rejects_overlap_in_a_repeated_layer():
    overlap = [{"kind": "X", "targets": [0]}, {"kind": "CX", "targets": [1], "controls": [0], "polarities": [1]}]
    doc = {"qubits": [0, 1], "layers": [[{"kind": "X", "targets": [1]}], overlap, overlap, overlap]}
    with pytest.raises(MoveError, match="overlapping"):
        import_circuit(io.StringIO(json.dumps(doc)))
