"""Gate-level compilation against the sparse semantic simulator.

The two implementations share no code path for the actual linear maps:
the semantic side contracts F-symbol tensors over sparse configs, the
compiled side applies rotation-sandwiched and classically controlled X
gates to dense vectors. Agreement on the valid subspace is the main
correctness evidence for both.
"""

import io
import json
import math

import numpy as np
import pytest

from tvq.fusion import fibonacci_data, trivial_data
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
    enumerate_valid_configs,
    ground_project,
    make_delta_state,
    make_state,
    random_valid_state,
    valid_mask,
)
from tvq.gadgets import (
    LOCAL,
    MoveGroup,
    MoveSchedule,
    baseline_schedule,
    braid_schedule,
    merge_rows,
    run_schedule,
    shear_step,
    split_row,
)
from tvq.circuits import (
    SPREP_ANGLE,
    THETA,
    Gate,
    GateCircuit,
    compile_fmove,
    compile_pachner13,
    compile_schedule,
    export_circuit,
    import_circuit,
    inverse_circuit,
    ry_matrix,
    simulate_circuit,
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
    sched = MoveSchedule((MoveGroup(LOCAL, ((r0, r1),)),))
    with pytest.raises(MoveError, match="allocated twice"):
        compile_schedule(lat, sched)


# ---- gate and circuit validation ----------------------------------------------


def test_gate_rejects_unknown_kind():
    with pytest.raises(MoveError, match="gate kind"):
        Gate("HADAMARD", (0,))


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


def test_swap_gate_semantics():
    circ = GateCircuit(qubits=(0, 1), layers=((Gate("SWAP", (0, 1)),),))
    psi = np.zeros(4, dtype=np.complex128)
    psi[0b01] = 1.0  # qubit 0 set
    out = simulate_circuit(circ, psi)
    assert abs(out[0b10] - 1.0) < 1e-15


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
