"""Schedule builders: depth accounting, replay, and logical equivalence.

The scaling claims are structural (group and layer counts on dry-run
schedules), so they run at the full tier sizes. Amplitude-level checks
run on small patches where the encoded subspace is tractable; the
braid-vs-baseline comparison on the two-puncture arena lives in the
acceptance suite because of its runtime.
"""

import json
import time

import numpy as np
import pytest

from tvq.fusion import fibonacci_data
from tvq.lattice import (
    F_MOVE,
    MoveError,
    build_honeycomb_torus,
    build_planar_patch,
    build_theta_sphere,
    isomorphism_check,
    pachner_22,
    polar_vertex_id,
)
from tvq.statevec import (
    bit_positions,
    enumerate_valid_configs,
    ground_project,
    inner,
    make_delta_state,
    make_state,
    random_valid_state,
    rebind_state,
)
from tvq.gadgets import (
    LOCAL,
    DepthReport,
    MoveGroup,
    MoveSchedule,
    baseline_schedule,
    braid,
    braid_schedule,
    depth_report_to_json,
    encoded_basis,
    logical_action,
    merge_rows,
    run_schedule,
    schedule_to_json,
    sequential_baseline,
    shear_step,
    split_row,
)

DATA = fibonacci_data()

# scaled geometry tiers: one braid loop needs 6 shear steps of stride
# cols/6, and the moving puncture sits on ring 2 with stride+2 clear
# rings above it (one spare so no flip cell touches the pinned
# boundary, keeping every compiled gadget full width), so cols = 3d
# and rows = d/2 + 4
TIERS = {4: (6, 12, 2), 8: (8, 24, 4)}


def tier_lattice(d):
    rows, cols, _ = TIERS[d]
    return build_planar_patch(rows, cols, punctures=[(0, 0), (2, 0)])


def tier_anyon(d):
    return polar_vertex_id(TIERS[d][1], 2, 0)


def ring_path(cols, hops, start=0, direction=-1):
    return [
        polar_vertex_id(cols, 2, (start + direction * (i + 1)) % cols)
        for i in range(hops)
    ]


def normalized(lat, state):
    return make_state(lat, state.configs, state.amps / state.norm())


def ground_state(lat, seed_cfg=None):
    cfgs = enumerate_valid_configs(lat, DATA)
    cfg = int(cfgs[0]) if seed_cfg is None else seed_cfg
    return normalized(lat, ground_project(make_delta_state(lat, cfg), lat, DATA))


def state_diff(lat, a, b):
    cfg = np.concatenate([a.configs, b.configs])
    amp = np.concatenate([a.amps, -b.amps])
    return make_state(lat, cfg, amp, tolerance=0.0).norm()


# ---- constant-depth scaling ---------------------------------------------------


def test_braid_depth_constant_across_tiers():
    reports = {}
    for d in (4, 8):
        sched = braid_schedule(tier_lattice(d), tier_anyon(d), 0, steps=6)
        reports[d] = sched.depth_report()
    assert reports[4].local_depth == reports[8].local_depth == 4
    assert reports[4].total_steps == reports[8].total_steps == 12


def test_braid_permutation_range_tracks_stride():
    ranges = {}
    for d in (4, 8):
        sched = braid_schedule(tier_lattice(d), tier_anyon(d), 0, steps=6)
        ranges[d] = sched.depth_report().permutation_range
        assert ranges[d] == TIERS[d][2]
    # doubling the code distance doubles only the relabeling distance
    assert abs(ranges[8] - 2.0 * ranges[4]) <= 1.0


def test_baseline_steps_scale_linearly():
    steps = {}
    for d in (4, 8):
        lat = tier_lattice(d)
        cols = TIERS[d][1]
        sched = baseline_schedule(lat, tier_anyon(d), ring_path(cols, cols))
        rep = sched.depth_report()
        steps[d] = rep.total_steps
        assert rep.local_depth == 2
        assert rep.permutation_range == 1.0
    assert steps[4] == 24 and steps[8] == 48
    assert abs(steps[8] - 2 * steps[4]) <= 1


def test_baseline_steps_proportional_to_path_length():
    lat = tier_lattice(8)
    a = tier_anyon(8)
    cols = TIERS[8][1]
    for hops in (1, 3, 6, 12):
        sched = baseline_schedule(lat, a, ring_path(cols, hops))
        assert sched.depth_report().total_steps == 2 * hops


def test_braid_schedule_closes_the_lattice():
    for d in (4, 8):
        lat = tier_lattice(d)
        sched = braid_schedule(lat, tier_anyon(d), 0, steps=6)
        _, out = run_schedule(None, lat, sched)
        assert out.signature() == lat.signature()


def test_braid_schedules_build_fast_enough():
    # structural work only; generous bound so slow machines still pass
    t0 = time.time()
    for d in (4, 8):
        braid_schedule(tier_lattice(d), tier_anyon(d), 0, steps=6)
        lat = tier_lattice(d)
        cols = TIERS[d][1]
        baseline_schedule(lat, tier_anyon(d), ring_path(cols, cols))
    assert time.time() - t0 < 60.0


def test_shear_move_counts():
    lat = tier_lattice(4)
    sched = shear_step(lat, tier_anyon(4), direction=-1, stride=2)
    kinds = [g.kind for g in sched.groups]
    assert kinds == [LOCAL, "PERMUTATION"]
    flips = list(sched.groups[0].records())
    assert len(flips) == 2 * 12  # stride annuli, one flip per sector
    assert all(r.kind == "F_MOVE" for r in flips)
    assert len(list(sched.groups[1].records())) == 1


@pytest.mark.parametrize("length", [2, 4, 8])
def test_split_depth_independent_of_row_length(length):
    lat = build_planar_patch(2, length)
    rep = split_row(lat, 1).depth_report()
    assert rep.local_depth == 5
    assert rep.total_steps == 1
    assert rep.permutation_range == 0.0


@pytest.mark.parametrize("rows,cols,row", [(2, 2, 1), (2, 4, 1), (3, 4, 2), (3, 6, 1)])
def test_split_then_merge_restores_everything(rows, cols, row):
    lat = build_planar_patch(rows, cols)
    sched = split_row(lat, row)
    _, mid = run_schedule(None, lat, sched)
    mid.check()
    assert isomorphism_check(mid, build_planar_patch(rows + 1, cols))
    new_verts = sorted(set(mid.vertices) - set(lat.vertices))
    assert len(new_verts) == cols
    merge = merge_rows(mid, new_verts)
    assert merge.depth_report().local_depth == 5
    _, back = run_schedule(None, mid, merge)
    assert back.signature() == lat.signature()


def test_merge_canonical_middle_ring():
    # merging an original ring of a fresh patch, not a split product
    lat = build_planar_patch(3, 4)
    mids = [polar_vertex_id(4, 2, s) for s in range(4)]
    sched = merge_rows(lat, mids)
    _, out = run_schedule(None, lat, sched)
    out.check()
    assert isomorphism_check(out, build_planar_patch(2, 4))


# ---- error paths --------------------------------------------------------------


def test_shear_rejects_non_canonical_lattices():
    with pytest.raises(MoveError):
        shear_step(build_theta_sphere(), 0, stride=1)
    with pytest.raises(MoveError):
        shear_step(build_honeycomb_torus(2, 2), 0, stride=1)


def test_shear_rejects_non_puncture_anyon():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    with pytest.raises(MoveError, match="not a puncture"):
        shear_step(lat, 7, stride=1)


def test_shear_rejects_odd_sector_count():
    lat = build_planar_patch(3, 5, punctures=[(0, 0)])
    with pytest.raises(MoveError, match="even"):
        shear_step(lat, 0, stride=1)


def test_shear_rejects_blocked_corridor():
    lat = build_planar_patch(5, 12, punctures=[(2, 0), (3, 6)])
    a = polar_vertex_id(12, 2, 0)
    with pytest.raises(MoveError, match="blocked"):
        shear_step(lat, a, stride=1)


def test_shear_rejects_stride_beyond_boundary():
    lat = build_planar_patch(3, 4, punctures=[(2, 0)])
    a = polar_vertex_id(4, 2, 0)
    with pytest.raises(MoveError, match="boundary"):
        shear_step(lat, a, stride=1)
    with pytest.raises(MoveError):
        shear_step(build_planar_patch(3, 4, punctures=[(0, 0)]), 0, stride=3)


def test_shear_rejects_bad_direction_and_stride():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    with pytest.raises(MoveError):
        shear_step(lat, 0, direction=2, stride=1)
    with pytest.raises(MoveError):
        shear_step(lat, 0, stride=0)


def test_baseline_path_validation():
    lat = build_planar_patch(4, 6, punctures=[(2, 0)])
    a = polar_vertex_id(6, 2, 0)
    with pytest.raises(MoveError, match="ring"):
        sequential_baseline(None, lat, a, [polar_vertex_id(6, 3, 0)])
    with pytest.raises(MoveError, match="adjacent"):
        sequential_baseline(None, lat, a, [polar_vertex_id(6, 2, 2)])
    with pytest.raises(MoveError, match="not on the lattice"):
        sequential_baseline(None, lat, a, [999])
    lat2 = build_planar_patch(4, 6, punctures=[(2, 0), (2, 2)])
    path = [polar_vertex_id(6, 2, 1), polar_vertex_id(6, 2, 2)]
    with pytest.raises(MoveError, match="puncture"):
        sequential_baseline(None, lat2, a, path)


def test_baseline_empty_path_is_identity():
    lat = build_planar_patch(4, 6, punctures=[(2, 0)])
    a = polar_vertex_id(6, 2, 0)
    sched = baseline_schedule(lat, a, [])
    assert sched.groups == ()
    assert sched.depth_report() == DepthReport(0, 0.0, 0)


def test_braid_preconditions():
    rows, cols, _ = TIERS[4]
    lat = build_planar_patch(rows, cols, punctures=[(0, 0)])
    with pytest.raises(MoveError, match="two"):
        braid_schedule(lat, tier_anyon(4), 0)
    both_out = build_planar_patch(rows, cols, punctures=[(2, 0), (2, 6)])
    with pytest.raises(MoveError, match="center"):
        braid_schedule(both_out, polar_vertex_id(cols, 2, 0), polar_vertex_id(cols, 2, 6))
    lat2 = tier_lattice(4)
    with pytest.raises(MoveError, match="divide"):
        braid_schedule(lat2, tier_anyon(4), 0, steps=5)
    shallow = build_planar_patch(3, 12, punctures=[(0, 0), (2, 0)])
    with pytest.raises(MoveError, match="boundary"):
        braid_schedule(shallow, polar_vertex_id(12, 2, 0), 0, steps=6)


def test_split_row_validation():
    lat = build_planar_patch(3, 4)
    with pytest.raises(MoveError, match="no annulus row"):
        split_row(lat, 0)
    with pytest.raises(MoveError, match="no annulus row"):
        split_row(lat, 3)
    with pytest.raises(MoveError):
        split_row(lat, "middle")
    with pytest.raises(MoveError, match="even"):
        split_row(build_planar_patch(3, 5), 1)
    punctured = build_planar_patch(3, 4, punctures=[(1, 0)])
    with pytest.raises(MoveError, match="puncture"):
        split_row(punctured, 1)
    # a puncture away from the row does not block it
    assert split_row(punctured, 2).depth_report().local_depth == 5


def test_merge_rows_validation():
    lat = build_planar_patch(3, 4)
    with pytest.raises(MoveError, match="empty"):
        merge_rows(lat, [])
    with pytest.raises(MoveError, match="even"):
        merge_rows(lat, [polar_vertex_id(4, 2, s) for s in range(3)])
    with pytest.raises(MoveError, match="not on the lattice"):
        merge_rows(lat, [998, 999])
    # vertices that do not form a ring
    with pytest.raises(MoveError):
        merge_rows(lat, [polar_vertex_id(4, 2, 0), polar_vertex_id(4, 2, 2)])
    # pinned boundary ring has no outer row to fuse
    with pytest.raises(MoveError):
        merge_rows(lat, [polar_vertex_id(4, 3, s) for s in range(4)])
    punctured = build_planar_patch(3, 4, punctures=[(1, 0)])
    with pytest.raises(MoveError, match="puncture"):
        merge_rows(punctured, [polar_vertex_id(4, 2, s) for s in range(4)])


def test_run_schedule_rejects_overlapping_layer():
    lat = build_planar_patch(2, 4)
    _, r0 = pachner_22(lat, 12)
    _, r1 = pachner_22(lat, 13)  # shares a quad leg with edge 12's flip
    bad = MoveSchedule((MoveGroup(LOCAL, ((r0, r1),)),))
    with pytest.raises(MoveError, match="overlap"):
        run_schedule(None, lat, bad)


def test_run_schedule_rejects_malformed_groups():
    lat = build_planar_patch(2, 4)
    _, rec = pachner_22(lat, 12)
    with pytest.raises(MoveError, match="exactly one"):
        run_schedule(None, lat, MoveSchedule((MoveGroup("PERMUTATION", ((rec, rec),)),)))
    with pytest.raises(MoveError, match="unknown group kind"):
        run_schedule(None, lat, MoveSchedule((MoveGroup("GLOBAL", ((rec,),)),)))


# ---- states through schedules -------------------------------------------------


def test_shear_preserves_code_states():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    st = ground_state(lat)
    sched = shear_step(lat, 0, direction=-1, stride=1)
    out, out_lat = run_schedule(st, lat, sched, data=DATA, assert_code_space=True)
    assert out_lat.signature() == lat.signature()
    assert abs(out.norm() - 1.0) < 1e-10
    back = ground_project(out, out_lat, DATA)
    assert state_diff(out_lat, back, out) < 1e-10


def test_split_preserves_code_states_and_merge_inverts():
    lat = build_planar_patch(2, 4)
    st = ground_state(lat)
    split = split_row(lat, 1)
    mid_state, mid = run_schedule(st, lat, split, data=DATA, assert_code_space=True)
    assert abs(mid_state.norm() - 1.0) < 1e-10
    new_verts = sorted(set(mid.vertices) - set(lat.vertices))
    merge = merge_rows(mid, new_verts)
    back_state, back = run_schedule(mid_state, mid, merge, data=DATA)
    assert back.signature() == lat.signature()
    back_state = rebind_state(back_state, lat)
    assert abs(inner(st, back_state) - 1.0) < 1e-10


def test_split_then_merge_on_smallest_row():
    lat = build_planar_patch(2, 2)
    st = ground_state(lat)
    mid_state, mid = run_schedule(st, lat, split_row(lat, 1), data=DATA)
    new_verts = sorted(set(mid.vertices) - set(lat.vertices))
    back_state, back = run_schedule(mid_state, mid, merge_rows(mid, new_verts), data=DATA)
    back_state = rebind_state(back_state, lat)
    assert abs(inner(st, back_state) - 1.0) < 1e-10


def test_fused_stride_matches_sequential_strides():
    """One stride-2 shear equals two stride-1 shears on the logical level."""
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    basis = encoded_basis(lat, data=DATA, max_seeds=6)
    assert len(basis) == 2
    fused = shear_step(lat, 0, direction=-1, stride=2)
    one = shear_step(lat, 0, direction=-1, stride=1)
    _, mid = run_schedule(None, lat, one)
    pair = one.then(shear_step(mid, 0, direction=-1, stride=1))
    u_fused = logical_action(fused, lat, data=DATA, basis=basis)
    u_pair = logical_action(pair, lat, data=DATA, basis=basis)
    assert np.max(np.abs(u_fused - u_pair)) < 1e-8


def test_there_and_back_shear_acts_trivially():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    basis = encoded_basis(lat, data=DATA, max_seeds=6)
    fwd = shear_step(lat, 0, direction=1, stride=1)
    _, mid = run_schedule(None, lat, fwd)
    loop = fwd.then(shear_step(mid, 0, direction=-1, stride=1))
    u = logical_action(loop, lat, data=DATA, basis=basis)
    assert np.max(np.abs(u - np.eye(2))) < 1e-8


def test_logical_action_identity_and_unitarity_guard():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    basis = encoded_basis(lat, data=DATA, max_seeds=6)
    u = logical_action(MoveSchedule(()), lat, data=DATA, basis=basis)
    assert np.max(np.abs(u - np.eye(len(basis)))) < 1e-12

    def lossy(state, dlat):
        return make_state(dlat, state.configs, 0.5 * state.amps), dlat

    with pytest.raises(MoveError, match="unitary"):
        logical_action(lossy, lat, data=DATA, basis=basis)


def test_logical_action_guards_lattice_size():
    lat = build_planar_patch(5, 12, punctures=[(0, 0)])
    with pytest.raises(MoveError, match="dense limit"):
        logical_action(MoveSchedule(()), lat, data=DATA)


def test_logical_action_rejects_open_protocols():
    # a bare split does not return to the starting lattice
    lat = build_planar_patch(2, 4)
    basis = encoded_basis(lat, data=DATA, max_seeds=4)
    with pytest.raises(Exception):
        logical_action(split_row(lat, 1), lat, data=DATA, basis=basis)


# ---- serialization -------------------------------------------------------------


def test_schedule_json_is_deterministic():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    sched = shear_step(lat, 0, direction=-1, stride=1)
    blob1 = schedule_to_json(sched)
    blob2 = schedule_to_json(shear_step(lat, 0, direction=-1, stride=1))
    assert blob1 == blob2
    doc = json.loads(blob1)
    assert [g["kind"] for g in doc["groups"]] == ["LOCAL", "PERMUTATION"]
    assert doc["groups"][1]["range"] == 1.0


def test_depth_report_json_fields():
    lat = tier_lattice(4)
    rep = braid_schedule(lat, tier_anyon(4), 0, steps=6).depth_report()
    doc = json.loads(depth_report_to_json(rep))
    assert doc == {"local_depth": 4, "permutation_range": 2.0, "total_steps": 12}


def test_braid_runs_states_end_to_end():
    """Full braid on the smallest geometry that admits one.

    A sparse random valid state stands in for a code state here; every
    move is an isometry on the valid subspace, so the norm and the
    lattice closure are checkable without the expensive ground
    projection (that part is covered by the equivalence criterion).
    """
    lat = build_planar_patch(4, 4, punctures=[(0, 0), (2, 0)])
    a = polar_vertex_id(4, 2, 0)
    rng = np.random.default_rng(7)
    st = random_valid_state(lat, rng, support=5000, data=DATA)
    out, out_lat, rep = braid(st, lat, a, 0, steps=4, data=DATA)
    assert out_lat.signature() == lat.signature()
    assert abs(out.norm() - 1.0) < 1e-9
    assert rep.local_depth <= 2 and rep.total_steps == 8
    out = rebind_state(out, lat)
    # replaying the same schedule is deterministic
    sched = braid_schedule(lat, a, 0, steps=4)
    again, _ = run_schedule(st, lat, sched, data=DATA)
    again = rebind_state(again, lat)
    assert state_diff(lat, out, again) < 1e-12


def star_state(lat, rng, count):
    """Random normalized state over XORs of vertex stars.

    A star (every edge at one vertex set to 1) is a closed loop, and a
    triangle of XOR-ed stars reads 000 or two 1s, so every config is
    branching-valid. Vertices touching a pinned edge are skipped.
    """
    pos = bit_positions(lat)
    stars = []
    for v, edges in sorted(lat.vertex_edges().items()):
        if all(e in pos for e in edges):
            stars.append(sum(1 << pos[e] for e in edges))
    stars = np.array(stars, dtype=np.uint64)
    pick = rng.random((count, len(stars))) < 0.5
    configs = np.unique(np.bitwise_xor.reduce(np.where(pick, stars, np.uint64(0)), axis=1))
    amps = rng.normal(size=len(configs)) + 1j * rng.normal(size=len(configs))
    return make_state(lat, configs, amps / np.linalg.norm(amps))


def test_braid_then_baseline_back_with_unpinned_fmoves():
    """On the 5x4 two-puncture patch the braid's flips have no pinned
    leg, so the golden F-block acts; the baseline must undo the braid on
    a generic valid state, not only on classical relabelings."""
    lat = build_planar_patch(5, 4, punctures=[(0, 0), (2, 0)])
    anyon = polar_vertex_id(4, 2, 0)
    sched = braid_schedule(lat, anyon, 0, steps=4, data=DATA)
    flips = [r for g in sched.groups for r in g.records() if r.kind == F_MOVE]
    assert any(-1 not in r.qubits for r in flips)

    start = star_state(lat, np.random.default_rng(11), 4000)
    assert len(start.configs) > 2000
    mid, mid_lat = run_schedule(start, lat, sched, data=DATA)
    back = baseline_schedule(mid_lat, anyon, ring_path(4, 4, direction=1), data=DATA)
    fin, _ = run_schedule(mid, mid_lat, back, data=DATA)
    fin = rebind_state(fin, lat)

    assert len(mid.configs) > len(start.configs)  # the F-blocks spread amplitude
    assert np.array_equal(fin.configs, start.configs)
    assert abs(np.vdot(start.amps, fin.amps)) >= 1 - 1e-9
    assert abs(inner(start, fin)) >= 1 - 1e-9
    for st in (mid, fin):
        assert abs(st.norm() - 1.0) <= 1e-10
