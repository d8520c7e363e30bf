"""Schedule builders: depth accounting, replay, and logical equivalence.

The scaling claims are structural (group and layer counts on dry-run
schedules), so they run at the full tier sizes. Amplitude-level checks
run on small patches where the encoded subspace is tractable; the
braid-vs-baseline comparison on the two-puncture arena lives in the
acceptance suite because of its runtime.
"""

import functools
import hashlib
import json
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from tvq.fusion import fibonacci_data
from tvq import statevec
from tvq.lattice import (
    F_MOVE,
    PACHNER_13,
    PERMUTATION,
    Edge,
    MoveError,
    MoveRecord,
    SurfaceLattice,
    apply_cpi,
    build_honeycomb_torus,
    build_planar_patch,
    build_theta_sphere,
    pachner_22,
    polar_vertex_id,
    replace_lattice,
    _disk_coords,
)
from tvq.statevec import (
    VersionError,
    apply_fmove,
    apply_pachner13,
    apply_pachner31,
    apply_state_permutation,
    bit_positions,
    code_space,
    code_space_dim,
    diff_norm,
    enumerate_valid_configs,
    ground_project,
    inner,
    make_delta_state,
    make_state,
    random_valid_state,
    rebind_state,
)
from tvq.circuits import compile_schedule
from tvq.gadgets import (
    LOCAL,
    DepthReport,
    MoveGroup,
    MoveSchedule,
    baseline_schedule,
    braid_arena,
    braid_schedule,
    logical_action,
    merge_rows,
    run_schedule,
    schedule_to_json,
    shear_step,
    split_row,
    _shear,
)

DATA = fibonacci_data()

# the braid arenas of distance 4 and 8 (gadgets.braid_arena): one braid
# loop needs 6 shear steps of stride cols/6, and the moving puncture sits
# on ring 2 with stride+2 clear rings above it (one spare so no flip cell
# touches the pinned boundary, keeping every compiled gadget full width),
# so cols = 3d and rows = d/2 + 4; the relabeling range is the stride
RANGES = {4: 2, 8: 4}


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


# ---- the braid arena ------------------------------------------------------------


@pytest.mark.parametrize("d", [1, 3, 5, 0, -2, 4.0])
def test_braid_arena_refuses_distances_that_are_not_positive_even_integers(d):
    with pytest.raises(MoveError, match=re.escape(f"braid distance must be a positive even integer, got {d!r}")):
        braid_arena(d)


@pytest.mark.parametrize("d", [2, 4, 8])
def test_braid_arena_builds_even_distances(d):
    lat, cols, anyon = braid_arena(d)
    want = build_planar_patch(d // 2 + 4, 3 * d, punctures=[(0, 0), (2, 0)])
    assert (lat.signature(), lat.version) == (want.signature(), want.version)
    assert (cols, anyon) == (3 * d, polar_vertex_id(3 * d, 2, 0))
    assert braid_schedule(lat, anyon, 0, steps=6).depth_report().total_steps == 12


# ---- constant-depth scaling ---------------------------------------------------


def test_braid_depth_constant_across_tiers():
    reports = {}
    for d in (4, 8):
        lat, _, anyon = braid_arena(d)
        reports[d] = braid_schedule(lat, anyon, 0, steps=6).depth_report()
    assert reports[4].local_depth == reports[8].local_depth == 4
    assert reports[4].total_steps == reports[8].total_steps == 12


def test_braid_permutation_range_tracks_stride():
    ranges = {}
    for d in (4, 8):
        lat, _, anyon = braid_arena(d)
        ranges[d] = braid_schedule(lat, anyon, 0, steps=6).depth_report().permutation_range
        assert ranges[d] == RANGES[d]
    # doubling the code distance doubles only the relabeling distance
    assert abs(ranges[8] - 2.0 * ranges[4]) <= 1.0


def test_baseline_steps_scale_linearly():
    steps = {}
    for d in (4, 8):
        lat, cols, anyon = braid_arena(d)
        sched = baseline_schedule(lat, anyon, ring_path(cols, cols))
        rep = sched.depth_report()
        steps[d] = rep.total_steps
        assert rep.local_depth == 2
        assert rep.permutation_range == 1.0
    assert steps[4] == 24 and steps[8] == 48
    assert abs(steps[8] - 2 * steps[4]) <= 1


def test_baseline_steps_proportional_to_path_length():
    lat, cols, a = braid_arena(8)
    for hops in (1, 3, 6, 12):
        sched = baseline_schedule(lat, a, ring_path(cols, hops))
        assert sched.depth_report().total_steps == 2 * hops


def test_braid_schedule_closes_the_lattice():
    for d in (4, 8):
        lat, _, anyon = braid_arena(d)
        sched = braid_schedule(lat, anyon, 0, steps=6)
        _, out = run_schedule(None, lat, sched)
        assert out.signature() == lat.signature()


def test_braid_schedules_build_fast_enough():
    # structural work only; generous bound so slow machines still pass
    t0 = time.time()
    for d in (4, 8):
        lat, cols, anyon = braid_arena(d)
        braid_schedule(lat, anyon, 0, steps=6)
        baseline_schedule(lat, anyon, ring_path(cols, cols))
    assert time.time() - t0 < 60.0


def test_shear_move_counts():
    lat, _, anyon = braid_arena(4)
    sched = shear_step(lat, anyon, direction=-1, stride=2)
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


def split_relabeling(rows, cols, row):
    """Vertex map from split_row(build_planar_patch(rows, cols), row)'s
    end lattice onto build_planar_patch(rows + 1, cols): rings past
    `row` move out one ring, and the fresh vertices, numbered on from
    rows * cols in sector order, become ring row + 1."""
    vmap = {}
    for v in range(1, (rows + 1) * cols + 1):
        if v > rows * cols:
            vmap[v] = polar_vertex_id(cols, row + 1, v - 1 - rows * cols)
        else:
            r, s = _disk_coords(v, cols)
            vmap[v] = polar_vertex_id(cols, r + (r > row), s)
    return vmap


@pytest.mark.parametrize("rows,cols,row", [(2, 2, 1), (2, 4, 1), (3, 4, 2), (3, 6, 1)])
def test_split_then_merge_restores_everything(rows, cols, row):
    lat = build_planar_patch(rows, cols)
    sched = split_row(lat, row)
    _, mid = run_schedule(None, lat, sched)
    mid.check()
    canonical = build_planar_patch(rows + 1, cols)
    # with two sectors apply_cpi pairs parallel ring edges in id order,
    # which the formula's map does not respect; this one it accepts
    vmap = {1: 2, 2: 1, 3: 6, 4: 5, 5: 3, 6: 4} if cols == 2 else split_relabeling(rows, cols, row)
    assert apply_cpi(mid, vmap, target=canonical)[0].same_signature(canonical)
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
    canonical = build_planar_patch(2, 4)
    vmap = {polar_vertex_id(4, 3, s): polar_vertex_id(4, 2, s) for s in range(4)}
    assert apply_cpi(out, vmap, target=canonical)[0].same_signature(canonical)


def schedule_sha256(sched):
    return hashlib.sha256(schedule_to_json(sched).encode()).hexdigest()


# sha256 of schedule_to_json of each split and of the merge that undoes
# it, pinned when every builder move still copied the lattice
SPLIT_MERGE_SHA256 = {
    (2, 2, 1): (
        "b31a76d0eb7a69f325f09af0fb3b49c1e984f870efdc317c76b1502a5a77d27c",
        "3ede9b159b6ce1dc6a4e1f63c22015b16a6a8408b0ce2daebab14dce8b51ae48",
    ),
    (2, 4, 1): (
        "d1ebea6a89ea932f3dfc88b81ab35e615c8d09f31cfb8d76fc9335d2744dc5c0",
        "1e59232800cae1eb46651edc72b020b2ccda5553d3e95c4434b0bdb4c3ac3988",
    ),
    (3, 4, 2): (
        "2f521ab7729d12b16265cbdab5eaea88eed7e52c759ed9e4a182d43f29cdccc4",
        "3e8564f7b3420138c0c15cc1fdb1fe828be2504bdeca41a937da231076ffd42b",
    ),
    (3, 6, 1): (
        "3d6c6938a852d469bb236ea6f908c5981c34d0d8c8a2d80fabafa2e794c8c12d",
        "29411738ef98d87fc2cca076a3e79d07606dcba95430ff3300be31a70c4b9228",
    ),
}


@pytest.mark.parametrize("shape", sorted(SPLIT_MERGE_SHA256), ids=lambda s: "%dx%d-row%d" % s)
def test_split_and_merge_schedules_keep_their_bytes(shape):
    rows, cols, row = shape
    lat = build_planar_patch(rows, cols)
    split = split_row(lat, row)
    _, mid = run_schedule(None, lat, split)
    merge = merge_rows(mid, sorted(set(mid.vertices) - set(lat.vertices)))
    assert (schedule_sha256(split), schedule_sha256(merge)) == SPLIT_MERGE_SHA256[shape]


def test_merge_of_a_canonical_ring_and_a_long_split_keep_their_bytes():
    lat = build_planar_patch(3, 4)
    merge = merge_rows(lat, [polar_vertex_id(4, 2, s) for s in range(4)])
    assert schedule_sha256(merge) == "1b06e74ef1b38cabbb983377f56458615aedb402a034e2d0e6b928ef8dc470d9"
    split = split_row(build_planar_patch(20, 64), 10)
    assert schedule_sha256(split) == "4c387c60c97a3735c1f34ce2e152c8060fb1871a13e0455abd7c9e7c632bcba0"


# ---- error paths --------------------------------------------------------------


def test_shear_rejects_non_canonical_lattices():
    with pytest.raises(MoveError):
        shear_step(build_theta_sphere(), 0, stride=1)
    with pytest.raises(MoveError):
        shear_step(build_honeycomb_torus(2, 2), 0, stride=1)


@pytest.mark.parametrize("swap", ["slots", "triangles"])
def test_shear_and_braid_reject_patches_with_swapped_ids(swap):
    """Endpoints all match the canonical patch, but two qubit slots or
    two triangle ids are swapped."""
    lat, cols, anyon = braid_arena(4)
    edges, triangles = dict(lat.edges), dict(lat.triangles)
    if swap == "slots":
        a, b = lat.edges[20], lat.edges[21]
        edges[20], edges[21] = Edge(a.v1, a.v2, b.qubit), Edge(b.v1, b.v2, a.qubit)
    else:
        triangles[20], triangles[21] = triangles[21], triangles[20]
    bad = SurfaceLattice(lat.topology, dict(lat.vertices), edges, triangles, lat.punctures)
    bad.check()
    with pytest.raises(MoveError, match="canonical patch layout"):
        shear_step(bad, anyon, stride=1)
    with pytest.raises(MoveError, match="canonical patch layout"):
        braid_schedule(bad, anyon, 0, steps=6)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda lat: merge_rows(lat, ["x"]), "rows_spec must list vertex ids, got ['x']"),
        (lambda lat: merge_rows(lat, [None]), "rows_spec must list vertex ids, got [None]"),
        (lambda lat: shear_step(lat, 0, stride="a"), "stride must be an integer, got 'a'"),
        (lambda lat: shear_step(lat, 0, stride=2.9), "stride must be an integer, got 2.9"),
        (lambda lat: shear_step(lat, 0, stride=1.0), "stride must be an integer, got 1.0"),
        (lambda lat: split_row(lat, 1.9), "row_spec must be a ring index, got 1.9"),
        (lambda lat: merge_rows(lat, [1.9, 2.9]), "rows_spec must list vertex ids, got [1.9, 2.9]"),
    ],
    ids=[
        "merge-str",
        "merge-none",
        "shear-stride-str",
        "shear-stride-2.9",
        "shear-stride-1.0",
        "split-1.9",
        "merge-1.9",
    ],
)
def test_non_integer_arguments_raise_move_error(build, message):
    """Floats are refused, not truncated to the integer below."""
    with pytest.raises(MoveError, match=f"^{re.escape(message)}$"):
        build(build_planar_patch(3, 4, punctures=[(0, 0)]))


def test_numpy_integer_arguments_are_accepted():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    assert shear_step(lat, 0, stride=np.int64(1)) == shear_step(lat, 0, stride=1)
    assert split_row(lat, np.uint8(1)) == split_row(lat, 1)
    _, mid = run_schedule(None, lat, split_row(lat, 1))
    ring = sorted(set(mid.vertices) - set(lat.vertices))
    assert merge_rows(mid, np.array(ring, dtype=np.int32)) == merge_rows(mid, ring)


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


def test_shear_rejects_two_sector_patches():
    # with 2 sectors the ring edges come in parallel pairs, and a
    # relabeling matched by edge id sent triangles to non-triangles
    lat = build_planar_patch(6, 2, punctures=[(0, 0), (2, 0)])
    anyon = polar_vertex_id(2, 2, 0)
    with pytest.raises(MoveError, match="4 sectors"):
        braid_schedule(lat, anyon, 0, steps=2)
    with pytest.raises(MoveError, match="4 sectors"):
        shear_step(lat, anyon, stride=1)


def test_baseline_path_validation():
    lat = build_planar_patch(4, 6, punctures=[(2, 0)])
    a = polar_vertex_id(6, 2, 0)
    with pytest.raises(MoveError, match="ring"):
        baseline_schedule(lat, a, [polar_vertex_id(6, 3, 0)])
    with pytest.raises(MoveError, match="adjacent"):
        baseline_schedule(lat, a, [polar_vertex_id(6, 2, 2)])
    with pytest.raises(MoveError, match="not on the lattice"):
        baseline_schedule(lat, a, [999])
    lat2 = build_planar_patch(4, 6, punctures=[(2, 0), (2, 2)])
    path = [polar_vertex_id(6, 2, 1), polar_vertex_id(6, 2, 2)]
    with pytest.raises(MoveError, match="puncture"):
        baseline_schedule(lat2, a, path)


def test_baseline_empty_path_is_identity():
    lat = build_planar_patch(4, 6, punctures=[(2, 0)])
    a = polar_vertex_id(6, 2, 0)
    sched = baseline_schedule(lat, a, [])
    assert sched.groups == ()
    assert sched.depth_report() == DepthReport(0, 0.0, 0)


def test_braid_preconditions():
    arena, cols, anyon = braid_arena(4)  # 6 rings of 12 sectors
    lat = build_planar_patch(6, cols, punctures=[(0, 0)])
    with pytest.raises(MoveError, match="two"):
        braid_schedule(lat, anyon, 0)
    both_out = build_planar_patch(6, cols, punctures=[(2, 0), (2, 6)])
    with pytest.raises(MoveError, match="center"):
        braid_schedule(both_out, polar_vertex_id(cols, 2, 0), polar_vertex_id(cols, 2, 6))
    with pytest.raises(MoveError, match="divide"):
        braid_schedule(arena, anyon, 0, steps=5)
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
    with pytest.raises(MoveError, match="overlap"):
        run_schedule(None, lat, MoveSchedule((MoveGroup(LOCAL, ((r0, r1),)),)))


def test_run_schedule_rejects_malformed_groups():
    lat = build_planar_patch(2, 4)
    _, rec = pachner_22(lat, 12)
    with pytest.raises(MoveError, match="exactly one"):
        run_schedule(None, lat, MoveSchedule((MoveGroup("PERMUTATION", ((rec, rec),)),)))
    with pytest.raises(MoveError, match="unknown group kind"):
        run_schedule(None, lat, MoveSchedule((MoveGroup("GLOBAL", ((rec,),)),)))


@pytest.mark.parametrize(
    "kind", [PERMUTATION, "T_MOVE"], ids=["permutation-record", "made-up-kind"]
)
def test_local_group_refuses_records_it_cannot_replay(kind):
    """A LOCAL group holds only F-move, 1-3 and 3-1 records; any other is
    refused when the group is built, alone or beside an F-move."""
    lat = build_planar_patch(3, 4)
    rec = apply_cpi(lat, {})[1] if kind == PERMUTATION else MoveRecord(kind, edge=12)
    flip = pachner_22(build_planar_patch(2, 4), 12)[1]
    for layers in (((rec,),), ((flip,), (rec,))):
        with pytest.raises(MoveError, match=f"local group cannot hold a '{kind}' record"):
            MoveGroup(LOCAL, layers)


@pytest.mark.parametrize("d", [4, 8])
def test_permutation_records_replay_from_their_vertex_maps(d):
    """Each relabeling of a braid and of a full-loop baseline, fed its
    record's vertex map on the lattice before it, derives the record's
    sigma; the walk closes on the starting lattice."""
    lat, cols, anyon = braid_arena(d)
    for sched in (braid_schedule(lat, anyon, 0, steps=6), baseline_schedule(lat, anyon, ring_path(cols, cols))):
        cur, seen = lat, 0
        for group in sched.groups:
            if group.kind == LOCAL:
                cur = run_schedule(None, cur, MoveSchedule((group,)))[1]
                continue
            (rec,) = group.records()
            assert rec.vmap.keys() == cur.vertices.keys()
            cur, again = apply_cpi(cur, rec.vmap, group.target)
            assert again.sigma == rec.sigma
            assert sorted(rec.sigma) == sorted(rec.sigma.values()) == group.target.qubit_slots()
            seen += 1
        assert seen == len(sched.groups) // 2
        assert cur.signature() == lat.signature()


# ---- structure at large distance ----------------------------------------------
#
# The builders build each distinct shear step once and repeat its group
# objects; these checks compare them with a fresh _shear on every step.


def stepwise_reference(lat, anyon, cols, hops):
    """Schedule and end lattice of one _shear per (direction, stride) hop,
    the anyon moving along its ring."""
    groups, cur = [], lat
    ring, sector = (anyon - 1) // cols + 1, (anyon - 1) % cols
    for direction, stride in hops:
        step, cur = _shear(cur, anyon, direction, stride)
        groups.extend(step.groups)
        sector += direction * stride
        anyon = polar_vertex_id(cols, ring, sector)
    return MoveSchedule(tuple(groups)), cur


@pytest.mark.parametrize("d", [32, 64])
def test_braid_structure_at_large_distance(d):
    lat, cols, anyon = braid_arena(d)
    sched = braid_schedule(lat, anyon, 0, steps=6)
    rep = sched.depth_report()
    assert sched.move_count() == 9 * d * d + 6
    assert (rep.local_depth, rep.total_steps, rep.permutation_range) == (4, 12, d / 2)
    circ = compile_schedule(lat, sched)
    assert circ.gate_count() == 7 * 9 * d * d
    assert circ.depth() == 6 * 4 * 7
    # one flip group and one rotation group, repeated by all six steps
    assert all(g is sched.groups[i % 2] for i, g in enumerate(sched.groups))
    _, end = run_schedule(None, lat, sched)
    assert end.signature() == lat.signature()
    ref, ref_end = stepwise_reference(lat, anyon, cols, [(-1, cols // 6)] * 6)
    assert sched == ref
    assert (ref_end.version, ref_end.signature()) == (end.version, end.signature())


@pytest.mark.parametrize("d", [32, 64])
def test_baseline_with_turns_at_large_distance(d):
    lat, cols, anyon = braid_arena(d)
    # two hops clockwise, then three back: two distinct steps
    path = [polar_vertex_id(cols, 2, s) for s in (-1, -2, -1, 0, 1)]
    sched = baseline_schedule(lat, anyon, path)
    ref, _ = stepwise_reference(lat, anyon, cols, [(-1, 1)] * 2 + [(1, 1)] * 3)
    assert sched == ref
    groups = sched.groups
    assert groups[0] is groups[2] and groups[4] is groups[6] is groups[8]
    assert groups[1] is groups[3] and groups[5] is groups[7] is groups[9]
    assert groups[0] is not groups[4]
    assert compile_schedule(lat, sched) == compile_schedule(lat, ref)


# ---- states through schedules -------------------------------------------------


def test_shear_preserves_code_states():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    st = ground_state(lat)
    sched = shear_step(lat, 0, direction=-1, stride=1)
    out, out_lat = run_schedule(st, lat, sched, data=DATA, assert_code_space=True)
    assert out_lat.signature() == lat.signature()
    assert abs(out.norm() - 1.0) < 1e-10
    back = ground_project(out, out_lat, DATA)
    assert diff_norm(out_lat, back, out) < 1e-10


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


def matrix_sha(u):
    """sha256 of a logical action's bytes; the pins in the shear tests
    were taken before logical_action built its basis with code_space."""
    assert u.dtype == np.complex128 and u.flags.c_contiguous
    return hashlib.sha256(u.tobytes()).hexdigest()


def test_fused_stride_matches_sequential_strides():
    """One stride-2 shear equals two stride-1 shears on the logical level."""
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    basis = code_space(lat, DATA, max_seeds=6)
    assert len(basis) == 2
    fused = shear_step(lat, 0, direction=-1, stride=2)
    one = shear_step(lat, 0, direction=-1, stride=1)
    _, mid = run_schedule(None, lat, one)
    pair = one.then(shear_step(mid, 0, direction=-1, stride=1))
    u_fused = logical_action(fused, lat, data=DATA, basis=basis)
    u_pair = logical_action(pair, lat, data=DATA, basis=basis)
    assert np.max(np.abs(u_fused - u_pair)) < 1e-8
    assert matrix_sha(u_fused) == "96a99f5f6743790bef1120db890f0d4854ed34204219270b678bbdea2d428bc6"
    assert matrix_sha(u_pair) == "308136c78d3987f89651ba2b83583d23cfa3bfa815298295ad93aab3f10528f0"


def test_there_and_back_shear_acts_trivially():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    basis = code_space(lat, DATA, max_seeds=6)
    fwd = shear_step(lat, 0, direction=1, stride=1)
    _, mid = run_schedule(None, lat, fwd)
    loop = fwd.then(shear_step(mid, 0, direction=-1, stride=1))
    u = logical_action(loop, lat, data=DATA, basis=basis)
    assert np.max(np.abs(u - np.eye(2))) < 1e-8
    assert matrix_sha(u) == "71eba3a9ab05a7a6bbb624033cdf20e5de462cb8991e3dd1affe198f4851783e"


def test_logical_action_identity_and_unitarity_guard():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    basis = code_space(lat, DATA, max_seeds=6)
    u = logical_action(MoveSchedule(()), lat, data=DATA, basis=basis)
    assert np.max(np.abs(u - np.eye(len(basis)))) < 1e-12

    def lossy(state, dlat):
        return make_state(dlat, state.configs, 0.5 * state.amps), dlat

    with pytest.raises(MoveError, match="unitary"):
        logical_action(lossy, lat, data=DATA, basis=basis)


def test_logical_action_matches_pairwise_overlaps():
    """The aligned product gives inner(basis[i], output j) for every pair,
    and a basis bound to another lattice version is refused."""
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    b0, b1 = code_space(lat, DATA, max_seeds=6)
    basis = [b0, replace(b1, amps=b1.amps * np.exp(0.7j))]  # complex, so a missing conjugate shows
    rot = np.array([[0.6, -0.8j], [-0.8j, 0.6]])

    def mix(state, dlat):
        """The rotation rot on the span of the basis."""
        coeff = rot @ np.array([inner(b, state) for b in basis])
        cfg = np.concatenate([b.configs for b in basis])
        return make_state(dlat, cfg, np.concatenate([c * b.amps for c, b in zip(coeff, basis)])), dlat

    u = logical_action(mix, lat, data=DATA, basis=basis)
    want = np.array([[inner(bi, mix(bj, lat)[0]) for bj in basis] for bi in basis])
    assert np.max(np.abs(u - want)) < 1e-14
    assert np.max(np.abs(u - rot)) < 1e-12
    moved = replace_lattice(lat, version=lat.version + 1)
    with pytest.raises(VersionError):
        logical_action(lambda st, dlat: (rebind_state(st, dlat), dlat), moved, data=DATA, basis=basis)


def test_code_space_basis_above_dimension_eight():
    # 28 qubits, 29 375 valid configs: the seeded path; the default 24
    # seeds find only 14 of the 15 states (CHANGES.md), so use 48
    lat = build_planar_patch(3, 4, punctures=[(0, 0), (2, 0), (2, 2)])
    assert code_space_dim(lat, DATA, max_seeds=48) == 15
    basis = code_space(lat, DATA, max_seeds=48)
    gram = np.array([[inner(a, b) for b in basis] for a in basis])
    assert len(basis) == 15
    assert np.max(np.abs(gram - np.eye(15))) < 1e-12


def test_logical_action_refuses_an_empty_basis():
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    with pytest.raises(MoveError, match="encoded dimension is 0"):
        logical_action(MoveSchedule(()), lat, data=DATA, basis=[])


def test_logical_action_checks_the_basis_before_any_replay():
    """A basis bound to another version is refused before the protocol
    runs once."""
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    basis = code_space(lat, DATA, max_seeds=6)
    calls = []

    def spy(state, dlat):
        calls.append(state)
        return state, dlat

    moved = replace_lattice(lat, version=lat.version + 1)
    with pytest.raises(VersionError, match="bound to the protocol's lattice"):
        logical_action(spy, moved, data=DATA, basis=basis)
    assert calls == []
    assert logical_action(spy, lat, data=DATA, basis=basis).shape == (2, 2) and len(calls) == 2


def test_logical_action_guards_lattice_size():
    lat = build_planar_patch(5, 12, punctures=[(0, 0)])
    with pytest.raises(MoveError, match="dense limit"):
        logical_action(MoveSchedule(()), lat, data=DATA)


def test_logical_action_rejects_open_protocols():
    # a bare split does not return to the starting lattice
    lat = build_planar_patch(2, 4)
    basis = code_space(lat, DATA, max_seeds=4)
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
    lat, _, anyon = braid_arena(4)
    rep = braid_schedule(lat, anyon, 0, steps=6).depth_report()
    assert rep.to_jsonable() == {"local_depth": 4, "permutation_range": 2.0, "total_steps": 12}


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
    sched = braid_schedule(lat, a, 0, steps=4, data=DATA)
    out, out_lat = run_schedule(st, lat, sched, data=DATA)
    rep = sched.depth_report()
    assert out_lat.signature() == lat.signature()
    assert abs(out.norm() - 1.0) < 1e-9
    assert rep.local_depth <= 2 and rep.total_steps == 8
    out = rebind_state(out, lat)
    # replaying the same schedule is deterministic
    sched = braid_schedule(lat, a, 0, steps=4)
    again, _ = run_schedule(st, lat, sched, data=DATA)
    again = rebind_state(again, lat)
    assert diff_norm(lat, out, again) < 1e-12


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


def braid_then_baseline_back(draws, min_support):
    """Braid forward and the baseline back on the 5x4 two-puncture patch
    (the state_loop benchmark's loop) from a star state; the loop must
    give back the same support and state."""
    lat = build_planar_patch(5, 4, punctures=[(0, 0), (2, 0)])
    anyon = polar_vertex_id(4, 2, 0)
    sched = braid_schedule(lat, anyon, 0, steps=4, data=DATA)
    flips = [r for g in sched.groups for r in g.records() if r.kind == F_MOVE]
    assert any(-1 not in r.qubits for r in flips)

    start = star_state(lat, np.random.default_rng(11), draws)
    assert len(start.configs) > min_support
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


def test_braid_then_baseline_back_with_unpinned_fmoves():
    """On the 5x4 two-puncture patch the braid's flips have no pinned
    leg, so the golden F-block acts; the baseline must undo the braid on
    a generic valid state, not only on classical relabelings."""
    braid_then_baseline_back(4000, 2000)


def test_braid_then_baseline_back_from_a_large_star_state():
    """The same loop from more than 3e4 configs (about 1.6e5 mid-loop),
    so the sorted-run merges and grouped shifts run at scale."""
    braid_then_baseline_back(40000, 30000)


# ---- relabelings with and without a state -------------------------------------------


def star_loop(rows, cols, steps):
    """The two-puncture patch, a star state on it, and its braid at steps."""
    lat = build_planar_patch(rows, cols, punctures=[(0, 0), (2, 0)])
    sched = braid_schedule(lat, polar_vertex_id(cols, 2, 0), 0, steps=steps)
    return lat, star_state(lat, np.random.default_rng(13), 200), sched


def relabeling_case(name):
    """(lattice, state, schedule). The braid of `braid --distance 4
    --compare-baseline` (4x4 patch, steps 4), the braid at steps 6 on
    the 4x6 patch (60 qubits, the widest six-sector patch a state fits),
    the 4x4 baseline loop, and a split followed by a merge. The d = 4
    arena itself has 192 qubit slots, past the 64-bit configs."""
    if name == "braid steps 4":
        return star_loop(4, 4, 4)
    if name == "braid steps 6":
        return star_loop(4, 6, 6)
    if name == "baseline loop":
        lat, state, _ = star_loop(4, 4, 4)
        return lat, state, baseline_schedule(lat, polar_vertex_id(4, 2, 0), ring_path(4, 4))
    lat = build_planar_patch(3, 4)
    split = split_row(lat, 1)
    _, mid = run_schedule(None, lat, split)
    merge = merge_rows(mid, sorted(set(mid.vertices) - set(lat.vertices)))
    return lat, star_state(lat, np.random.default_rng(17), 200), split.then(merge)


@pytest.mark.parametrize("name", ["braid steps 4", "braid steps 6", "baseline loop", "split then merge"])
def test_replay_ends_alike_with_and_without_a_state(name):
    lat, state, sched = relabeling_case(name)
    _, bare = run_schedule(None, lat, sched)
    got, with_state = run_schedule(state, lat, sched, data=DATA)
    assert bare.signature() == with_state.signature()
    assert bare.version == with_state.version == lat.version + sched.move_count()
    assert bare.punctures == with_state.punctures
    assert (got.lattice_version, got.sig_key) == (with_state.version, hash(with_state.signature()))
    assert moves_bits(sched) == (name != "split then merge")


def test_replay_refuses_a_state_of_another_version_at_a_relabeling():
    lat, _, shear = sheared_patch()
    flips, rotation = shear.groups
    _, cur = run_schedule(None, lat, MoveSchedule((flips,)))
    stale = make_delta_state(replace_lattice(cur, version=cur.version + 1), 0)
    with pytest.raises(VersionError):
        run_schedule(stale, cur, MoveSchedule((rotation,)))


# ---- deferred relabelings ---------------------------------------------------------


def eager_replay(state, lat, schedule):
    """The schedule record by record through the public kernels, every
    relabeling moving the bits at once."""
    for group in schedule.groups:
        for rec in group.records():
            if rec.kind == F_MOVE:
                state, lat = apply_fmove(state, lat, rec.edge, DATA)
            elif rec.kind == PERMUTATION:
                state, lat = apply_state_permutation(state, lat, rec.vmap, target=group.target)
            elif rec.kind == PACHNER_13:
                state, lat = apply_pachner13(state, lat, rec.triangles[0], DATA)
            else:
                state, lat = apply_pachner31(state, lat, rec.vertex, DATA)
    return state, lat


def assert_replays_alike(state, lat, schedule, block=None, **kwargs):
    """run_schedule's arrays equal the eager replay's, bit for bit; with
    block set, run_schedule cuts its F-moves into blocks of that many
    configs."""
    want, want_lat = eager_replay(state, lat, schedule)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(statevec, "FMOVE_BLOCK", block)
        got, got_lat = run_schedule(state, lat, schedule, data=DATA, **kwargs)
    assert got_lat.signature() == want_lat.signature()
    assert (got.lattice_version, got.sig_key, got.tolerance) == (
        want.lattice_version,
        want.sig_key,
        want.tolerance,
    )
    assert np.array_equal(got.configs, want.configs)
    assert np.array_equal(got.amps.view(np.uint64), want.amps.view(np.uint64))
    return got, got_lat


def moves_bits(schedule):
    """Whether some relabeling of the schedule moves a qubit slot."""
    return any(
        any(s != t for s, t in rec.sigma.items())
        for rec in schedule.records()
        if rec.kind == PERMUTATION
    )


def test_deferred_relabelings_match_eager_replay_on_the_loop():
    """The state_loop benchmark's braid and baseline back on the 5x4
    patch, with F-move blocks of 64 configs on the deferred side."""
    lat = build_planar_patch(5, 4, punctures=[(0, 0), (2, 0)])
    anyon = polar_vertex_id(4, 2, 0)
    start = star_state(lat, np.random.default_rng(5), 3000)
    sched = braid_schedule(lat, anyon, 0, steps=4)
    assert moves_bits(sched)
    mid, mid_lat = assert_replays_alike(start, lat, sched, block=64)
    assert mid.nnz() > 20 * 64
    back = baseline_schedule(mid_lat, anyon, ring_path(4, 4, direction=1))
    assert_replays_alike(mid, mid_lat, back, block=64)


@functools.lru_cache(maxsize=None)
def sheared_patch():
    """The one-puncture 3x4 patch, a ground state on it, and one shear."""
    lat = build_planar_patch(3, 4, punctures=[(0, 0)])
    return lat, ground_state(lat), shear_step(lat, 0, direction=-1, stride=1)


def test_deferred_relabelings_materialize_at_pachner_moves():
    """A shear, a split and a merge of the next row, and a shear: the
    1-3 and 3-1 moves see the bits moved home."""
    lat, _, shear = sheared_patch()
    state = random_valid_state(lat, np.random.default_rng(3), support=50, data=DATA)
    _, cur = run_schedule(None, lat, shear)
    split = split_row(cur, 1)
    _, mid = run_schedule(None, cur, split)
    merge = merge_rows(mid, sorted(set(mid.vertices) - set(cur.vertices)))
    _, cur = run_schedule(None, mid, merge)
    sched = shear.then(split).then(merge).then(shear_step(cur, 0, direction=-1, stride=1))
    assert moves_bits(shear)
    assert_replays_alike(state, lat, sched)


def test_deferred_relabelings_materialize_for_code_space_checks():
    lat, ground, shear = sheared_patch()
    _, cur = run_schedule(None, lat, shear)
    sched = shear.then(shear_step(cur, 0, direction=-1, stride=1))
    assert_replays_alike(ground, lat, sched, assert_code_space=True)


def test_deferred_relabeling_drops_small_amplitudes_where_it_stands():
    """An amplitude below the tolerance goes at the relabeling, before
    the next F-move could add it to its partner's term."""
    lat, _, shear = sheared_patch()
    flips, rotation = shear.groups
    _, cur = run_schedule(None, lat, MoveSchedule((flips,)))
    _, after = run_schedule(None, cur, MoveSchedule((rotation,)))
    rec = next(r for r in shear_step(after, 0, direction=-1, stride=1).records() if -1 not in r.qubits)
    sched = MoveSchedule((rotation, MoveGroup(LOCAL, ((rec,),))))
    # two configs after the relabeling: every leg of the flip tau, its edge either way
    pos = bit_positions(after)
    legs = sum(1 << pos[e] for e in pachner_22(after, rec.edge)[1].legs)
    flag = 1 << pos[rec.edge]
    there = make_state(after, np.array([legs, legs | flag], dtype=np.uint64), np.array([1e-4, 0.6]))
    (perm,) = rotation.records()
    inverse = {v: u for u, v in perm.vmap.items()}
    back, _ = apply_state_permutation(there, after, inverse, target=cur)
    state = replace(rebind_state(back, cur), tolerance=1e-3)
    got, _ = assert_replays_alike(state, cur, sched)
    assert got.nnz() == 2
    # kept to the F-move, the small term would change the sums
    kept, _ = eager_replay(replace(state, tolerance=0.0), cur, sched)
    assert not np.array_equal(kept.amps, got.amps)
