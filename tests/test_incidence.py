"""Kept incidence maps and one-copy replay.

Every lattice keeps its edge -> triangles and vertex -> edges maps, and
each rewrite updates a copy at the entries it touched; plaquettes are
kept as they are first asked for, and a relabeling onto a target shares
the target's. These tests walk random rewrites and compare the kept
maps and plaquettes with a from-scratch rebuild after every step, and
after every flip of a braid's build and of its replay, check that no
earlier version changes, and check that
replaying local moves on one private copy equals replaying them one
move at a time.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvq import gadgets, lattice
from tvq.gadgets import (
    LOCAL,
    baseline_schedule,
    braid_arena,
    braid_schedule,
    merge_rows,
    run_schedule,
    split_row,
)
from tvq.lattice import (
    F_MOVE,
    PACHNER_13,
    PACHNER_31,
    PERMUTATION,
    Edge,
    MoveError,
    MoveRecord,
    SurfaceLattice,
    apply_cpi,
    build_honeycomb_torus,
    build_planar_patch,
    build_tetra_sphere,
    pachner_13,
    pachner_22,
    pachner_31,
    polar_vertex_id,
    replace_lattice,
    replay_moves,
)

LATTICES = {
    "tetra": build_tetra_sphere,
    "torus": lambda: build_honeycomb_torus(2, 2),
    "patch": lambda: build_planar_patch(3, 4, punctures=[(1, 0)]),
}


def rebuilt(lat):
    """The same lattice with no kept maps, so every map is scanned anew."""
    return SurfaceLattice(
        lat.topology, dict(lat.vertices), dict(lat.edges), dict(lat.triangles), lat.punctures, lat.version
    )


def assert_maps_current(lat):
    fresh = rebuilt(lat)
    assert lat.edge_triangles() == fresh.edge_triangles()
    assert lat.vertex_edges() == fresh.vertex_edges()
    # kept plaquettes, those carried from other lattices included, then all
    for v, plq in list(lat._plaquettes.items()):
        assert plq == fresh.plaquette(v)
    for v in lat.vertices:
        assert lat.plaquette(v) == fresh.plaquette(v)


def shuffled_slots(lat, pick):
    """A copy of lat with its qubit slots rotated, and the slot map onto it.

    The identity vertex map carries lat onto the copy, and the slot map
    is the one that relabeling derives."""
    slots = lat.qubit_slots()
    shift = pick % len(slots)
    moved = dict(zip(slots, slots[shift:] + slots[:shift]))
    edges = {
        e: rec if rec.qubit is None else Edge(rec.v1, rec.v2, moved[rec.qubit])
        for e, rec in lat.edges.items()
    }
    target = SurfaceLattice(lat.topology, dict(lat.vertices), edges, dict(lat.triangles), lat.punctures)
    target.check()  # builds the target's maps, which apply_cpi passes on
    target.plaquette_vertices()  # and fills its plaquettes, passed on too
    return moved, target


def step(lat, kind, pick):
    """One rewrite: (new lattice, its record)."""
    if kind == "22":
        return pachner_22(lat, sorted(lat.edges)[pick % len(lat.edges)])
    if kind == "13":
        return pachner_13(lat, sorted(lat.triangles)[pick % len(lat.triangles)])
    if kind == "31":
        ve = lat.vertex_edges()
        cubic = sorted(v for v in lat.vertices if len(ve[v]) == 3) or sorted(lat.vertices)
        return pachner_31(lat, cubic[pick % len(cubic)])
    moved, target = shuffled_slots(lat, pick)
    out, rec = apply_cpi(lat, {}, target=target)
    assert rec.sigma == moved
    return out, rec


def assert_record_slots(lat, rec):
    """A record's qubit slots are those of its edges on the pre-move lattice."""

    def slots(edge_ids):
        return tuple(-1 if lat.edges[e].pinned else lat.edges[e].qubit for e in edge_ids)

    if rec.kind == F_MOVE:
        assert rec.qubits == slots((rec.edge,) + rec.legs)
    elif rec.kind == PERMUTATION:
        assert rec.qubits == ()
    else:
        assert rec.qubits == slots(rec.legs)
    if rec.kind == PACHNER_31:
        assert rec.released_slots == slots(rec.new_edges)


def lattice_read_slots(lat, rec):
    """Qubit slots a move touches, read from the pre-move lattice."""

    def slots_of(edge_ids):
        return {lat.edges[e].qubit for e in edge_ids if lat.edges[e].qubit is not None}

    if rec.kind == F_MOVE:
        return slots_of((rec.edge,) + rec.legs)
    if rec.kind == PACHNER_13:
        return slots_of(rec.legs) | set(rec.new_slots)
    if rec.kind == PACHNER_31:
        # new_edges here are the spokes the move removes; they exist now
        return slots_of(rec.legs + rec.new_edges)
    return set(rec.sigma) | set(rec.sigma.values())


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(LATTICES)),
    moves=st.lists(
        st.tuples(st.sampled_from(["22", "13", "31", "cpi"]), st.integers(0, 10**6)),
        min_size=1,
        max_size=10,
    ),
)
def test_kept_maps_match_a_rebuild(name, moves):
    lat = LATTICES[name]()
    history = [(lat, lat.signature(), lat.version)]
    for kind, pick in moves:
        try:
            nxt, rec = step(lat, kind, pick)
        except MoveError:
            pass  # a rejected move must leave its input untouched, checked below
        else:
            assert_record_slots(lat, rec)
            assert rec.slots() == lattice_read_slots(lat, rec)
            lat = nxt
        assert_maps_current(lat)
        history.append((lat, lat.signature(), lat.version))
    for old, sig, version in history:
        assert old.signature() == sig and old.version == version
        assert_maps_current(old)


def test_kept_maps_match_a_rebuild_after_every_flip_of_a_braid(monkeypatch):
    lat, _, anyon = braid_arena(8)
    flips = []

    def checked_flip(cur, edge_id):
        rec = real_flip(cur, edge_id)
        # checked on a fork, so that the rewritten copy keeps no plaquettes
        assert_maps_current(cur._fork())
        flips.append(rec)
        return rec

    real_flip = lattice._flip
    monkeypatch.setattr(gadgets, "_flip", checked_flip)
    monkeypatch.setattr(lattice, "_flip", checked_flip)
    sched = braid_schedule(lat, anyon, 0, steps=6)
    assert len(flips) == 96  # one shear step of stride 4 over 24 sectors, built once
    end = run_schedule(None, lat, sched)[1]
    assert len(flips) == 96 + sched.move_count() - 6
    assert end.signature() == lat.signature()
    assert_maps_current(end)


def test_replace_lattice_keeps_plaquettes_only_for_the_same_complex():
    lat = build_planar_patch(3, 4)
    lat.plaquette_vertices()
    flipped = pachner_22(lat, 24)[0]  # a diagonal
    moved = replace_lattice(lat, edges=flipped.edges, triangles=flipped.triangles)
    assert_maps_current(moved)
    assert [moved.plaquette(v) for v in moved.vertices] == [flipped.plaquette(v) for v in moved.vertices]
    assert replace_lattice(lat, punctures=[0])._plaquettes is lat._plaquettes


def replay_per_move(lat, schedule):
    cur = lat
    for group in schedule.groups:
        for rec in group.records():
            if group.kind == LOCAL:
                cur = replay_moves(cur, (rec,))
            else:
                cur = apply_cpi(cur, rec.vmap, target=group.target)[0]
    return cur


def assert_same_end(lat, schedule):
    one_copy = run_schedule(None, lat, schedule)[1]
    per_move = replay_per_move(lat, schedule)
    assert one_copy.signature() == per_move.signature()
    assert one_copy.version == per_move.version == lat.version + schedule.move_count()
    assert one_copy.vertices == per_move.vertices
    assert_maps_current(one_copy)


def test_layer_replay_equals_per_move_replay_on_braid_and_baseline():
    cols = 12
    lat = build_planar_patch(6, cols, punctures=[(0, 0), (2, 0)])
    anyon = polar_vertex_id(cols, 2, 0)
    assert_same_end(lat, braid_schedule(lat, anyon, 0, steps=6))
    path = [polar_vertex_id(cols, 2, -(i + 1) % cols) for i in range(3)]
    assert_same_end(lat, baseline_schedule(lat, anyon, path))


def test_layer_replay_equals_per_move_replay_on_split_and_merge():
    lat = build_planar_patch(3, 4)
    split = split_row(lat, 1)
    assert_same_end(lat, split)
    mid = run_schedule(None, lat, split)[1]
    fresh = [rec.vertex for rec in split.groups[0].layers[0]]
    merge = merge_rows(mid, fresh)
    assert_same_end(mid, merge)
    assert run_schedule(None, mid, merge)[1].signature() == lat.signature()


def builder_input(name):
    """(lattice, build) for split_row, the merge that undoes it and the
    merge of a canonical ring."""
    lat = build_planar_patch(3, 4)
    if name == "split":
        return lat, lambda cur: split_row(cur, 1)
    if name == "merge split":
        mid = run_schedule(None, lat, split_row(lat, 1))[1]
        fresh = sorted(set(mid.vertices) - set(lat.vertices))
        return mid, lambda cur: merge_rows(cur, fresh)
    return lat, lambda cur: merge_rows(cur, [polar_vertex_id(4, 2, s) for s in range(4)])


@pytest.mark.parametrize("name", ["split", "merge split", "merge ring"])
def test_row_builders_leave_their_input_unchanged(name):
    """split_row and merge_rows rewrite one private copy: the input keeps
    its signature, version and vertices, and its kept maps still equal a
    rebuild."""
    lat, build = builder_input(name)
    sig, version, vertices = lat.signature(), lat.version, dict(lat.vertices)
    sched = build(lat)
    assert sched.move_count() > 0
    assert lat.signature() == sig and lat.version == version and lat.vertices == vertices
    assert_maps_current(lat)


def test_failed_layer_replay_leaves_the_input_untouched():
    lat = build_planar_patch(3, 4)
    sig = lat.signature()
    inner = next(e for e, rec in sorted(lat.edges.items()) if not rec.pinned and 0 not in rec.endpoints())
    pinned = next(e for e, rec in sorted(lat.edges.items()) if rec.pinned)
    recs = [MoveRecord(F_MOVE, edge=inner), MoveRecord(F_MOVE, edge=pinned)]
    with pytest.raises(MoveError, match="pinned"):
        replay_moves(lat, recs)
    assert lat.signature() == sig and lat.version == 0
    assert_maps_current(lat)

