"""Builders, Pachner rewrites, permutations, serialization."""

import dataclasses

import pytest

from tvq.lattice import (
    Edge,
    MoveError,
    apply_cpi,
    build_honeycomb_torus,
    build_planar_patch,
    build_tetra_sphere,
    build_theta_sphere,
    isomorphism_check,
    lattice_from_json,
    lattice_to_json,
    pachner_13,
    pachner_22,
    pachner_31,
    polar_vertex_id,
    replace_lattice,
    replay_moves,
)


def test_theta_sphere_shape():
    lat = build_theta_sphere()
    assert len(lat.edges) == 3
    assert len(lat.triangles) == 2  # dual vertices
    assert lat.euler_characteristic() == 2
    assert lat.qubit_slots() == [0, 1, 2]


def test_theta_plaquettes_are_bigons():
    lat = build_theta_sphere()
    for v in lat.vertices:
        plq = lat.plaquette(v)
        assert plq is not None
        assert len(plq.boundary) == 2
        assert len(plq.legs) == 2


def test_tetra_sphere_shape():
    lat = build_tetra_sphere()
    assert (len(lat.vertices), len(lat.edges), len(lat.triangles)) == (4, 6, 4)
    assert lat.euler_characteristic() == 2
    for v in lat.vertices:
        plq = lat.plaquette(v)
        assert plq is not None and len(plq.boundary) == 3


def test_honeycomb_torus_counts():
    lat = build_honeycomb_torus(2, 2)
    assert len(lat.triangles) == 8  # dual trivalent vertices
    assert len(lat.edges) == 12
    assert len(lat.plaquette_vertices()) == 4
    assert lat.euler_characteristic() == 0
    assert len(build_honeycomb_torus(3, 2).edges) == 18


def test_honeycomb_torus_rejects_degenerate_sizes():
    with pytest.raises(MoveError):
        build_honeycomb_torus(1, 1)
    with pytest.raises(MoveError):
        build_honeycomb_torus(2, 1)


def test_planar_patch_disk():
    lat = build_planar_patch(6, 6, [(2, 2), (2, 4)])
    assert lat.euler_characteristic() == 1
    assert len(lat.punctures) == 2
    assert lat.topology == "disk"


def test_planar_patch_no_punctures():
    lat = build_planar_patch(4, 4, [])
    assert lat.punctures == frozenset()
    # every interior vertex carries a plaquette: center + 3 rings of 4
    assert len(lat.plaquette_vertices()) == 13


def test_planar_patch_rejects_adjacent_punctures():
    with pytest.raises(MoveError):
        build_planar_patch(6, 6, [(2, 2), (2, 3)])


def test_planar_patch_reads_punctures_from_a_generator():
    # the punctures are read once, so an iterator is not taken for duplicates
    want = build_planar_patch(5, 4, punctures=[(0, 0), (2, 0)])
    lat = build_planar_patch(5, 4, punctures=((r, s) for r, s in [(0, 0), (2, 0)]))
    assert lat.punctures == want.punctures
    assert lat.signature() == want.signature()
    with pytest.raises(MoveError, match="duplicate"):
        build_planar_patch(5, 4, punctures=iter([(2, 0), (2, 0)]))


def test_planar_patch_qubit_count():
    m, n = 4, 4
    lat = build_planar_patch(m, n, [])
    assert len(lat.qubit_slots()) == n * (3 * m - 2)
    # outer ring edges are pinned
    pinned = [e for e, rec in lat.edges.items() if rec.pinned]
    assert len(pinned) == n


def test_planar_patch_boundary_is_outer_ring():
    lat = build_planar_patch(3, 5, [])
    boundary = lat.boundary_edge_ids()
    assert boundary == {e for e, rec in lat.edges.items() if rec.pinned}


def test_flip_conserves_counts_and_restores():
    lat = build_tetra_sphere()
    counts = (len(lat.vertices), len(lat.edges), len(lat.triangles))
    flipped, rec = pachner_22(lat, 0)
    assert (len(flipped.vertices), len(flipped.edges), len(flipped.triangles)) == counts
    assert flipped.version == lat.version + 1
    back, _ = pachner_22(flipped, 0)
    assert isomorphism_check(back, lat) is not None
    assert rec.kind == "F_MOVE"
    assert rec.edge == 0 and len(rec.legs) == 4


def test_flip_rejects_theta_sphere():
    lat = build_theta_sphere()
    with pytest.raises(MoveError):
        pachner_22(lat, 0)


def test_flip_rejects_boundary_and_pinned():
    lat = build_planar_patch(3, 4, [])
    pinned = min(e for e, rec in lat.edges.items() if rec.pinned)
    with pytest.raises(MoveError):
        pachner_22(lat, pinned)


def test_flip_rejects_puncture_corner():
    lat = build_planar_patch(4, 4, [(2, 1)])
    # diagonal (2,0)-(3,1) has quad corner (2,1): must be refused
    u = polar_vertex_id(4, 2, 0)
    v = polar_vertex_id(4, 3, 1)
    e = lat.edge_between(u, v)
    with pytest.raises(MoveError):
        pachner_22(lat, e)


def test_pachner13_counts_and_inverse():
    lat = build_tetra_sphere()
    split, rec = pachner_13(lat, 0)
    assert len(split.vertices) == len(lat.vertices) + 1
    assert len(split.edges) == len(lat.edges) + 3
    assert len(split.triangles) == len(lat.triangles) + 2
    assert split.euler_characteristic() == lat.euler_characteristic()
    assert len(rec.new_slots) == 3
    merged, rec31 = pachner_31(split, rec.vertex)
    assert isomorphism_check(merged, lat) is not None
    assert rec31.released_slots == rec.new_slots


def test_new_slots_exceed_existing():
    lat = build_tetra_sphere()
    split, rec = pachner_13(lat, 2)
    assert min(rec.new_slots) > max(lat.qubit_slots())


def test_pachner31_rejects_wrong_degree():
    lat, _ = pachner_13(build_tetra_sphere(), 0)
    # subdividing face 0 raises its corners to degree 4
    with pytest.raises(MoveError):
        pachner_31(lat, 0)


def test_pachner31_on_tetra_apex():
    # every tetrahedron vertex is removable: result is the 2-triangle sphere
    lat = build_tetra_sphere()
    out, _ = pachner_31(lat, 3)
    assert (len(out.vertices), len(out.edges), len(out.triangles)) == (3, 3, 2)
    assert isomorphism_check(out, build_theta_sphere()) is not None


def test_pachner13_rejects_puncture_corner():
    lat = build_planar_patch(4, 4, [(1, 0)])
    p = polar_vertex_id(4, 1, 0)
    touching = [t for t, es in lat.triangles.items() if any(p in lat.edges[e].endpoints() for e in es)]
    with pytest.raises(MoveError):
        pachner_13(lat, touching[0])


def test_cpi_identity():
    lat = build_planar_patch(3, 4, [])
    out, rec = apply_cpi(lat, {})
    assert out.signature() == lat.signature()


def test_cpi_rotation_accepted():
    n = 6
    lat = build_planar_patch(3, n, [(1, 0)])
    vmap = {0: 0}
    for r in range(1, 4):
        for s in range(n):
            vmap[polar_vertex_id(n, r, s)] = polar_vertex_id(n, r, s + 1)
    out, rec = apply_cpi(lat, vmap)
    assert out.punctures == frozenset({polar_vertex_id(n, 1, 1)})
    assert rec.vmap == vmap
    # sigma sends each qubit edge to the edge between its image endpoints
    for e, edge in lat.edges.items():
        if not edge.pinned:
            img = lat.slot_edge_map()[rec.sigma[edge.qubit]]
            assert lat.edges[img].endpoints() == {vmap[edge.v1], vmap[edge.v2]}


def test_cpi_rejects_distant_transposition():
    # swapping a ring-1 vertex with a far ring-3 vertex tears the edge map
    lat = build_planar_patch(3, 6, [])
    u, w = polar_vertex_id(6, 1, 0), polar_vertex_id(6, 3, 3)
    with pytest.raises(MoveError, match="has no image under the vertex map"):
        apply_cpi(lat, {u: w, w: u})


def test_cpi_rejects_a_target_of_another_size():
    lat = build_planar_patch(3, 4, [])
    edges = dict(lat.edges)
    del edges[max(edges)]
    target = replace_lattice(lat, edges=edges)
    with pytest.raises(MoveError, match="different number of edges or triangles"):
        apply_cpi(lat, {}, target=target)
    with pytest.raises(MoveError, match="different number of edges or triangles"):
        apply_cpi(target, {}, target=lat)


def test_cpi_counts_triangles_that_share_all_their_edges():
    # the theta sphere's two triangles hold the same three edges, so
    # each relabeling must find that triple twice among the targets
    lat = build_theta_sphere()
    out, rec = apply_cpi(lat, {})
    assert out.signature() == lat.signature()
    assert rec.sigma == {0: 0, 1: 1, 2: 2}
    out, rec = apply_cpi(lat, {0: 1, 1: 0})
    assert out.signature() == lat.signature()
    assert rec.sigma == {0: 0, 1: 2, 2: 1}


def test_cpi_rejects_relabelings_that_scramble_triangles():
    # the 2x2 torus has parallel edges; matched by id, the unit shifts
    # send every edge to an edge but no triangle to a triangle
    lat = build_honeycomb_torus(2, 2)
    for (di, dj), ok in (((1, 0), False), ((0, 1), False), ((1, 1), True)):
        vmap = {i + 2 * j: (i + di) % 2 + 2 * ((j + dj) % 2) for i in range(2) for j in range(2)}
        if ok:
            apply_cpi(lat, vmap)
        else:
            with pytest.raises(MoveError, match="triangle"):
                apply_cpi(lat, vmap)


def test_cpi_requires_bijection():
    lat = build_theta_sphere()
    with pytest.raises(MoveError, match="not injective"):
        apply_cpi(lat, {0: 1})  # vertex 1 stays fixed, so two vertices land on 1
    with pytest.raises(MoveError, match="target's vertices"):
        apply_cpi(lat, {0: 7})
    with pytest.raises(MoveError, match="does not have"):
        apply_cpi(lat, {9: 0, 0: 9})


def test_cpi_refuses_edges_that_change_kind():
    lat = build_planar_patch(3, 4, [])
    qubit = next(e for e, rec in sorted(lat.edges.items()) if not rec.pinned)
    pinned = next(e for e, rec in sorted(lat.edges.items()) if rec.pinned)
    # the same complex with one qubit edge pinned and one pinned edge
    # given that slot: the identity map would move a qubit onto a pinned
    # edge and a pinned edge onto a qubit
    edges = dict(lat.edges)
    a, b = lat.edges[qubit], lat.edges[pinned]
    edges[qubit] = Edge(a.v1, a.v2, None)
    edges[pinned] = Edge(b.v1, b.v2, a.qubit)
    target = replace_lattice(lat, edges=edges)
    target.check()
    with pytest.raises(MoveError, match="other kind"):
        apply_cpi(lat, {}, target=target)
    with pytest.raises(MoveError, match="other kind"):
        apply_cpi(target, {}, target=lat)


def test_replay_reproduces_rewrites():
    lat = build_tetra_sphere()
    out, rec = pachner_13(lat, 1)
    assert replay_moves(lat, (rec,)).signature() == out.signature()
    out2, rec2 = pachner_22(out, 0)
    assert replay_moves(out, (rec2,)).signature() == out2.signature()


def test_isomorphism_self_identity():
    lat = build_honeycomb_torus(2, 2)
    got = isomorphism_check(lat, lat)
    assert got is not None
    assert got["vertices"] == {v: v for v in lat.vertices}


def test_isomorphism_distinguishes_sizes():
    assert isomorphism_check(build_honeycomb_torus(2, 2), build_honeycomb_torus(3, 2)) is None


def test_isomorphism_respects_punctures():
    a = build_planar_patch(4, 4, [(1, 0)])
    b = build_planar_patch(4, 4, [(1, 2)])
    got = isomorphism_check(a, b)
    # a rotation by two sectors maps one onto the other
    assert got is not None
    assert got["vertices"][polar_vertex_id(4, 1, 0)] == polar_vertex_id(4, 1, 2)


def test_same_signature_agrees_with_signature_equality():
    lat = build_planar_patch(4, 6, [(1, 0)])
    tid, (a, b, c) = next(iter(lat.triangles.items()))
    e = next(e for e, rec in lat.edges.items() if rec.qubit is not None)
    rec = lat.edges[e]
    flip_back = lat.plaquette(polar_vertex_id(6, 2, 3)).boundary[0]
    cases = {
        "permuted triangle edge order": dataclasses.replace(
            lat, triangles={**lat.triangles, tid: (c, a, b)}
        ),
        "moved puncture": dataclasses.replace(lat, punctures=frozenset({polar_vertex_id(6, 2, 0)})),
        "changed qubit slot": dataclasses.replace(
            lat, edges={**lat.edges, e: Edge(rec.v1, rec.v2, rec.qubit + 1000)}
        ),
        "flipped and flipped back": pachner_22(pachner_22(lat, flip_back)[0], flip_back)[0],
    }
    want = {
        "permuted triangle edge order": True,
        "moved puncture": False,
        "changed qubit slot": False,
        "flipped and flipped back": True,
    }
    for name, other in cases.items():
        assert (other.signature() == lat.signature()) is want[name], name
        assert lat.same_signature(other) is want[name], name
        assert other.same_signature(lat) is want[name], name


def test_lattice_json_round_trip():
    lat = build_planar_patch(4, 5, [(2, 1)])
    text = lattice_to_json(lat)
    back = lattice_from_json(text)
    assert back.signature() == lat.signature()
    assert back.version == lat.version
    assert lattice_to_json(back) == text


def test_edge_dataclass_pinned_flag():
    assert Edge(0, 1, None).pinned
    assert not Edge(0, 1, 7).pinned
