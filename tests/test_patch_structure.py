"""Patch layout and quad corners against the algorithms they replaced.

The patch ids are derived by the layout helpers in tvq.lattice, the
canonical-layout check compares a lattice with the layout arithmetic,
and quad corners come from one corner helper. This module keeps the
replaced code as references: the dict-keyed patch builder, the per-edge
layout check, the layout check that compared with a second build, the
frozenset-based flip and 3-1 role assignments, the corner search of the
1-3 move and the whole-lattice quad scan of the row merger. Random
Pachner walks compare roles (or refusal messages) at every step; split
and merge schedules are compared with those the reference scan
resolves, and braid and baseline schedules with those built through the
second-build check.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvq import gadgets
from tvq.gadgets import _canonical_disk, _resolve_edge, merge_rows, run_schedule, split_row
from tvq.lattice import (
    Edge,
    MoveError,
    SurfaceLattice,
    _eid_diag,
    _eid_ring,
    _eid_spoke,
    _flip_roles,
    _tid_lower,
    build_honeycomb_torus,
    build_planar_patch,
    build_tetra_sphere,
    build_theta_sphere,
    lattice_from_json,
    lattice_to_json,
    pachner_13,
    pachner_22,
    pachner_31,
    pachner_31_roles,
    polar_position,
    polar_vertex_id,
)

# ---- references -------------------------------------------------------------------


def ref_build_planar_patch(rows, cols):
    """The patch builder that assigned ids through a (kind, r, s) dict."""
    m, n = rows, cols
    vertices = {0: (0.0, 0.0)}
    for r in range(1, m + 1):
        for s in range(n):
            vertices[polar_vertex_id(n, r, s)] = polar_position(n, r, s)
    edges, eid = {}, {}
    k = slot = 0

    def add(kind, r, s, u, v, pinned=False):
        nonlocal k, slot
        edges[k] = Edge(u, v, None if pinned else slot)
        eid[(kind, r, s)] = k
        k += 1
        if not pinned:
            slot += 1

    for s in range(n):
        add("spoke", 0, s, 0, polar_vertex_id(n, 1, s))
    for r in range(1, m + 1):
        for s in range(n):
            add("ring", r, s, polar_vertex_id(n, r, s), polar_vertex_id(n, r, s + 1), pinned=(r == m))
    for r in range(1, m):
        for s in range(n):
            add("spoke", r, s, polar_vertex_id(n, r, s), polar_vertex_id(n, r + 1, s))
    for r in range(1, m):
        for s in range(n):
            add("diag", r, s, polar_vertex_id(n, r, s), polar_vertex_id(n, r + 1, s + 1))
    triangles = {}
    t = 0
    for s in range(n):
        triangles[t] = (eid[("spoke", 0, s)], eid[("spoke", 0, (s + 1) % n)], eid[("ring", 1, s)])
        t += 1
    for r in range(1, m):
        for s in range(n):
            triangles[t] = (eid[("spoke", r, s)], eid[("ring", r + 1, s)], eid[("diag", r, s)])
            triangles[t + 1] = (eid[("ring", r, s)], eid[("diag", r, s)], eid[("spoke", r, (s + 1) % n)])
            t += 2
    return vertices, edges, triangles


def ref_canonical_disk(lat):
    """(rows, cols) after checking every edge's endpoints and pinning."""
    bad = MoveError("lattice does not have the canonical patch layout")
    if lat.topology != "disk" or 0 not in lat.vertices:
        raise bad
    cols = sum(1 for e in lat.edges.values() if 0 in e.endpoints())
    if cols < 2:
        raise bad
    nv = len(lat.vertices)
    if (nv - 1) % cols:
        raise bad
    rows = (nv - 1) // cols
    if rows < 2:
        raise bad
    n_edges = cols + rows * cols + 2 * (rows - 1) * cols
    if len(lat.edges) != n_edges or len(lat.triangles) != cols + 2 * (rows - 1) * cols:
        raise bad

    def expect(eid, v1, v2, pinned):
        edge = lat.edges.get(eid)
        if edge is None or edge.endpoints() != frozenset((v1, v2)):
            raise bad
        if edge.pinned != pinned:
            raise bad

    for s in range(cols):
        expect(s, 0, polar_vertex_id(cols, 1, s), False)
        for r in range(1, rows + 1):
            expect(
                _eid_ring(rows, cols, r, s),
                polar_vertex_id(cols, r, s),
                polar_vertex_id(cols, r, s + 1),
                r == rows,
            )
        for r in range(1, rows):
            expect(_eid_spoke(rows, cols, r, s), polar_vertex_id(cols, r, s), polar_vertex_id(cols, r + 1, s), False)
            expect(_eid_diag(rows, cols, r, s), polar_vertex_id(cols, r, s), polar_vertex_id(cols, r + 1, s + 1), False)
    return rows, cols


def ref_disk_by_build(lat):
    """(rows, cols, build_planar_patch(rows, cols)) after comparing every
    edge and every triangle's edge set with that build."""
    bad = MoveError("lattice does not have the canonical patch layout")
    if lat.topology != "disk" or 0 not in lat.vertices:
        raise bad
    cols = len(lat.vertex_edges()[0])
    if cols < 2 or (len(lat.vertices) - 1) % cols:
        raise bad
    rows = (len(lat.vertices) - 1) // cols
    if rows < 2:
        raise bad
    patch = build_planar_patch(rows, cols)
    if lat.edges != patch.edges or lat.triangles.keys() != patch.triangles.keys():
        raise bad
    if any(sorted(es) != sorted(patch.triangles[t]) for t, es in lat.triangles.items()):
        raise bad
    return rows, cols, patch


def ref_flip_roles(lat, edge_id):
    if edge_id not in lat.edges:
        raise MoveError(f"no edge {edge_id}")
    rec = lat.edges[edge_id]
    if rec.pinned:
        raise MoveError(f"edge {edge_id} is pinned (boundary)")
    ts = lat.edge_triangles()[edge_id]
    if len(ts) != 2:
        raise MoveError(f"edge {edge_id} is a boundary edge")
    t1, t2 = sorted(ts)
    e1 = [e for e in lat.triangles[t1] if e != edge_id]
    e2 = [e for e in lat.triangles[t2] if e != edge_id]
    if set(e1) & set(e2):
        raise MoveError(f"edge {edge_id}: triangles share a second edge (degenerate quad)")
    u, v = sorted((rec.v1, rec.v2))

    def apex(pair):
        vs = set(lat.edges[pair[0]].endpoints()) & set(lat.edges[pair[1]].endpoints())
        vs -= {u, v}
        if len(vs) != 1:
            raise MoveError(f"edge {edge_id}: degenerate apex")
        return vs.pop()

    w1, w2 = apex(e1), apex(e2)
    if w1 == w2:
        raise MoveError(f"edge {edge_id}: both apexes coincide (degenerate quad)")

    def at(pair, vertex):
        hit = [e for e in pair if vertex in lat.edges[e].endpoints()]
        if len(hit) != 1:
            raise MoveError(f"edge {edge_id}: ambiguous quad sides")
        return hit[0]

    a, b = at(e1, v), at(e1, u)
    c, d = at(e2, u), at(e2, v)
    for corner in (u, v, w1, w2):
        if corner in lat.punctures:
            raise MoveError(f"edge {edge_id}: flip touches puncture plaquette {corner}")
    return t1, t2, u, v, w1, w2, a, b, c, d


def ref_pachner_31_roles(lat, vertex_id):
    if vertex_id not in lat.vertices:
        raise MoveError(f"no vertex {vertex_id}")
    et, ve = lat.edge_triangles(), lat.vertex_edges()
    incident = ve[vertex_id]
    if len(incident) != 3:
        raise MoveError(f"vertex {vertex_id} has degree {len(incident)}, need 3")
    tris = sorted({t for e in incident for t in et[e]})
    if len(tris) != 3:
        raise MoveError(f"vertex {vertex_id} is not enclosed by 3 triangles")
    outer = []
    for t in tris:
        rest = [e for e in lat.triangles[t] if e not in incident]
        if len(rest) != 1:
            raise MoveError(f"vertex {vertex_id}: triangle {t} malformed for removal")
        outer.append(rest[0])
    if len(set(outer)) != 3:
        raise MoveError(f"vertex {vertex_id}: outer edges not distinct")
    b_e, a_e, c_e = sorted(outer)
    corners = set()
    for e in outer:
        corners |= set(lat.edges[e].endpoints())
    corners -= {vertex_id}
    if len(corners) != 3:
        raise MoveError(f"vertex {vertex_id}: outer edges do not form a triangle")
    for vtx in corners:
        if vtx in lat.punctures:
            raise MoveError(f"vertex {vertex_id}: removal touches puncture plaquette {vtx}")

    def opposite(e):
        (other,) = corners - set(lat.edges[e].endpoints())
        return other

    p, q, r = opposite(a_e), opposite(b_e), opposite(c_e)

    def spoke(target):
        hit = [e for e in incident if target in lat.edges[e].endpoints()]
        if len(hit) != 1:
            raise MoveError(f"vertex {vertex_id}: spokes ambiguous")
        return hit[0]

    return tris, (a_e, b_e, c_e), (spoke(p), spoke(r), spoke(q))


def ref_subdivide_corners(lat, triangle_id):
    """Corners (p, q, r) across the sorted legs (a, b, c) of a 1-3 move."""
    es = lat.triangles[triangle_id]
    b_e, a_e, c_e = sorted(es)
    corners = set()
    for e in es:
        corners |= set(lat.edges[e].endpoints())
    for vtx in corners:
        if vtx in lat.punctures:
            raise MoveError(f"triangle {triangle_id} touches puncture plaquette {vtx}")

    def opposite(e):
        (other,) = corners - set(lat.edges[e].endpoints())
        return other

    return opposite(a_e), opposite(b_e), opposite(c_e)


def ref_quads(lat, u, v):
    """(edge, apexes) per interior edge between u and v, by a scan of
    every edge and the endpoints of both triangles' edges."""
    tri_of = lat.edge_triangles()
    for eid, edge in lat.edges.items():
        if edge.endpoints() != frozenset((u, v)) or len(tri_of[eid]) != 2:
            continue
        got = set()
        for tid in tri_of[eid]:
            for other in lat.triangles[tid]:
                got |= set(lat.edges[other].endpoints())
        yield eid, got - {u, v}


def ref_resolve_edge(lat, u, v, apexes):
    found = [eid for eid, got in ref_quads(lat, u, v) if got == apexes]
    if len(found) != 1:
        raise MoveError("rows are not mergeable: ambiguous or missing quad")
    return found[0]


def ref_vertex_adjacency(lat):
    adj = {v: set() for v in lat.vertices}
    for edge in lat.edges.values():
        adj[edge.v1].add(edge.v2)
        adj[edge.v2].add(edge.v1)
    return adj


def outcome(fn, *args):
    """fn's result, or the message of the MoveError it raised."""
    try:
        return fn(*args)
    except MoveError as exc:
        return f"MoveError: {exc}"


# ---- patch layout -------------------------------------------------------------------


@pytest.mark.parametrize("rows", [2, 3, 5])
@pytest.mark.parametrize("cols", [2, 3, 4, 7, 12])
def test_patch_ids_match_the_dict_keyed_builder(rows, cols):
    vertices, edges, triangles = ref_build_planar_patch(rows, cols)
    lat = build_planar_patch(rows, cols)
    assert list(lat.vertices.items()) == list(vertices.items())
    assert list(lat.edges.items()) == list(edges.items())
    assert list(lat.triangles.items()) == list(triangles.items())
    got_rows, got_cols, patch = _canonical_disk(lat)
    assert (got_rows, got_cols) == ref_canonical_disk(lat) == (rows, cols)
    assert patch.signature() == lat.signature()


def swapped(lat, table, a, b):
    """A copy of lat with two entries of its edge or triangle table swapped."""
    out = {"edges": dict(lat.edges), "triangles": dict(lat.triangles)}
    if table == "slots":
        ra, rb = lat.edges[a], lat.edges[b]
        out["edges"][a], out["edges"][b] = Edge(ra.v1, ra.v2, rb.qubit), Edge(rb.v1, rb.v2, ra.qubit)
    else:
        out["triangles"][a], out["triangles"][b] = lat.triangles[b], lat.triangles[a]
    copy = SurfaceLattice(lat.topology, dict(lat.vertices), out["edges"], out["triangles"], lat.punctures)
    copy.check()
    return copy


def test_layout_check_accepts_what_the_edge_check_accepts_up_to_slots_and_triangles():
    lat = build_planar_patch(4, 6, punctures=[(0, 0), (2, 1)])
    # a JSON round trip rounds positions; flipping an edge twice reorders
    # its triangles' edge tuples; neither changes the complex
    twice = pachner_22(pachner_22(lat, _eid_diag(4, 6, 2, 3))[0], _eid_diag(4, 6, 2, 3))[0]
    assert twice.triangles != lat.triangles
    for same in (lat, lattice_from_json(lattice_to_json(lat)), twice):
        assert _canonical_disk(same)[:2] == ref_canonical_disk(same) == (4, 6)
    # the edge check passed these; the build comparison refuses them
    for table, a, b in (("slots", 7, 8), ("triangles", 6, 7), ("triangles", 0, 1)):
        bad = swapped(lat, table, a, b)
        assert ref_canonical_disk(bad) == (4, 6)
        with pytest.raises(MoveError, match="canonical patch layout"):
            _canonical_disk(bad)
    once = pachner_22(lat, _eid_diag(4, 6, 2, 3))[0]
    for refused in (once, build_tetra_sphere(), build_honeycomb_torus(2, 2)):
        assert outcome(_canonical_disk, refused) == outcome(ref_canonical_disk, refused)


def unchecked(lat, edges=None, triangles=None):
    """A copy of lat with its edge or triangle table replaced, not checked."""
    edges = dict(lat.edges) if edges is None else edges
    triangles = dict(lat.triangles) if triangles is None else triangles
    return SurfaceLattice(lat.topology, dict(lat.vertices), edges, triangles, lat.punctures, lat.version)


def perturbations(lat, rows, cols):
    """(what, copy of lat) per way of breaking the patch complex."""
    E, T = lat.edges, lat.triangles
    diag, spoke = _eid_diag(rows, cols, 1, 0), _eid_spoke(rows, cols, 1, 1)
    outer = _eid_ring(rows, cols, rows, 0)
    lower = _tid_lower(rows, cols, 1, 0)  # its edges: spoke (1, 0), ring (2, 0), diag
    d, s = E[diag], E[spoke]
    far = polar_vertex_id(cols, 2, 3)  # not a neighbour of (1, 0)
    fresh_slot = max(lat.qubit_slots()) + 1
    yield "edge endpoint moved", unchecked(lat, edges={**E, diag: Edge(d.v1, far, d.qubit)})
    yield "qubit slots swapped", unchecked(
        lat, edges={**E, diag: Edge(d.v1, d.v2, s.qubit), spoke: Edge(s.v1, s.v2, d.qubit)}
    )
    yield "edge pinned", unchecked(lat, edges={**E, diag: Edge(d.v1, d.v2, None)})
    yield "edge unpinned", unchecked(lat, edges={**E, outer: Edge(E[outer].v1, E[outer].v2, fresh_slot)})
    ring = _eid_ring(rows, cols, 1, 0)
    yield "triangle edge set changed", unchecked(lat, triangles={**T, lower: (*T[lower][:2], ring)})
    yield "edge removed", unchecked(lat, edges={e: rec for e, rec in E.items() if e != diag})
    yield "edge added", unchecked(lat, edges={**E, max(E) + 1: Edge(d.v1, far, fresh_slot)})
    yield "triangle added", unchecked(lat, triangles={**T, max(T) + 1: T[lower]})
    for a, b in ((lower, lower + 1), (0, lower)):
        yield f"triangle ids {a} and {b} swapped", unchecked(lat, triangles={**T, a: T[b], b: T[a]})


@pytest.mark.parametrize("rows,cols,punctures", [(3, 4, []), (4, 6, [(0, 0), (2, 1)]), (5, 12, [(2, 0)])])
def test_layout_check_refuses_what_the_build_comparison_refuses(rows, cols, punctures):
    lat = build_planar_patch(rows, cols, punctures=punctures)
    for base in (lat, lattice_from_json(lattice_to_json(lat))):
        for what, bad in perturbations(base, rows, cols):
            refused = "MoveError: lattice does not have the canonical patch layout"
            assert outcome(_canonical_disk, bad) == outcome(ref_disk_by_build, bad) == refused, what


def assert_same_disk(lat):
    """Both layout checks accept lat alike; the new one returns lat's own
    complex and positions, without punctures, at version 0."""
    rows, cols, patch = _canonical_disk(lat)
    ref_rows, ref_cols, ref_patch = ref_disk_by_build(lat)
    assert (rows, cols) == (ref_rows, ref_cols)
    assert (patch.signature(), patch.version) == (ref_patch.signature(), ref_patch.version)
    assert patch.version == 0
    assert (patch.vertices, patch.edges, patch.triangles) == (lat.vertices, lat.edges, lat.triangles)
    assert patch.punctures == frozenset()


@pytest.mark.parametrize("rows", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("cols", range(4, 13))
def test_layout_check_accepts_fresh_builds_like_the_build_comparison(rows, cols):
    assert_same_disk(build_planar_patch(rows, cols))
    punctures = [(0, 0), (rows - 1, 1)] if rows > 2 else [(1, 0)]
    assert_same_disk(build_planar_patch(rows, cols, punctures=punctures))


def test_layout_check_accepts_rewritten_patches_like_the_build_comparison():
    lat, cols, anyon = gadgets.braid_arena(4)
    rows = _canonical_disk(lat)[0]
    edge = _eid_diag(rows, cols, rows - 1, cols // 2)
    twice = pachner_22(pachner_22(lat, edge)[0], edge)[0]
    end = run_schedule(None, lat, gadgets.braid_schedule(lat, anyon, 0, steps=6))[1]
    assert end.version > 0 and twice.triangles != lat.triangles
    for same in (lat, lattice_from_json(lattice_to_json(lat)), twice, end):
        assert_same_disk(same)


def test_braid_and_baseline_match_those_built_through_the_second_build(monkeypatch):
    lat, cols, anyon = gadgets.braid_arena(4)
    rows = _canonical_disk(lat)[0]
    edge = _eid_diag(rows, cols, rows - 1, cols // 2)
    twice = pachner_22(pachner_22(lat, edge)[0], edge)[0]
    path = [polar_vertex_id(cols, 2, s) for s in (-1, -2, -1, 0, 1)]

    def builds(start):
        return (
            gadgets.braid_schedule(start, anyon, 0, steps=6),
            gadgets.baseline_schedule(start, anyon, path),
        )

    def targets(sched):
        return [(g.target.signature(), g.target.version) for g in sched.groups if g.target is not None]

    for start in (lat, lattice_from_json(lattice_to_json(lat)), twice):
        got = builds(start)
        with monkeypatch.context() as m:
            m.setattr(gadgets, "_canonical_disk", ref_disk_by_build)
            want = builds(start)
        for sched, ref in zip(got, want):
            assert gadgets.schedule_to_json(sched) == gadgets.schedule_to_json(ref)
            assert targets(sched) == targets(ref)


# ---- roles on random Pachner walks -------------------------------------------------

LATTICES = {
    "tetra": build_tetra_sphere,
    "torus": lambda: build_honeycomb_torus(2, 2),
    "theta": build_theta_sphere,
    "patch2": lambda: build_planar_patch(3, 2, punctures=[(1, 0)]),
    "patch4": lambda: build_planar_patch(3, 4, punctures=[(0, 0), (2, 1)]),
}


def assert_roles_match(lat):
    for e in sorted(lat.edges):
        assert outcome(_flip_roles, lat, e) == outcome(ref_flip_roles, lat, e)
    for v in sorted(lat.vertices):
        assert outcome(pachner_31_roles, lat, v) == outcome(ref_pachner_31_roles, lat, v)
    for t in sorted(lat.triangles):
        want = outcome(ref_subdivide_corners, lat, t)
        got = outcome(pachner_13, lat, t)
        if isinstance(want, str):
            assert got == want
            continue
        out, rec = got
        w = rec.vertex
        ends = [{out.edges[e].v1, out.edges[e].v2} for e in rec.new_edges]
        p, q, r = want
        assert ends == [{w, p}, {w, r}, {w, q}]
    et = lat.edge_triangles()
    for e, rec in sorted(lat.edges.items()):
        if len(et[e]) != 2:
            continue
        apexes = dict(ref_quads(lat, rec.v1, rec.v2))[e]
        for want in (apexes, {rec.v1, rec.v2}):
            args = (lat, rec.v1, rec.v2, want)
            assert outcome(_resolve_edge, *args) == outcome(ref_resolve_edge, *args)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(LATTICES)),
    moves=st.lists(
        st.tuples(st.sampled_from(["22", "13", "31"]), st.integers(0, 10**6)),
        min_size=1,
        max_size=8,
    ),
)
def test_roles_match_the_references_along_random_walks(name, moves):
    lat = LATTICES[name]()
    assert_roles_match(lat)
    for kind, pick in moves:
        try:
            if kind == "22":
                lat = pachner_22(lat, sorted(lat.edges)[pick % len(lat.edges)])[0]
            elif kind == "13":
                lat = pachner_13(lat, sorted(lat.triangles)[pick % len(lat.triangles)])[0]
            else:
                ve = lat.vertex_edges()
                cubic = sorted(v for v in lat.vertices if len(ve[v]) == 3) or sorted(lat.vertices)
                lat = pachner_31(lat, cubic[pick % len(cubic)])[0]
        except MoveError:
            continue
        assert_roles_match(lat)


# ---- split and merge schedules -------------------------------------------------------


def reference_build(monkeypatch, build, *args):
    """A schedule built with the layout check, adjacency and quad scan replaced."""
    with monkeypatch.context() as m:
        m.setattr(gadgets, "_canonical_disk", lambda lat: (*ref_canonical_disk(lat), None))
        m.setattr(gadgets, "_vertex_adjacency", ref_vertex_adjacency)
        m.setattr(gadgets, "_quads", ref_quads)
        return build(*args)


@pytest.mark.parametrize("rows,cols,row", [(2, 2, 1), (2, 4, 1), (3, 4, 2), (3, 6, 1), (4, 8, 2)])
def test_split_and_merge_schedules_match_the_reference_scan(monkeypatch, rows, cols, row):
    lat = build_planar_patch(rows, cols)
    split = split_row(lat, row)
    assert split == reference_build(monkeypatch, split_row, lat, row)
    mid = run_schedule(None, lat, split)[1]
    fresh = [rec.vertex for rec in split.groups[0].layers[0]]
    merge = merge_rows(mid, fresh)
    assert merge == reference_build(monkeypatch, merge_rows, mid, fresh)
    assert run_schedule(None, mid, merge)[1].signature() == lat.signature()


def test_middle_ring_merge_matches_the_reference_scan(monkeypatch):
    lat = build_planar_patch(3, 4)
    mids = [polar_vertex_id(4, 2, s) for s in range(4)]
    merge = merge_rows(lat, mids)
    assert merge == reference_build(monkeypatch, merge_rows, lat, mids)
    assert merge.depth_report().local_depth == 5
