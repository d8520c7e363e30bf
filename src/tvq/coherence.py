"""Path-independence audit for the recoupling tensor.

Brute-force walk over the 2-2 rewrite graph of triangulated convex
polygons with labeled (qubit) boundary edges. The flip complex of a
polygon is the associahedron: simply connected, with square and pentagon
relation cells only, so any two rewrite paths that meet at the same
triangulation must induce identical amplitude maps. Closed fixtures are
unsuitable here: on a sphere two paths meeting at the same labeled
triangulation can differ by a braid of the vertices, which acts
nontrivially outside the string-net subspace.
"""

import math
from itertools import permutations

import numpy as np

from .lattice import Edge, MoveError, SurfaceLattice, pachner_22
from .statevec import _key, _move_bits, bit_positions, enumerate_valid_configs


def _fan_polygon(n: int) -> SurfaceLattice:
    """Convex n-gon triangulated as a fan from vertex 0; every edge,
    boundary included, carries a qubit."""
    vertices = {
        i: (float(np.cos(2 * np.pi * i / n)), float(np.sin(2 * np.pi * i / n))) for i in range(n)
    }
    edges: dict[int, Edge] = {}
    eid: dict[frozenset, int] = {}
    k = 0
    for i in range(n):
        edges[k] = Edge(i, (i + 1) % n, k)
        eid[frozenset((i, (i + 1) % n))] = k
        k += 1
    for j in range(2, n - 1):
        edges[k] = Edge(0, j, k)
        eid[frozenset((0, j))] = k
        k += 1
    triangles = {
        t: tuple(
            sorted(
                (
                    eid[frozenset((0, t + 1))] if t > 0 else eid[frozenset((0, 1))],
                    eid[frozenset((t + 1, t + 2))],
                    eid[frozenset((0, t + 2))] if t < n - 3 else eid[frozenset((0, n - 1))],
                )
            )
        )
        for t in range(n - 2)
    }
    lat = SurfaceLattice("disk", vertices, edges, triangles)
    lat.check()
    return lat


def _flip_map(lat: SurfaceLattice, edge_id: int, data, in_cfgs: np.ndarray):
    """One rewrite as a dense matrix from the valid span of lat onto the
    valid span of the rewritten complex."""
    out, rec = pachner_22(lat, edge_id)
    out_cfgs = enumerate_valid_configs(out, data)
    pos = bit_positions(lat)
    eb = pos[edge_id]
    key = _key(in_cfgs, [eb, *(pos[x] for x in reversed(rec.legs))])  # e d c b a from bit 0
    fsym = data.fsym.reshape(-1, data.num_labels)
    mat = np.zeros((len(out_cfgs), len(in_cfgs)))
    cols = np.arange(len(in_cfgs))
    for f in range(data.num_labels):
        coeff = fsym[key, f]
        nz = np.flatnonzero(np.abs(coeff) > 0)
        outc = (in_cfgs[nz] & ~np.uint64(1 << eb)) | np.uint64(f << eb)
        rows = np.searchsorted(out_cfgs, outc)
        assert np.array_equal(out_cfgs[rows], outc)  # rewrites preserve validity
        mat[rows, cols[nz]] += coeff[nz]
    return out, out_cfgs, mat


def _structure_key(lat: SurfaceLattice):
    """Complex up to edge relabeling: endpoint data only."""
    edges = sorted((rec.v1, rec.v2, rec.qubit is not None) for rec in lat.edges.values())
    tris = sorted(
        tuple(sorted(lat.edges[e].endpoints() for e in es)) for es in lat.triangles.values()
    )
    return tuple(edges), tuple(tris)


def _slot_matchings(lat_a: SurfaceLattice, lat_b: SurfaceLattice):
    """Bit permutations, as (source bit, destination bit) pairs, sending
    qubit edges of a onto same-endpoint qubit edges of b; parallel edges
    branch the matching."""
    pos_a, pos_b = bit_positions(lat_a), bit_positions(lat_b)
    by_pair: dict[frozenset, list[int]] = {}
    for e, rec in lat_b.edges.items():
        if rec.qubit is not None:
            by_pair.setdefault(rec.endpoints(), []).append(e)
    groups = []
    for pair, targets in sorted(by_pair.items(), key=lambda kv: sorted(kv[1])):
        sources = sorted(
            e for e, rec in lat_a.edges.items() if rec.endpoints() == pair and rec.qubit is not None
        )
        if len(sources) != len(targets):
            return
        groups.append((sources, sorted(targets)))

    def walk(i, acc):
        if i == len(groups):
            yield [(pos_a[src], pos_b[tgt]) for src, tgt in acc.items()]
            return
        srcs, tgts = groups[i]
        for choice in permutations(tgts):
            acc2 = dict(acc)
            acc2.update(zip(srcs, choice))
            yield from walk(i + 1, acc2)

    yield from walk(0, {})


def _match_residual(cfgs_a, map_a, lat_a, cfgs_b, map_b, lat_b) -> float:
    """Smallest deviation between the two maps over the endpoint-preserving
    relabelings that align their configs; inf when none aligns them."""
    best = math.inf
    for pi in _slot_matchings(lat_a, lat_b):
        mapped = _move_bits(cfgs_a, pi)
        order = np.argsort(mapped)
        if np.array_equal(mapped[order], cfgs_b):
            best = min(best, float(np.max(np.abs(map_a[order] - map_b))))
    return best


def _walk_polygon(n: int, data, depth: int) -> float:
    start = _fan_polygon(n)
    cfgs0 = enumerate_valid_configs(start, data)
    nodes = {start.signature(): (start, cfgs0, np.eye(len(cfgs0)))}
    groups = {_structure_key(start): [start.signature()]}
    frontier = [start.signature()]
    residual = 0.0
    for _step in range(depth):
        fresh = []
        for sig in frontier:
            lat, cfgs, acc = nodes[sig]
            for e in sorted(lat.edges):
                try:
                    out, out_cfgs, mat = _flip_map(lat, e, data, cfgs)
                except MoveError:
                    continue
                comp = mat @ acc
                osig = out.signature()
                if osig in nodes:
                    _l, _c, ref = nodes[osig]
                    residual = max(residual, float(np.max(np.abs(comp - ref))))
                    continue
                key = _structure_key(out)
                for other in groups.get(key, []):
                    olat, ocfgs, ref = nodes[other]
                    residual = max(residual, _match_residual(out_cfgs, comp, out, ocfgs, ref, olat))
                nodes[osig] = (out, out_cfgs, comp)
                groups.setdefault(key, []).append(osig)
                fresh.append(osig)
        frontier = fresh
    return residual


def pentagon_residual(data, depth: int = 5) -> float:
    """Largest deviation between the amplitude maps of two rewrite paths
    (length <= depth) that meet at the same polygon triangulation, or at
    a relabeled copy of it. Polygons with 4, 5 and 6 sides exercise the
    square and pentagon relations in every label sector. One-label data
    has no rewrite to walk: its residual is |F - 1|."""
    if data.num_labels == 1:
        return abs(float(data.fsym[(0,) * 6]) - 1.0)
    return max(_walk_polygon(n, data, depth) for n in (4, 5, 6))
