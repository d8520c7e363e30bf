"""Path-independence audit for the recoupling tensor.

Brute-force walk over the 2-2 rewrite graph of triangulated convex
polygons with labeled (qubit) boundary edges. The flip complex of a
polygon is the associahedron: simply connected, with square and pentagon
relation cells only, so any two rewrite paths that meet at the same
triangulation must induce identical amplitude maps. Closed fixtures are
unsuitable here: on a sphere two paths meeting at the same labeled
triangulation can differ by a braid of the vertices, which acts
nontrivially outside the string-net subspace.

The walk keeps no move code of its own: each flip's map is read from
the F-move tables every state replay reads (statevec._fmove_tables),
and a relabeled copy is aligned through the slot map of apply_cpi, which
derives every other relabeling in the package.
"""

import math

import numpy as np

from .lattice import Edge, MoveError, SurfaceLattice, apply_cpi, pachner_22
from .statevec import (
    _fmove_bits,
    _fmove_tables,
    _key,
    _locate,
    _move_bits,
    bit_positions,
    enumerate_valid_configs,
)


def _fan_polygon(n: int) -> SurfaceLattice:
    """Convex n-gon triangulated as a fan from vertex 0; every edge,
    boundary included, carries a qubit."""
    vertices = {
        i: (float(np.cos(2 * np.pi * i / n)), float(np.sin(2 * np.pi * i / n))) for i in range(n)
    }
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(0, j) for j in range(2, n - 1)]
    edges = {k: Edge(a, b, k) for k, (a, b) in enumerate(pairs)}
    eid = {frozenset(p): k for k, p in enumerate(pairs)}
    triangles = {
        t: tuple(sorted(eid[frozenset(p)] for p in ((0, t + 1), (t + 1, t + 2), (0, t + 2))))
        for t in range(n - 2)
    }
    lat = SurfaceLattice("disk", vertices, edges, triangles)
    lat.check()
    return lat


def _flip_map(lat: SurfaceLattice, edge_id: int, data, in_cfgs: np.ndarray):
    """One rewrite as a dense matrix from the valid span of lat onto the
    valid span of the rewritten complex, read from the state kernel's
    F-move tables: stay[key] on the config itself, flip[key] on the
    config with the switched edge's bit toggled. None when a nonzero
    coefficient lands on an invalid config."""
    out, rec = pachner_22(lat, edge_id)
    out_cfgs = enumerate_valid_configs(out, data)
    pos = bit_positions(lat)
    key = _key(in_cfgs, _fmove_bits(pos, edge_id, rec.legs))
    stay, flip, _runs = _fmove_tables(data)
    mat = np.zeros((len(out_cfgs), len(in_cfgs)))
    for table, outc in ((stay, in_cfgs), (flip, in_cfgs ^ np.uint64(1 << pos[edge_id]))):
        coeff = table[key]
        nz = np.flatnonzero(coeff)
        rows, hit = _locate(out_cfgs, outc[nz])
        if not hit.all():
            return out, out_cfgs, None
        mat[rows, nz] = coeff[nz]
    return out, out_cfgs, mat


def _structure_key(lat: SurfaceLattice):
    """Complex up to edge relabeling: endpoint data only."""
    edges = sorted((rec.v1, rec.v2, rec.qubit is not None) for rec in lat.edges.values())
    tris = sorted(
        tuple(sorted(lat.edges[e].endpoints() for e in es)) for es in lat.triangles.values()
    )
    return tuple(edges), tuple(tris)


def _match_residual(cfgs_a, map_a, lat_a, cfgs_b, map_b, lat_b) -> float:
    """Deviation between the two maps once lat_a's qubit slots are carried
    onto lat_b's by the slot map of apply_cpi (vertices fixed), each slot
    standing for the config bit of its rank; inf when apply_cpi refuses
    the pair or the carried configs are not those of b."""
    try:
        _out, rec = apply_cpi(lat_a, {}, target=lat_b)
    except MoveError:
        return math.inf
    rank_a = {s: i for i, s in enumerate(lat_a.qubit_slots())}
    rank_b = {s: i for i, s in enumerate(lat_b.qubit_slots())}
    mapped = _move_bits(cfgs_a, [(rank_a[s], rank_b[t]) for s, t in rec.sigma.items()])
    order = np.argsort(mapped)
    if not np.array_equal(mapped[order], cfgs_b):
        return math.inf
    return float(np.max(np.abs(map_a[order] - map_b)))


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
                if mat is None:
                    return math.inf
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
    square and pentagon relations in every label sector; a rewrite that
    leaves the valid span makes it inf. One-label data has no rewrite
    to walk: its residual is |F - 1|."""
    if data.num_labels == 1:
        return abs(float(data.fsym[(0,) * 6]) - 1.0)
    return max(_walk_polygon(n, data, depth) for n in (4, 5, 6))
