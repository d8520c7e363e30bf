"""Triangulated surfaces with qubit-bearing edges and their rewrites.

The primal object is a triangulation (vertices with layout positions,
edges, triangles); the dual trivalent graph has one vertex per triangle
and is never stored separately, since every triangle is a triple of edge
ids. Qubits live on edges: each edge either carries a stable qubit slot
id or is pinned to the vacuum label (smooth boundary edges).

Plaquettes sit at interior primal vertices: the plaquette boundary is the
cyclic fan of edges incident to the vertex, and each consecutive boundary
pair has a leg, the opposite edge of the triangle joining them.

Rewrites (2-2 flip, 1-3 subdivision, 3-1 removal, qubit permutations) are
value-semantic: they return a new lattice with a bumped version counter
plus a MoveRecord that can replay the rewrite deterministically. Each
local rewrite is one in-place step on a private copy; ``pachner_22`` and
friends copy once per move, ``replay_moves`` and the schedule builders
once per run of moves.

A qubit permutation is the relabeling induced by a map of the surface's
vertices: ``apply_cpi`` takes that vertex map and derives the slot map
from it, refusing any map that does not carry edges to edges of the same
kind and triangles to triangles.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional

F_MOVE = "F_MOVE"
PACHNER_13 = "PACHNER_13"
PACHNER_31 = "PACHNER_31"
PERMUTATION = "PERMUTATION"


class MoveError(ValueError):
    """A rewrite precondition failed."""


@contextlib.contextmanager
def _refusing_malformed(what: str):
    """Turns the KeyError, TypeError, ValueError or OverflowError that a
    document of the wrong shape raises while it is read into
    MoveError("not <what>: ..."); a MoveError (a ValueError) passes as
    it is, so the readers' own messages survive."""
    try:
        yield
    except MoveError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MoveError(f"not {what}: {type(exc).__name__}: {exc}") from None


@dataclass(frozen=True)
class Edge:
    v1: int
    v2: int
    qubit: Optional[int]  # None = pinned to the vacuum label

    def __post_init__(self):
        # undirected; canonical endpoint order keeps signatures comparable
        if self.v1 > self.v2:
            lo, hi = self.v2, self.v1
            object.__setattr__(self, "v1", lo)
            object.__setattr__(self, "v2", hi)

    @property
    def pinned(self) -> bool:
        return self.qubit is None

    def endpoints(self) -> frozenset[int]:
        return frozenset((self.v1, self.v2))


class MoveRecord(NamedTuple):
    """One rewrite, resolved on the lattice right before it.

    A typed tuple: immutable and compared field by field; copy one with
    _replace.

    ``qubits`` holds the qubit slots the move's gates act on, -1 for a
    pinned leg, so the move lowers without that lattice:

    * F_MOVE: (edge, a, b, c, d), the flipped edge then its quad legs;
    * PACHNER_13 / PACHNER_31: (a, b, c), the legs of the subdivided
      triangle; the fresh spokes are ``new_slots`` / ``released_slots``;
    * PERMUTATION: empty; ``vmap`` is the relabeling's full vertex map
      and ``sigma`` the qubit-slot map derived from it.
    """

    kind: str
    edge: Optional[int] = None
    legs: tuple[int, ...] = ()
    triangles: tuple[int, ...] = ()
    vertex: Optional[int] = None
    new_edges: tuple[int, ...] = ()
    new_triangles: tuple[int, ...] = ()
    new_slots: tuple[int, ...] = ()
    released_slots: tuple[int, ...] = ()
    sigma: Optional[dict[int, int]] = None
    vmap: Optional[dict[int, int]] = None
    qubits: tuple[int, ...] = ()

    def slots(self) -> frozenset[int]:
        """Every qubit slot the move touches, read from the record alone."""
        if self.kind == PERMUTATION:
            sigma = self.sigma or {}
            return frozenset(sigma) | frozenset(sigma.values())
        held = (q for q in self.qubits if q >= 0)
        return frozenset(held).union(self.new_slots, self.released_slots)

    def to_jsonable(self) -> dict:
        doc: dict = {"kind": self.kind}
        if self.edge is not None:
            doc["edge"] = self.edge
        if self.legs:
            doc["legs"] = list(self.legs)
        if self.triangles:
            doc["triangles"] = list(self.triangles)
        if self.vertex is not None:
            doc["vertex"] = self.vertex
        if self.new_edges:
            doc["new_edges"] = list(self.new_edges)
        if self.new_triangles:
            doc["new_triangles"] = list(self.new_triangles)
        if self.new_slots:
            doc["new_slots"] = list(self.new_slots)
        if self.released_slots:
            doc["released_slots"] = list(self.released_slots)
        if self.sigma is not None:
            doc["sigma"] = {str(k): v for k, v in sorted(self.sigma.items())}
        if self.qubits:
            doc["qubits"] = list(self.qubits)
        return doc


@dataclass(frozen=True)
class Plaquette:
    """Cyclic fan around an interior vertex.

    boundary[i] and boundary[i+1] are joined by fan triangle i whose
    remaining edge is legs[i]; lists have equal length n >= 2.
    """

    vertex: int
    boundary: tuple[int, ...]
    legs: tuple[int, ...]
    fan_triangles: tuple[int, ...]


@dataclass
class SurfaceLattice:
    """A triangulated surface at one version.

    The edge -> triangles and vertex -> edges maps are computed once per
    lattice built from scratch and then kept: every rewrite hands its
    output a copy updated at the entries it touched. That is sound
    because a lattice is never mutated after it is returned; rewrites
    only mutate private copies (``_fork``). Map entries are tuples, so
    versions share them safely. Plaquettes are kept too, each filled on
    its first call; a fork starts without them, and ``replace_lattice``
    shares them only while the complex is unchanged.
    """

    topology: str  # sphere | torus | disk
    vertices: dict[int, tuple[float, float]]
    edges: dict[int, Edge]
    triangles: dict[int, tuple[int, int, int]]
    punctures: frozenset[int] = field(default_factory=frozenset)
    version: int = 0
    _edge_tris: Optional[dict[int, tuple[int, ...]]] = field(default=None, init=False, repr=False, compare=False)
    _vertex_edges: Optional[dict[int, tuple[int, ...]]] = field(default=None, init=False, repr=False, compare=False)
    _plaquettes: dict[int, Optional[Plaquette]] = field(default_factory=dict, init=False, repr=False, compare=False)

    # ---- derived structure -------------------------------------------------

    def edge_triangles(self) -> dict[int, tuple[int, ...]]:
        """edge id -> ascending ids of its triangles; kept, do not mutate."""
        if self._edge_tris is None:
            out: dict[int, list[int]] = {e: [] for e in self.edges}
            for t, es in sorted(self.triangles.items()):
                for e in es:
                    out[e].append(t)
            self._edge_tris = {e: tuple(ts) for e, ts in out.items()}
        return self._edge_tris

    def vertex_edges(self) -> dict[int, tuple[int, ...]]:
        """vertex id -> ascending ids of its edges; kept, do not mutate."""
        if self._vertex_edges is None:
            out: dict[int, list[int]] = {v: [] for v in self.vertices}
            for e, rec in sorted(self.edges.items()):
                out[rec.v1].append(e)
                if rec.v2 != rec.v1:
                    out[rec.v2].append(e)
            self._vertex_edges = {v: tuple(es) for v, es in out.items()}
        return self._vertex_edges

    def _maps(self) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """Both kept maps, calling the public accessors only to build one."""
        et = self._edge_tris if self._edge_tris is not None else self.edge_triangles()
        ve = self._vertex_edges if self._vertex_edges is not None else self.vertex_edges()
        return et, ve

    def _fork(self) -> "SurfaceLattice":
        """Private copy that in-place rewrites may mutate; same version."""
        et, ve = self._maps()
        out = SurfaceLattice(
            self.topology,
            dict(self.vertices),
            dict(self.edges),
            dict(self.triangles),
            self.punctures,
            self.version,
        )
        out._edge_tris, out._vertex_edges = dict(et), dict(ve)
        return out

    def qubit_slots(self) -> list[int]:
        return sorted(rec.qubit for rec in self.edges.values() if rec.qubit is not None)

    def slot_edge_map(self) -> dict[int, int]:
        return {rec.qubit: e for e, rec in self.edges.items() if rec.qubit is not None}

    def edge_between(self, u: int, v: int) -> Optional[int]:
        """Smallest id of an edge joining u and v, or None."""
        want = (min(u, v), max(u, v))
        for e in self._maps()[1].get(u, ()):
            if (self.edges[e].v1, self.edges[e].v2) == want:
                return e
        return None

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.triangles)

    def signature(self) -> tuple:
        """Structural identity: states bound to equal signatures are
        interoperable even if version counters differ."""
        return (
            self.topology,
            tuple(sorted((e, r.v1, r.v2, r.qubit if r.qubit is not None else -1) for e, r in self.edges.items())),
            tuple(sorted((t, tuple(sorted(es))) for t, es in self.triangles.items())),
            tuple(sorted(self.punctures)),
        )

    def same_signature(self, other: "SurfaceLattice") -> bool:
        """signature() == other.signature(), without building or sorting
        either: equal topology, punctures and edge records, and per
        triangle id the same three edges in any order."""
        if (self.topology, self.punctures, self.edges) != (other.topology, other.punctures, other.edges):
            return False
        tris = other.triangles
        if tris.keys() != self.triangles.keys():
            return False
        return all(es == tris[t] or sorted(es) == sorted(tris[t]) for t, es in self.triangles.items())

    def check(self) -> None:
        """Basic sanity: each edge in 1 or 2 triangles, triangles well formed."""
        et = self._maps()[0]
        for e, ts in et.items():
            if not 1 <= len(ts) <= 2:
                raise MoveError(f"edge {e} lies in {len(ts)} triangles")
        for t, es in self.triangles.items():
            if len(set(es)) != 3:
                raise MoveError(f"triangle {t} has repeated edges {es}")
            _corner(self, es[0], t)  # raises unless t spans 3 vertices
        for p in self.punctures:
            if self.plaquette(p) is None:
                raise MoveError(f"puncture {p} is not an interior plaquette")

    # ---- plaquettes ---------------------------------------------------------

    def plaquette(self, vertex: int) -> Optional[Plaquette]:
        """Closed fan at the vertex, or None for boundary vertices; kept."""
        if vertex not in self._plaquettes:
            self._plaquettes[vertex] = self._fan(vertex)
        return self._plaquettes[vertex]

    def _fan(self, vertex: int) -> Optional[Plaquette]:
        et, ve = self._maps()
        incident = ve.get(vertex, [])
        if len(incident) < 2:
            return None
        # triangles at the vertex, with their two vertex-edges
        tri_pair: dict[int, list[int]] = {}
        for e in incident:
            for t in et[e]:
                tri_pair.setdefault(t, []).append(e)
        for t, pair in tri_pair.items():
            if len(pair) != 2:
                return None  # a triangle meets the vertex in one edge only: malformed fan
        # each incident edge must join exactly two fan triangles, else the fan is open
        edge_tris: dict[int, list[int]] = {e: [] for e in incident}
        for t, pair in tri_pair.items():
            for e in pair:
                edge_tris[e].append(t)
        if any(len(ts) != 2 for ts in edge_tris.values()):
            return None
        start = min(incident)
        boundary = [start]
        fan: list[int] = []
        tri = min(edge_tris[start])
        while True:
            fan.append(tri)
            a, b = tri_pair[tri]
            nxt = b if a == boundary[-1] else a
            if nxt == start:
                break
            boundary.append(nxt)
            t1, t2 = edge_tris[nxt]
            tri = t2 if t1 == tri else t1
            if len(boundary) > len(incident):
                return None
        if len(boundary) != len(incident):
            return None  # fan does not cover all incident edges
        legs = []
        for t in fan:
            third = [e for e in self.triangles[t] if e not in tri_pair[t]]
            legs.append(third[0])
        return Plaquette(vertex=vertex, boundary=tuple(boundary), legs=tuple(legs), fan_triangles=tuple(fan))

    def plaquette_vertices(self) -> list[int]:
        return [v for v in sorted(self.vertices) if self.plaquette(v) is not None]


def replace_lattice(lat: SurfaceLattice, **changes) -> SurfaceLattice:
    """Copy with some fields changed. The kept maps and plaquettes carry
    over only when vertices, edges and triangles are all unchanged, so
    none goes stale."""
    out = SurfaceLattice(
        topology=changes.get("topology", lat.topology),
        vertices=dict(changes.get("vertices", lat.vertices)),
        edges=dict(changes.get("edges", lat.edges)),
        triangles=dict(changes.get("triangles", lat.triangles)),
        punctures=frozenset(changes.get("punctures", lat.punctures)),
        version=changes.get("version", lat.version),
    )
    if not changes.keys() & {"vertices", "edges", "triangles"}:
        out._edge_tris, out._vertex_edges = lat._edge_tris, lat._vertex_edges
        out._plaquettes = lat._plaquettes
    return out


# ---- builders ---------------------------------------------------------------


def build_theta_sphere() -> SurfaceLattice:
    """Two triangles glued along all three edges: dual graph is the theta
    graph (2 trivalent vertices, 3 parallel edges)."""
    vertices = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (0.5, math.sqrt(3.0) / 2.0)}
    edges = {
        0: Edge(0, 1, 0),
        1: Edge(1, 2, 1),
        2: Edge(0, 2, 2),
    }
    triangles = {0: (0, 1, 2), 1: (0, 1, 2)}
    lat = SurfaceLattice("sphere", vertices, edges, triangles)
    lat.check()
    return lat


def build_tetra_sphere() -> SurfaceLattice:
    """Boundary of a tetrahedron; the smallest sphere where flips apply."""
    vertices = {
        0: (0.0, 0.0),
        1: (2.0, 0.0),
        2: (1.0, math.sqrt(3.0)),
        3: (1.0, 0.577),
    }
    # edges 0..5: (01) (02) (03) (12) (13) (23)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = {i: Edge(u, v, i) for i, (u, v) in enumerate(pairs)}
    idx = {frozenset(p): i for i, p in enumerate(pairs)}

    def tri(u, v, w):
        return (idx[frozenset((u, v))], idx[frozenset((v, w))], idx[frozenset((u, w))])

    triangles = {0: tri(0, 1, 2), 1: tri(0, 1, 3), 2: tri(0, 2, 3), 3: tri(1, 2, 3)}
    lat = SurfaceLattice("sphere", vertices, edges, triangles)
    lat.check()
    return lat


def build_honeycomb_torus(lx: int, ly: int) -> SurfaceLattice:
    """Triangular lattice on the torus; the dual is the honeycomb with
    2*lx*ly trivalent vertices, 3*lx*ly edges, lx*ly plaquettes."""
    if lx < 2 or ly < 2:
        raise MoveError("honeycomb torus needs lx >= 2 and ly >= 2")
    nv = lx * ly

    def vid(i, j):
        return (i % lx) + lx * (j % ly)

    vertices = {vid(i, j): (i + 0.5 * j, j * math.sqrt(3.0) / 2.0) for j in range(ly) for i in range(lx)}
    edges: dict[int, Edge] = {}
    eid: dict[tuple[str, int, int], int] = {}
    k = 0
    for j in range(ly):
        for i in range(lx):
            for kind, (di, dj) in (("h", (1, 0)), ("v", (0, 1)), ("d", (1, 1))):
                edges[k] = Edge(vid(i, j), vid(i + di, j + dj), k)
                eid[(kind, i, j)] = k
                k += 1
    triangles: dict[int, tuple[int, int, int]] = {}
    t = 0
    for j in range(ly):
        for i in range(lx):
            # lower: (i,j) (i+1,j) (i+1,j+1); upper: (i,j) (i,j+1) (i+1,j+1)
            triangles[t] = (eid[("h", i, j)], eid[("v", (i + 1) % lx, j)], eid[("d", i, j)])
            triangles[t + 1] = (eid[("v", i, j)], eid[("h", i, (j + 1) % ly)], eid[("d", i, j)])
            t += 2
    lat = SurfaceLattice("torus", vertices, edges, triangles)
    assert lat.euler_characteristic() == 0
    lat.check()
    return lat


def polar_vertex_id(cols: int, ring: int, sector: int) -> int:
    """Vertex addressing on the planar patch: ring 0 is the center."""
    if ring == 0:
        return 0
    return 1 + (ring - 1) * cols + (sector % cols)


def polar_position(cols: int, ring: int, sector: int) -> tuple[float, float]:
    if ring == 0:
        return (0.0, 0.0)
    radius = cols / (2.0 * math.pi) + 0.5 * ring
    ang = 2.0 * math.pi * (sector % cols) / cols
    return (radius * math.cos(ang), radius * math.sin(ang))


# Patch layout. build_planar_patch numbers its edges center spokes, ring
# edges (ring 1 outwards), radial spokes, diagonals, and its triangles
# center fan, then a lower and an upper triangle per annulus cell; these
# give every id arithmetically, so builders on the patch need no search.


def _disk_coords(vid: int, cols: int) -> tuple[int, int]:
    """(ring, sector) of a patch vertex; inverse of polar_vertex_id."""
    if vid == 0:
        return 0, 0
    return (vid - 1) // cols + 1, (vid - 1) % cols


def _grid_distance(u: int, v: int, cols: int) -> int:
    """Ring steps plus circular sector steps between two patch vertices."""
    ru, su = _disk_coords(u, cols)
    rv, sv = _disk_coords(v, cols)
    ds = abs(su - sv)
    return abs(ru - rv) + min(ds, cols - ds)


def _eid_ring(rows: int, cols: int, r: int, s: int) -> int:
    """Ring edge (r, s) -> (r, s+1)."""
    return cols + (r - 1) * cols + (s % cols)


def _eid_spoke(rows: int, cols: int, r: int, s: int) -> int:
    """Spoke (r, s) -> (r+1, s); ring 0 is the center."""
    if r == 0:
        return s % cols
    return cols + rows * cols + (r - 1) * cols + (s % cols)


def _eid_diag(rows: int, cols: int, r: int, s: int) -> int:
    """Diagonal (r, s) -> (r+1, s+1)."""
    return cols + rows * cols + (rows - 1) * cols + (r - 1) * cols + (s % cols)


def _tid_lower(rows: int, cols: int, r: int, s: int) -> int:
    """Lower triangle of annulus cell (r, s); the upper one is next."""
    return cols + 2 * ((r - 1) * cols + (s % cols))


def _patch_layout(
    rows: int, cols: int
) -> tuple[list[tuple[int, int, Optional[int]]], list[tuple[int, int, int]]]:
    """build_planar_patch's edges and triangles, listed by id.

    Edge i is (v1, v2, qubit slot), v1 <= v2 as Edge keeps them and the
    slot None on the pinned outer ring; slots count up with edge ids.
    Triangle i is its edge ids in the order the build stores them.
    """
    m, n = rows, cols

    def turned(ids):
        """Sector s holds what sector s + 1 held."""
        return ids[1:] + ids[:1]

    def family(eid, r):
        """Ids of one ring's edges of a family, by sector."""
        first = eid(m, n, r, 0)
        return list(range(first, first + n))

    # vertices by ring and sector; ring 0 is the center, n times over
    vid = [[polar_vertex_id(n, r, s) for s in range(n)] for r in range(m + 1)]
    ends = list(zip(vid[0], vid[1]))
    for r in range(1, m + 1):
        ends += zip(vid[r], turned(vid[r]))
    for r in range(1, m):
        ends += zip(vid[r], vid[r + 1])
    for r in range(1, m):
        ends += zip(vid[r], turned(vid[r + 1]))
    pinned = family(_eid_ring, m)
    slots = [*range(pinned[0]), *[None] * n, *range(pinned[0], len(ends) - n)]
    edges = [(u, v, q) if u <= v else (v, u, q) for (u, v), q in zip(ends, slots)]

    spokes = family(_eid_spoke, 0)
    triangles = list(zip(spokes, turned(spokes), family(_eid_ring, 1)))
    for r in range(1, m):
        # lower (r,s) (r+1,s) (r+1,s+1), then upper (r,s) (r,s+1) (r+1,s+1)
        spokes, diags = family(_eid_spoke, r), family(_eid_diag, r)
        lower = zip(spokes, family(_eid_ring, r + 1), diags)
        upper = zip(family(_eid_ring, r), diags, turned(spokes))
        for cell in zip(lower, upper):
            triangles += cell
    return edges, triangles


def build_planar_patch(
    rows: int, cols: int, punctures: Iterable[tuple[int, int]] = ()
) -> SurfaceLattice:
    """Triangulated disk: a center vertex plus `rows` concentric rings of
    `cols` sectors. The outermost ring is the smooth boundary; its ring
    edges are pinned to the vacuum and carry no qubit. Each annulus cell
    has one diagonal (r, s) -> (r+1, s+1), so azimuthal transport is a
    pure layer of flips plus a rotation.

    Punctures are (ring, sector) plaquette coordinates; (0, *) is the
    center plaquette.
    """
    m, n = rows, cols
    if m < 2 or n < 2:
        # n == 2 gives parallel ring edges per ring, like the theta sphere;
        # every derived structure handles that, so only n < 2 is malformed
        raise MoveError("planar patch needs rows >= 2 and cols >= 2")
    vertices: dict[int, tuple[float, float]] = {0: (0.0, 0.0)}
    for r in range(1, m + 1):
        for s in range(n):
            vertices[polar_vertex_id(n, r, s)] = polar_position(n, r, s)
    layout_edges, layout_triangles = _patch_layout(m, n)
    edges = {e: Edge(*ends) for e, ends in enumerate(layout_edges)}
    triangles = dict(enumerate(layout_triangles))

    punctures = list(punctures)  # read once: an iterator is consumed by the loop
    marked: set[int] = set()
    for ring, sector in punctures:
        if not (0 <= ring <= m - 1):
            raise MoveError(f"puncture ring {ring} outside the interior (0..{m - 1})")
        marked.add(polar_vertex_id(n, ring, sector))
    if len(marked) != len(punctures):
        raise MoveError("duplicate punctures")

    lat = SurfaceLattice("disk", vertices, edges, triangles, punctures=frozenset(marked))
    # pairwise non-adjacent: no lattice edge joins two punctures
    for rec in lat.edges.values():
        if rec.v1 in marked and rec.v2 in marked:
            raise MoveError(f"adjacent punctures {rec.v1}, {rec.v2}")
    assert lat.euler_characteristic() == 1
    lat.check()
    return lat


# ---- rewrites ----------------------------------------------------------------


def _corner(lat: SurfaceLattice, edge_id: int, triangle_id: int) -> tuple[int, dict[int, int]]:
    """Corner of a triangle across one of its edges, and the triangle's
    two other sides keyed by the endpoint of that edge each meets.

    Raises MoveError unless the other sides run from the edge's two
    distinct endpoints to one third vertex.
    """
    rec = lat.edges[edge_id]
    u, v = rec.v1, rec.v2
    x, y = (e for e in lat.triangles[triangle_id] if e != edge_id)
    rx, ry = lat.edges[x], lat.edges[y]
    if v in (rx.v1, rx.v2) and u in (ry.v1, ry.v2):
        x, y, rx, ry = y, x, ry, rx
    elif not (u in (rx.v1, rx.v2) and v in (ry.v1, ry.v2)):
        raise MoveError(f"triangle {triangle_id} does not span 3 vertices")
    w = rx.v1 + rx.v2 - u  # x's far end, y's too in a proper triangle
    if u == v or w in (u, v) or w != ry.v1 + ry.v2 - v:
        raise MoveError(f"triangle {triangle_id} does not span 3 vertices")
    return w, {u: x, v: y}


def _flip_roles(lat: SurfaceLattice, edge_id: int):
    """Quadrilateral data for a 2-2 flip; raises MoveError when degenerate."""
    if edge_id not in lat.edges:
        raise MoveError(f"no edge {edge_id}")
    rec = lat.edges[edge_id]
    if rec.pinned:
        raise MoveError(f"edge {edge_id} is pinned (boundary)")
    ts = lat._maps()[0][edge_id]
    if len(ts) != 2:
        raise MoveError(f"edge {edge_id} is a boundary edge")
    t1, t2 = ts
    w1, at1 = _corner(lat, edge_id, t1)
    w2, at2 = _corner(lat, edge_id, t2)
    if set(at1.values()) & set(at2.values()):
        raise MoveError(f"edge {edge_id}: triangles share a second edge (degenerate quad)")
    if w1 == w2:
        raise MoveError(f"edge {edge_id}: both apexes coincide (degenerate quad)")
    u, v = rec.v1, rec.v2
    # leg roles as used by the amplitude rule: a,b in t1 at v,u; c,d in t2 at u,v
    a, b, c, d = at1[v], at1[u], at2[u], at2[v]
    for corner in (u, v, w1, w2):
        if corner in lat.punctures:
            raise MoveError(f"edge {edge_id}: flip touches puncture plaquette {corner}")
    return t1, t2, u, v, w1, w2, a, b, c, d


def _update_incidence(lat: SurfaceLattice, edge_tris, vertex_edges) -> None:
    """Apply the incidence changes a local rewrite names to the kept maps.

    edge_tris and vertex_edges each list (key, removed, added) for one
    entry of the edge -> triangles or vertex -> edges map: the entry
    drops the ids in removed, which it must hold, gains those in added,
    and stays an ascending tuple, shared between versions. added None
    deletes the entry, for an edge or vertex the rewrite removed.
    """
    for kept, changes in ((lat._edge_tris, edge_tris), (lat._vertex_edges, vertex_edges)):
        for key, removed, added in changes:
            if added is None:
                del kept[key]
                continue
            ids = list(kept.get(key, ()))
            for i in removed:
                ids.remove(i)
            if added:
                ids += added
                ids.sort()
            kept[key] = tuple(ids)


def _slots(lat: SurfaceLattice, edge_ids: Iterable[int]) -> tuple[int, ...]:
    """Qubit slot of each edge, -1 for a pinned one."""
    return tuple(-1 if lat.edges[e].qubit is None else lat.edges[e].qubit for e in edge_ids)


def _flip(lat: SurfaceLattice, edge_id: int) -> MoveRecord:
    """2-2 flip in place on a private copy; see pachner_22."""
    t1, t2, u, v, w1, w2, a, b, c, d = _flip_roles(lat, edge_id)
    qubits = _slots(lat, (edge_id, a, b, c, d))
    lat.edges[edge_id] = Edge(min(w1, w2), max(w1, w2), lat.edges[edge_id].qubit)
    # id handoff: the face at the lower old endpoint inherits the id of the
    # old face with the lower apex, so flipping the same edge twice is the
    # identity on triangle ids, not just up to isomorphism. The edge keeps
    # t1 and t2; one leg of each old face crosses to the other face.
    face_u, face_v = (edge_id, b, c), (edge_id, a, d)
    if w1 < w2:
        lat.triangles[t1], lat.triangles[t2] = face_u, face_v
        crossing = ((a, (t1,), (t2,)), (c, (t2,), (t1,)))
    else:
        lat.triangles[t1], lat.triangles[t2] = face_v, face_u
        crossing = ((b, (t1,), (t2,)), (d, (t2,), (t1,)))
    moved = (edge_id,)
    _update_incidence(lat, crossing, ((u, moved, ()), (v, moved, ()), (w1, (), moved), (w2, (), moved)))
    lat.version += 1
    return MoveRecord(kind=F_MOVE, edge=edge_id, legs=(a, b, c, d), triangles=(t1, t2), qubits=qubits)


def pachner_22(lat: SurfaceLattice, edge_id: int) -> tuple[SurfaceLattice, MoveRecord]:
    """Flip an interior edge across its quadrilateral; counts conserved."""
    out = lat._fork()
    return out, _flip(out, edge_id)


def _subdivide(lat: SurfaceLattice, triangle_id: int) -> MoveRecord:
    """1-3 move in place on a private copy; see pachner_13."""
    if triangle_id not in lat.triangles:
        raise MoveError(f"no triangle {triangle_id}")
    es = lat.triangles[triangle_id]
    if len(set(es)) != 3:
        raise MoveError(f"triangle {triangle_id} is degenerate")
    b_e, a_e, c_e = sorted(es)
    p, q, r = (_corner(lat, e, triangle_id)[0] for e in (a_e, b_e, c_e))
    for vtx in (p, q, r):
        if vtx in lat.punctures:
            raise MoveError(f"triangle {triangle_id} touches puncture plaquette {vtx}")
    w = max(lat.vertices) + 1
    px = sum(lat.vertices[vv][0] for vv in (p, q, r)) / 3.0
    py = sum(lat.vertices[vv][1] for vv in (p, q, r)) / 3.0

    next_edge = max(lat.edges) + 1
    slots = lat.qubit_slots()
    next_slot = (slots[-1] + 1) if slots else 0
    d_e, e_e, f_e = next_edge, next_edge + 1, next_edge + 2
    new_slots = (next_slot, next_slot + 1, next_slot + 2)
    qubits = _slots(lat, (a_e, b_e, c_e))

    lat.edges[d_e] = Edge(min(w, p), max(w, p), new_slots[0])
    lat.edges[e_e] = Edge(min(w, r), max(w, r), new_slots[1])
    lat.edges[f_e] = Edge(min(w, q), max(w, q), new_slots[2])

    next_tri = max(lat.triangles) + 1
    lat.triangles[triangle_id] = (a_e, f_e, e_e)
    lat.triangles[next_tri] = (b_e, e_e, d_e)
    lat.triangles[next_tri + 1] = (c_e, d_e, f_e)

    lat.vertices[w] = (px, py)
    t, n1, n2 = triangle_id, next_tri, next_tri + 1
    _update_incidence(
        lat,
        ((b_e, (t,), (n1,)), (c_e, (t,), (n2,)), (d_e, (), (n1, n2)), (e_e, (), (t, n1)), (f_e, (), (t, n2))),
        ((w, (), (d_e, e_e, f_e)), (p, (), (d_e,)), (r, (), (e_e,)), (q, (), (f_e,))),
    )
    lat.version += 1
    return MoveRecord(
        kind=PACHNER_13,
        triangles=(triangle_id,),
        legs=(a_e, b_e, c_e),
        vertex=w,
        new_edges=(d_e, e_e, f_e),
        new_triangles=(triangle_id, next_tri, next_tri + 1),
        new_slots=new_slots,
        qubits=qubits,
    )


def pachner_13(lat: SurfaceLattice, triangle_id: int) -> tuple[SurfaceLattice, MoveRecord]:
    """Subdivide a triangle: one new vertex, three new qubit edges."""
    out = lat._fork()
    return out, _subdivide(out, triangle_id)


def pachner_31_roles(lat: SurfaceLattice, vertex_id: int):
    """Role assignment for removing a degree-3 vertex; mirrors pachner_13."""
    if vertex_id not in lat.vertices:
        raise MoveError(f"no vertex {vertex_id}")
    et, ve = lat._maps()
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
    # outer edge -> its triangle's spokes, keyed by the outer endpoint each meets
    sides = {e: _corner(lat, e, t)[1] for t, e in zip(tris, outer)}
    corners = {x for at in sides.values() for x in at}
    if len(corners) != 3:
        raise MoveError(f"vertex {vertex_id}: outer edges do not form a triangle")
    for vtx in corners:
        if vtx in lat.punctures:
            raise MoveError(f"vertex {vertex_id}: removal touches puncture plaquette {vtx}")

    def spoke(e):
        """The spoke to the corner across outer edge e."""
        (hit,) = set(incident) - set(sides[e].values())
        return hit

    return tris, (a_e, b_e, c_e), (spoke(a_e), spoke(c_e), spoke(b_e))


def _unsubdivide(lat: SurfaceLattice, vertex_id: int) -> MoveRecord:
    """3-1 move in place on a private copy; see pachner_31."""
    tris, (a_e, b_e, c_e), (d_e, e_e, f_e) = pachner_31_roles(lat, vertex_id)
    released = tuple(lat.edges[e].qubit for e in (d_e, e_e, f_e))
    if any(s is None for s in released):
        raise MoveError(f"vertex {vertex_id}: spokes include a pinned edge")
    spokes = tuple((e, lat.edges[e].v1 + lat.edges[e].v2 - vertex_id) for e in (d_e, e_e, f_e))
    # each outer edge leaves its old triangle for tris[0], the one kept
    old_tri = {e: t for t in tris for e in lat.triangles[t] if e in (a_e, b_e, c_e)}
    qubits = _slots(lat, (a_e, b_e, c_e))
    for e in (d_e, e_e, f_e):
        del lat.edges[e]
    for t in tris:
        del lat.triangles[t]
    lat.triangles[tris[0]] = (a_e, b_e, c_e)
    del lat.vertices[vertex_id]
    _update_incidence(
        lat,
        [(e, (t,), (tris[0],)) for e, t in old_tri.items() if t != tris[0]]
        + [(e, (), None) for e, _ in spokes],
        [(corner, (e,), ()) for e, corner in spokes] + [(vertex_id, (), None)],
    )
    lat.version += 1
    return MoveRecord(
        kind=PACHNER_31,
        vertex=vertex_id,
        legs=(a_e, b_e, c_e),
        new_edges=(d_e, e_e, f_e),
        triangles=tuple(tris),
        new_triangles=(tris[0],),
        released_slots=tuple(int(s) for s in released),
        qubits=qubits,
    )


def pachner_31(lat: SurfaceLattice, vertex_id: int) -> tuple[SurfaceLattice, MoveRecord]:
    """Remove a degree-3 vertex; inverse of pachner_13."""
    out = lat._fork()
    return out, _unsubdivide(out, vertex_id)


def _rewrite(lat: SurfaceLattice, record: MoveRecord) -> MoveRecord:
    """Replay one local record in place on a private copy (see _fork)."""
    if record.kind == F_MOVE:
        return _flip(lat, record.edge)
    if record.kind == PACHNER_13:
        return _subdivide(lat, record.triangles[0])
    if record.kind == PACHNER_31:
        return _unsubdivide(lat, record.vertex)
    raise MoveError(f"unknown move kind {record.kind}")


def replay_moves(lat: SurfaceLattice, records: Iterable[MoveRecord]) -> SurfaceLattice:
    """Lattice after local records in order, rewritten on one private copy.

    Equal, version included, to chaining pachner_22, pachner_13 and
    pachner_31 over the records, but the lattice dicts are copied once
    instead of once per move.
    """
    out = lat._fork()
    for rec in records:
        _rewrite(out, rec)
    return out


# ---- relabelings by a vertex map -------------------------------------------------


def _relabel(
    lat: SurfaceLattice, target: SurfaceLattice, vmap: dict[int, int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Full vertex map and edge image of a vertex bijection onto target.

    Vertices vmap omits stay fixed. Each edge maps to an edge of the same
    kind (qubit or pinned) between the image endpoints, parallel edges
    matched in sorted-id order, and the three edges of every triangle to
    those of a target triangle. Raises MoveError when any of that fails.
    """
    if not vmap.keys() <= lat.vertices.keys():
        raise MoveError("vertex map names a vertex the lattice does not have")
    full = {v: vmap.get(v, v) for v in lat.vertices}
    images = set(full.values())
    if len(images) != len(full):
        raise MoveError("vertex map is not injective")
    if images != target.vertices.keys():
        raise MoveError("vertex map does not land on the target's vertices")
    if len(lat.edges) != len(target.edges) or len(lat.triangles) != len(target.triangles):
        raise MoveError("target has a different number of edges or triangles")
    # free target edges per (v1, v2, pinned), v1 <= v2 as Edge keeps
    # them, largest id first so that pop() hands out the smallest
    free: dict[tuple[int, int, bool], list[int]] = {}
    for e, rec in sorted(target.edges.items(), reverse=True):
        free.setdefault((rec.v1, rec.v2, rec.qubit is None), []).append(e)
    emap: dict[int, int] = {}
    for e, rec in sorted(lat.edges.items()):
        a, b = full[rec.v1], full[rec.v2]
        pinned = rec.qubit is None
        key = (a, b, pinned) if a <= b else (b, a, pinned)
        hits = free.get(key)
        if not hits:
            if (key[0], key[1], not pinned) in free:
                raise MoveError(f"edge {e} would land on an edge of the other kind")
            raise MoveError(f"edge {e} has no image under the vertex map")
        emap[e] = hits.pop()
    # target triangles counted as sorted edge-id triples, a true multiset
    # of three edges even where a triangle repeats an edge
    tris: dict[tuple[int, ...], int] = {}
    for es in target.triangles.values():
        key = tuple(sorted(es))
        tris[key] = tris.get(key, 0) + 1
    for t, (x, y, z) in lat.triangles.items():
        img = tuple(sorted((emap[x], emap[y], emap[z])))
        left = tris.get(img)
        if not left:
            raise MoveError(f"triangle {t} does not land on a target triangle")
        tris[img] = left - 1
    return full, emap


def apply_cpi(
    lat: SurfaceLattice,
    vmap: dict[int, int],
    target: Optional[SurfaceLattice] = None,
) -> tuple[SurfaceLattice, MoveRecord]:
    """Relabel qubits by a vertex map: vertex map in, slot map derived.

    vmap maps vertices of `lat` to vertices of the target layout
    (default: `lat` itself); vertices it omits stay fixed. Accepted only
    when it is a bijection that carries every qubit edge to a qubit
    edge, every pinned edge to a pinned edge and every triangle to a
    triangle (MoveError otherwise). Punctures ride the map. The
    PERMUTATION record holds the full vertex map and the slot map sigma
    it induces on every qubit slot.
    """
    tgt = target if target is not None else lat
    full, emap = _relabel(lat, tgt, vmap)
    sigma = {
        lat.edges[e].qubit: tgt.edges[img].qubit for e, img in emap.items() if not lat.edges[e].pinned
    }
    out = _relabeled(tgt, full, lat.punctures, lat.version)
    return out, MoveRecord(kind=PERMUTATION, sigma=sigma, vmap=full)


def _relabeled(
    target: SurfaceLattice, vmap: dict[int, int], punctures: Iterable[int], version: int
) -> SurfaceLattice:
    """End lattice of a relabeling onto target by the full vertex map
    vmap, from a lattice at `version` with these punctures: target's
    complex, the punctures moved by vmap, version max(version,
    target.version) + 1."""
    out = replace_lattice(target, punctures=frozenset(vmap[p] for p in punctures))
    out.version = max(version, target.version) + 1
    return out


# ---- serialization ---------------------------------------------------------------


def lattice_to_json(lat: SurfaceLattice) -> str:
    doc = {
        "topology": lat.topology,
        "vertices": [
            {"id": v, "x": format(x, ".12g"), "y": format(y, ".12g")}
            for v, (x, y) in sorted(lat.vertices.items())
        ],
        "edges": [
            {"id": e, "v1": rec.v1, "v2": rec.v2, "qubit": rec.qubit}
            for e, rec in sorted(lat.edges.items())
        ],
        "triangles": [{"id": t, "edges": list(es)} for t, es in sorted(lat.triangles.items())],
        "punctures": sorted(lat.punctures),
        "version": lat.version,
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def lattice_from_json(text: str) -> SurfaceLattice:
    """Inverse of lattice_to_json; text that is not a well-formed lattice
    document raises MoveError."""
    with _refusing_malformed("lattice JSON"):
        doc = json.loads(text)
        lat = SurfaceLattice(
            topology=doc["topology"],
            vertices={int(v["id"]): (float(v["x"]), float(v["y"])) for v in doc["vertices"]},
            edges={
                int(e["id"]): Edge(int(e["v1"]), int(e["v2"]), None if e["qubit"] is None else int(e["qubit"]))
                for e in doc["edges"]
            },
            triangles={int(t["id"]): tuple(int(x) for x in t["edges"]) for t in doc["triangles"]},
            punctures=frozenset(int(p) for p in doc["punctures"]),
            version=int(doc["version"]),
        )
        lat.check()
    return lat
