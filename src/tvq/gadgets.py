"""Transport protocols packaged as replayable move schedules.

A protocol here is a ``MoveSchedule``: an ordered tuple of move groups,
each either LOCAL (one or more layers of moves whose qubit supports are
pairwise disjoint inside a layer) or PERMUTATION (a single
connectivity-preserving relocation of qubits). Schedules are built by
dry-running the lattice rewrites, so every record carries concrete edge
and triangle ids and replays deterministically on a state.

Builders:

* ``split_row`` / ``merge_rows`` insert or remove one ring of vertices
  across a cyclic row of annulus cells. The layer count is constant,
  independent of the row length.
* ``shear_step`` translates a puncture by ``stride`` sectors: a constant
  number of flip layers followed by one ramped-rotation permutation.
* ``braid_schedule`` winds one puncture once around another as a fixed
  number of shear steps; depth does not grow with distance.
* ``baseline_schedule`` moves a puncture one sector per hop, so the
  group count grows linearly with the path. This is the correctness
  oracle the braid is compared against.
* ``logical_action`` returns the matrix a closed protocol induces on an
  orthonormal basis of the encoded subspace; ``statevec.code_space``
  builds that basis, by default with its own limits.

Depth accounting: ``local_depth`` is the most layers in any LOCAL group,
``permutation_range`` the largest qubit displacement of any PERMUTATION
group measured combinatorially (ring steps plus circular sector steps on
the patch grid), and ``total_steps`` the number of groups; the grid
metric is the one that stays proportional to the stride when the patch
is rescaled.

``shear_step``, ``braid_schedule``, ``baseline_schedule`` and
``run_schedule``, like ``circuits.compile_schedule``, pause Python's
cyclic garbage collector while they run (``_gc_paused``).
"""

from __future__ import annotations

import functools
import gc
import json
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .fusion import FusionData
from .lattice import (
    F_MOVE,
    PACHNER_13,
    PACHNER_31,
    PERMUTATION,
    MoveError,
    MoveRecord,
    SurfaceLattice,
    _corner,
    _disk_coords,
    _eid_diag,
    _eid_spoke,
    _flip,
    _grid_distance,
    _patch_layout,
    _relabeled,
    _subdivide,
    _tid_lower,
    _unsubdivide,
    apply_cpi,
    build_planar_patch,
    polar_vertex_id,
    replace_lattice,
    replay_moves,
)
from .statevec import (
    StringNetState,
    VersionError,
    _defer_permutation,
    _locate,
    _materialize,
    _sig_key,
    apply_fmove,
    apply_pachner13,
    apply_pachner31,
    code_space,
    diff_norm,
    ground_project,
    rebind_state,
)

LOCAL = "LOCAL"
CODE_TOL = 1e-10  # relative drift allowed by run_schedule(assert_code_space=True)

__all__ = [
    "LOCAL",
    "MoveGroup",
    "MoveSchedule",
    "DepthReport",
    "run_schedule",
    "shear_step",
    "braid_arena",
    "braid_schedule",
    "baseline_schedule",
    "split_row",
    "merge_rows",
    "logical_action",
    "schedule_to_json",
]


def _gc_paused(fn):
    """Run fn with Python's cyclic garbage collector paused.

    A schedule build, compile or replay allocates per-move records and
    gates that stay alive until it returns, so a collection during the
    call would only re-walk that growing heap: with the collector on,
    the cost per move would rise with the code distance. The pause is
    process-wide (gc.disable), not per thread. On exit the caller's
    setting is restored exactly, also when fn raises: a call made with
    the collector already off, such as a nested one, leaves it off.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


def _check_disjoint(layer: Iterable[MoveRecord]) -> None:
    """A parallel layer's moves must touch pairwise disjoint qubit slots."""
    seen: set[int] = set()
    for rec in layer:
        slots = rec.slots()
        if seen & slots:
            raise MoveError("parallel layer has overlapping move supports")
        seen |= slots


@dataclass(frozen=True)
class MoveGroup:
    """One protocol step: parallel move layers, or one permutation.

    kind is LOCAL or PERMUTATION. For LOCAL groups ``layers`` holds one
    tuple of records per parallel layer, whose moves must touch pairwise
    disjoint qubit slots. PERMUTATION groups hold exactly one PERMUTATION
    record plus the prebuilt target lattice and the grid-metric
    displacement of the relabeling. The kind, the record kinds (a LOCAL
    group holds only F_MOVE, PACHNER_13 and PACHNER_31 records), the
    record count and the disjointness are checked once, on construction
    (MoveError).
    """

    kind: str
    layers: tuple[tuple[MoveRecord, ...], ...]
    target: SurfaceLattice | None = None
    range: float = 0.0
    tag: str = ""

    def __post_init__(self):
        if self.kind not in (LOCAL, PERMUTATION):
            raise MoveError(f"unknown group kind {self.kind!r}")
        if self.kind == PERMUTATION and [r.kind for r in self.records()] != [PERMUTATION]:
            raise MoveError("permutation group must hold exactly one PERMUTATION record")
        for layer in self.layers:
            if self.kind == LOCAL:
                for rec in layer:
                    if rec.kind not in (F_MOVE, PACHNER_13, PACHNER_31):
                        raise MoveError(f"local group cannot hold a {rec.kind!r} record")
            _check_disjoint(layer)

    def records(self) -> Iterable[MoveRecord]:
        for layer in self.layers:
            yield from layer

    def to_jsonable(self) -> dict:
        doc = {
            "kind": self.kind,
            "tag": self.tag,
            "layers": [[rec.to_jsonable() for rec in layer] for layer in self.layers],
        }
        if self.kind == PERMUTATION:
            doc["range"] = self.range
        return doc


@dataclass(frozen=True)
class MoveSchedule:
    groups: tuple[MoveGroup, ...] = ()

    def records(self) -> Iterable[MoveRecord]:
        for group in self.groups:
            yield from group.records()

    def move_count(self) -> int:
        return sum(1 for _ in self.records())

    def depth_report(self) -> DepthReport:
        local_depth = max(
            (len(g.layers) for g in self.groups if g.kind == LOCAL), default=0
        )
        permutation_range = max(
            (g.range for g in self.groups if g.kind == PERMUTATION), default=0.0
        )
        return DepthReport(
            local_depth=local_depth,
            permutation_range=float(permutation_range),
            total_steps=len(self.groups),
        )

    def then(self, other: "MoveSchedule") -> "MoveSchedule":
        return MoveSchedule(self.groups + other.groups)

    def to_jsonable(self) -> dict:
        return {"groups": [g.to_jsonable() for g in self.groups]}


@dataclass(frozen=True)
class DepthReport:
    local_depth: int
    permutation_range: float
    total_steps: int

    def to_jsonable(self) -> dict:
        return {
            "local_depth": self.local_depth,
            "permutation_range": self.permutation_range,
            "total_steps": self.total_steps,
        }


def schedule_to_json(schedule: MoveSchedule) -> str:
    return json.dumps(schedule.to_jsonable(), indent=2, sort_keys=True)


# -- canonical patch arithmetic ---------------------------------------------
#
# All builders below run on lattices with the complex of a
# build_planar_patch output, whose ids the layout helpers in tvq.lattice
# give arithmetically, so move targets need no search. _canonical_disk
# checks that complex once per schedule build against the layout
# arithmetic itself (lattice._patch_layout), building no second patch,
# and raises MoveError when it does not hold, e.g. after a split that has
# not been merged back. Quad corners come from lattice._corner.


def _canonical_disk(lat: SurfaceLattice) -> tuple[int, int, SurfaceLattice]:
    """(rows, cols, patch) for a lattice with build_planar_patch(rows,
    cols)'s complex: its topology, its edges (endpoints, qubit slots and
    pinning) and its triangles (ids and edge sets), compared with the
    layout arithmetic. Vertex positions and punctures are not compared.
    Raises MoveError otherwise.

    patch is lat itself without punctures, at version 0: the complex of
    that build, with lat's vertex positions and the edge order of lat's
    triangles. The shear steps target it.
    """
    bad = MoveError("lattice does not have the canonical patch layout")
    if lat.topology != "disk" or 0 not in lat.vertices:
        raise bad
    cols = len(lat.vertex_edges()[0])
    if cols < 2 or (len(lat.vertices) - 1) % cols:
        raise bad
    rows = (len(lat.vertices) - 1) // cols
    if rows < 2:
        raise bad
    edges, triangles = _patch_layout(rows, cols)
    if len(lat.edges) != len(edges) or len(lat.triangles) != len(triangles):
        raise bad
    try:
        got_edges = [lat.edges[e] for e in range(len(edges))]
        got_triangles = [lat.triangles[t] for t in range(len(triangles))]
    except KeyError:
        raise bad from None
    if [(rec.v1, rec.v2, rec.qubit) for rec in got_edges] != edges:
        raise bad
    # edge order within a triangle is free; equal tuples settle most at once
    if got_triangles != triangles and any(
        sorted(es) != sorted(want) for es, want in zip(got_triangles, triangles)
    ):
        raise bad
    return rows, cols, replace_lattice(lat, punctures=frozenset(), version=0)


# -- schedule execution ------------------------------------------------------


@_gc_paused
def run_schedule(
    state: StringNetState | None,
    lat: SurfaceLattice,
    schedule: MoveSchedule,
    data: FusionData | None = None,
    assert_code_space: bool = False,
) -> tuple[StringNetState | None, SurfaceLattice]:
    """Replay a schedule on a state, or on the lattice alone if state is None.

    Every LOCAL layer is one parallel time step: its group checked, when
    it was built, that the layer's moves touch disjoint qubit slots.
    Without a state each group is rewritten on one private lattice
    copy. With assert_code_space the state is re-projected after every
    LOCAL group and must be left unchanged within CODE_TOL (relative).

    A PERMUTATION group is one step with or without a state: apply_cpi
    checks its vertex map against the group's target and derives the
    end lattice and the slot map. A state only composes a layout from
    that slot map, the config bit that holds each canonical bit, and
    drops amplitudes below the tolerance (_defer_permutation); F-moves
    read their bits through the layout. The bits move home in one pass
    and one sort (materialization) before a 1-3 or 3-1 move, before each
    code-space check and before returning, so no state in another layout
    leaves this function. The result equals a record-by-record replay
    through the public kernels bit for bit.
    """
    cur, cur_lat = state, lat
    layout = None  # bit i holds canonical bit i
    for group in schedule.groups:
        if group.kind == PERMUTATION:
            (rec,) = group.records()
            out_lat, derived = apply_cpi(cur_lat, rec.vmap, target=group.target)
            if cur is not None:
                cur, layout = _defer_permutation(cur, cur_lat, out_lat, derived.sigma, layout)
            cur_lat = out_lat
            continue
        if cur is None:
            cur_lat = replay_moves(cur_lat, group.records())
            continue
        for rec in group.records():
            if rec.kind == F_MOVE:
                cur, cur_lat = apply_fmove(cur, cur_lat, rec.edge, data, layout=layout)
                continue
            cur, layout = _materialize(cur, layout), None
            if rec.kind == PACHNER_13:
                cur, cur_lat = apply_pachner13(cur, cur_lat, rec.triangles[0], data)
            else:
                cur, cur_lat = apply_pachner31(cur, cur_lat, rec.vertex, data)
        if assert_code_space:
            cur, layout = _materialize(cur, layout), None
            proj = ground_project(cur, cur_lat, data)
            if diff_norm(cur_lat, proj, cur) > CODE_TOL * max(cur.norm(), 1.0):
                raise MoveError("schedule left the code space after a local group")
    if cur is not None:
        cur = _materialize(cur, layout)
    return cur, cur_lat


# -- shear steps and braids --------------------------------------------------


def _cpi_grid_range(lat: SurfaceLattice, vmap: dict[int, int], cols: int) -> float:
    ends = {v for edge in lat.edges.values() if edge.qubit is not None for v in (edge.v1, edge.v2)}
    return float(max((_grid_distance(v, vmap[v], cols) for v in ends), default=0))


@_gc_paused
def shear_step(
    lat: SurfaceLattice,
    anyon_id: int,
    direction: int = -1,
    stride: int | None = None,
    data: FusionData | None = None,
) -> MoveSchedule:
    """Translate a puncture by `stride` sectors around its ring.

    The schedule has two groups. First a LOCAL group flips one edge per
    cell in the `stride` annuli just outside the puncture ring: the
    diagonals when direction is -1, the radial spokes when +1 (the two
    cases are mirror images; which edge family lines back up with the
    canonical layout depends on the sense of rotation). Flips in the
    same annulus interact only through shared sector edges and adjacent
    annuli share one ring, so annulus parity times sector parity gives
    at most four parallel layers regardless of patch size. Then one
    PERMUTATION group applies the ramped rotation (full `stride` inside
    the puncture ring, tapering by one per annulus, zero outside) that
    maps the flipped lattice back onto the canonical layout.

    Everything at or below the puncture ring rides the rotation
    rigidly; the center vertex is its fixed point, so a puncture at the
    center may spectate but a puncture anywhere else blocks the step
    (it would be dragged along or torn by the flips). Raises MoveError
    when the lattice is not canonical, the sector count is odd (no
    two-way parity layering) or 2 (parallel ring edges, which the
    relabeling cannot tell apart), the stride is not a positive
    integer, a spectator puncture sits off center, or there are not
    enough rings between the puncture and the pinned boundary.
    """
    return _shear(lat, anyon_id, direction, stride)[0]


def _shear(
    lat: SurfaceLattice, anyon_id: int, direction: int, stride: int | None
) -> tuple[MoveSchedule, SurfaceLattice]:
    """shear_step's schedule plus the lattice it ends on."""
    groups, end = _shear_reusing({}, _canonical_disk(lat), lat, anyon_id, direction, stride)
    return MoveSchedule(groups), end


def _shear_reusing(
    built: dict[tuple[int, int, int], tuple[MoveGroup, MoveGroup]],
    disk: tuple[int, int, SurfaceLattice],
    lat: SurfaceLattice,
    anyon_id: int,
    direction: int,
    stride: int | None,
) -> tuple[tuple[MoveGroup, MoveGroup], SurfaceLattice]:
    """One shear step's groups and the lattice they end on.

    disk is _canonical_disk(lat), or that of any lattice with lat's
    complex. built holds the steps of one schedule build, keyed by
    (direction, stride, base ring); a kept step is reused, group objects
    included. Every call checks its arguments and lat's punctures.
    """
    rows, cols, patch = disk
    if anyon_id not in lat.punctures:
        raise MoveError(f"vertex {anyon_id} is not a puncture")
    if direction not in (-1, 1):
        raise MoveError("direction must be -1 or +1")
    if cols % 2:
        raise MoveError("sector count must be even for parallel layering")
    if cols == 2:
        # ring edges come in parallel pairs, which apply_cpi matches by
        # id, so the relabeling would not map triangles to triangles
        raise MoveError("shear needs at least 4 sectors")
    try:
        k = max(1, cols // 6) if stride is None else operator.index(stride)
    except TypeError:
        raise MoveError(f"stride must be an integer, got {stride!r}") from None
    if k < 1:
        raise MoveError("stride must be positive")
    base = _disk_coords(anyon_id, cols)[0] + 1
    for p in lat.punctures:
        # the rigid block would drag any off-center puncture along, and a
        # puncture in the sheared corridor would break the flip pattern;
        # only the rotation's fixed point, the center vertex 0, is safe
        # for spectators
        if p not in (anyon_id, 0):
            raise MoveError("shear is blocked by another off-center puncture")
    if base + k > rows:
        raise MoveError("not enough rings between the puncture and the boundary")
    groups = built.get((direction, k, base))
    if groups is None:
        groups = built[direction, k, base] = _build_shear(disk, direction, k, base)
    # the step ends where apply_cpi's relabeling would after the step's
    # flips (lattice._relabeled); no puncture the checks allow touches a
    # flip, so the records hold for lat
    flips, rotation = groups
    (perm,) = rotation.records()
    flipped = lat.version + sum(len(layer) for layer in flips.layers)
    return groups, _relabeled(patch, perm.vmap, lat.punctures, flipped)


def _build_shear(
    disk: tuple[int, int, SurfaceLattice], direction: int, k: int, base: int
) -> tuple[MoveGroup, MoveGroup]:
    """The flip and rotation groups of a shear step, built on the bare
    canonical patch, whose rotation group targets that patch."""
    rows, cols, patch = disk
    # dry-run the flips on one private copy; ids are stable so targets
    # come from arithmetic
    eid = _eid_diag if direction == -1 else _eid_spoke
    layers: dict[tuple[int, int], list[MoveRecord]] = {}
    cur = patch._fork()
    for j in range(k):
        for s in range(cols):
            layers.setdefault((j % 2, s % 2), []).append(_flip(cur, eid(rows, cols, base + j, s)))
    layer_order = [(0, 0), (0, 1), (1, 0), (1, 1)]
    local_layers = tuple(
        tuple(layers[key]) for key in layer_order if key in layers
    )
    vmap: dict[int, int] = {0: 0}
    for vid in patch.vertices:
        if vid == 0:
            continue
        r, s = _disk_coords(vid, cols)
        if r <= base:
            rho = direction * k
        elif r < base + k:
            rho = direction * (k - (r - base))
        else:
            rho = 0
        vmap[vid] = polar_vertex_id(cols, r, s + rho)
    perm = apply_cpi(cur, vmap, target=patch)[1]
    grange = _cpi_grid_range(cur, vmap, cols)
    return (
        MoveGroup(LOCAL, local_layers, tag="shear flips"),
        MoveGroup(PERMUTATION, ((perm,),), target=patch, range=grange, tag="shear rotation"),
    )


def braid_arena(d: int) -> tuple[SurfaceLattice, int, int]:
    """The patch of the distance-d braid: d // 2 + 4 rings of 3d sectors,
    one puncture at the center and one at ring 2, sector 0.

    Returns (lattice, cols, the moving puncture). Raises MoveError
    unless d is a positive even integer: the braid's six equal shears
    need a sector count divisible by 6.
    """
    try:
        d = operator.index(d)
    except TypeError:
        raise MoveError(f"braid distance must be a positive even integer, got {d!r}") from None
    if d < 2 or d % 2:
        raise MoveError(f"braid distance must be a positive even integer, got {d}")
    rows, cols = d // 2 + 4, 3 * d
    lat = build_planar_patch(rows, cols, punctures=[(0, 0), (2, 0)])
    return lat, cols, polar_vertex_id(cols, 2, 0)


@_gc_paused
def braid_schedule(
    lat: SurfaceLattice,
    anyon_a: int,
    anyon_b: int,
    steps: int = 6,
    data: FusionData | None = None,
) -> MoveSchedule:
    """Wind anyon_a once counterclockwise around anyon_b.

    anyon_b must sit at the rotation center (the fixed point of every
    shear), anyon_a anywhere strictly outside it. The loop is `steps`
    equal shear steps of stride cols/steps, so the group count and the
    layer count per group are independent of the patch size; only the
    permutation range grows with the stride. The steps are equal, so
    one step is built and its two group objects are repeated. The
    composite returns the lattice to its exact starting signature.
    """
    disk = _canonical_disk(lat)
    rows, cols, _ = disk
    if set(lat.punctures) != {anyon_a, anyon_b}:
        raise MoveError("braid needs exactly the two named punctures")
    if _disk_coords(anyon_b, cols)[0] != 0:
        raise MoveError("the stationary puncture must sit at the rotation center")
    ring_a = _disk_coords(anyon_a, cols)[0]
    if ring_a < 1:
        raise MoveError("the moving puncture must sit outside the center")
    if steps < 1 or cols % steps:
        raise MoveError("steps must divide the sector count")
    k = cols // steps
    if ring_a + 1 + k > rows:
        raise MoveError("not enough rings between the puncture and the boundary")

    groups: list[MoveGroup] = []
    built: dict = {}
    cur = lat
    cur_a = anyon_a
    sec_a = _disk_coords(anyon_a, cols)[1]
    for _ in range(steps):
        step, cur = _shear_reusing(built, disk, cur, cur_a, -1, k)
        groups.extend(step)
        sec_a = (sec_a - k) % cols
        cur_a = polar_vertex_id(cols, ring_a, sec_a)
        if cur_a not in cur.punctures:
            raise MoveError("puncture tracking lost during braid")
    if not cur.same_signature(lat):
        raise MoveError("braid did not return the lattice to its start")
    return MoveSchedule(tuple(groups))


@_gc_paused
def baseline_schedule(
    lat: SurfaceLattice,
    anyon_id: int,
    path: Sequence[int],
    data: FusionData | None = None,
) -> MoveSchedule:
    """One stride-1 shear per hop along a ring path; linear in its length.

    path lists the target vertices in order; each must be the next
    sector over (either way around) on the anyon's own ring. An empty
    path is the empty schedule. Hops in one direction repeat the group
    objects of the first such hop.
    """
    disk = _canonical_disk(lat)
    cols = disk[1]
    if anyon_id not in lat.punctures:
        raise MoveError(f"vertex {anyon_id} is not a puncture")
    groups: list[MoveGroup] = []
    built: dict = {}
    cur = lat
    cur_id = anyon_id
    for nxt in path:
        if nxt not in cur.vertices:
            raise MoveError(f"path vertex {nxt} is not on the lattice")
        r0, s0 = _disk_coords(cur_id, cols)
        r1, s1 = _disk_coords(nxt, cols)
        if r1 != r0:
            raise MoveError("path must stay on the puncture's ring")
        delta = (s1 - s0) % cols
        if delta == 1:
            direction = 1
        elif delta == cols - 1:
            direction = -1
        else:
            raise MoveError("path hops must move to an adjacent sector")
        if nxt in cur.punctures:
            raise MoveError("path runs into another puncture")
        step, cur = _shear_reusing(built, disk, cur, cur_id, direction, 1)
        groups.extend(step)
        cur_id = nxt
        if cur_id not in cur.punctures:
            raise MoveError("puncture tracking lost along the path")
    return MoveSchedule(tuple(groups))


# -- row splitting and merging ----------------------------------------------


def split_row(
    lat: SurfaceLattice,
    row_spec: int,
    data: FusionData | None = None,
) -> MoveSchedule:
    """Subdivide the annulus between rings row_spec and row_spec + 1.

    Every cell of the row is processed simultaneously: one 1-3 move per
    lower triangle, then three flip sweeps that knit the new vertices
    into a full ring. The result has the connectivity of a patch with
    one extra ring (fresh ids for the new ring, so the arithmetic layout
    no longer holds; merge_rows undoes it exactly). Five layers total in
    one LOCAL group, whatever the row length.

    The row must carry no punctures on either bounding ring, and the
    sector count must be even so the final sweep can two-color.
    """
    rows, cols, _ = _canonical_disk(lat)
    try:
        r = operator.index(row_spec)
    except TypeError:
        raise MoveError(f"row_spec must be a ring index, got {row_spec!r}") from None
    if not 1 <= r <= rows - 1:
        raise MoveError(f"no annulus row at ring {r}")
    if cols % 2:
        raise MoveError("sector count must be even for parallel layering")
    for s in range(cols):
        for rr in (r, r + 1):
            if polar_vertex_id(cols, rr, s) in lat.punctures:
                raise MoveError("cannot split a row that touches a puncture")

    # dry-run the moves on one private copy; ids are stable so targets
    # come from arithmetic
    cur = lat._fork()
    lay1 = tuple(_subdivide(cur, _tid_lower(rows, cols, r, s)) for s in range(cols))
    lay2 = tuple(_flip(cur, _eid_diag(rows, cols, r, s)) for s in range(cols))
    lay3 = tuple(_flip(cur, _eid_spoke(rows, cols, r, s)) for s in range(cols))
    lay4: dict[int, list[MoveRecord]] = {0: [], 1: []}
    for s in range(cols):
        lay4[s % 2].append(_flip(cur, _eid_diag(rows, cols, r, s)))

    layers = (lay1, lay2, lay3, tuple(lay4[0]), tuple(lay4[1]))
    return MoveSchedule((MoveGroup(LOCAL, layers, tag="split row"),))


def _vertex_adjacency(lat: SurfaceLattice) -> dict[int, set[int]]:
    edges = lat.edges
    return {v: {edges[e].v1 + edges[e].v2 - v for e in es} for v, es in lat.vertex_edges().items()}


def _order_ring(mids: list[int], adj: dict[int, set[int]]) -> list[int]:
    """Arrange the given vertices into their unique cyclic ring order."""
    mid_set = set(mids)
    start = min(mids)
    ring = [start]
    prev: int | None = None
    cur = start
    while len(ring) < len(mids):
        # never step back, and never close early; n == 2 rings are fine
        # because the loop ends before the walk would have to return
        nbrs = sorted((adj[cur] & mid_set) - {prev, start})
        if not nbrs:
            raise MoveError("rows are not mergeable: ring order broken")
        nxt = nbrs[0]
        ring.append(nxt)
        prev, cur = cur, nxt
    closed = start in adj[cur]
    degrees_ok = len(mids) == 2 or all(len(adj[v] & mid_set) == 2 for v in mids)
    if not (closed and degrees_ok):
        raise MoveError("rows are not mergeable: vertices do not form one ring")
    return ring


def _merge_chain(
    mids: list[int], adj: dict[int, set[int]]
) -> tuple[list[int], list[int]] | None:
    """Find the side chain a_s with spoke a_s-m_s and diagonal a_s-m_{s+1}.

    Returns (oriented mids, side chain) or None when no consistent side
    exists for this orientation. Tried for both ring orientations and
    both side candidates by the caller; candidates are scanned in sorted
    order so the choice is deterministic and, for a lattice produced by
    split_row, lands on the chain whose flips exactly invert the split.
    """
    n = len(mids)
    mid_set = set(mids)
    for x in sorted((adj[mids[0]] & adj[mids[1]]) - mid_set):
        chain = [x]
        ok = True
        for s in range(1, n):
            cand = (adj[chain[-1]] & adj[mids[s]]) - mid_set - set(chain)
            cand = {c for c in cand if mids[(s + 1) % n] in adj[c]}
            if len(cand) != 1:
                ok = False
                break
            chain.append(cand.pop())
        if not ok or len(set(chain)) != n:
            continue
        # closure: last side vertex must ring back to the first
        if chain[0] not in adj[chain[-1]]:
            continue
        good = all(
            mids[s] in adj[chain[s]] and mids[(s + 1) % n] in adj[chain[s]]
            for s in range(n)
        )
        if good:
            return mids, chain
    return None


def _quads(lat: SurfaceLattice, u: int, v: int) -> Iterable[tuple[int, set[int]]]:
    """(edge id, the apexes of its flip quad) per interior edge between u and v."""
    et = lat.edge_triangles()
    want = (min(u, v), max(u, v))
    for eid in lat.vertex_edges()[u]:
        if (lat.edges[eid].v1, lat.edges[eid].v2) == want and len(et[eid]) == 2:
            yield eid, {_corner(lat, eid, t)[0] for t in et[eid]}


def _resolve_edge(lat: SurfaceLattice, u: int, v: int, apexes: set[int]) -> int:
    """Edge id between u and v whose flip quad has exactly these apexes."""
    found = [eid for eid, got in _quads(lat, u, v) if got == apexes]
    if len(found) != 1:
        raise MoveError("rows are not mergeable: ambiguous or missing quad")
    return found[0]


def merge_rows(
    lat: SurfaceLattice,
    rows_spec: Iterable[int],
    data: FusionData | None = None,
) -> MoveSchedule:
    """Remove the ring of vertices in rows_spec, fusing its two rows.

    rows_spec lists the vertices of one full ring, in any order; they
    must each have the six-neighbor annulus structure with no punctures
    on or next to the ring. The schedule is one LOCAL group of five
    layers (two parity sweeps of diagonal flips, a ring-edge sweep, a
    second diagonal sweep, then a 3-1 move per vertex), so the depth is
    independent of the ring length. Applied to the output of split_row
    with the freshly created vertices, it restores the original lattice
    exactly, ids included.
    """
    try:
        mids = sorted(set(operator.index(v) for v in rows_spec))
    except TypeError:
        raise MoveError(f"rows_spec must list vertex ids, got {rows_spec!r}") from None
    if not mids:
        raise MoveError("empty row specification")
    if len(mids) < 2 or len(mids) % 2:
        raise MoveError("row ring must have even length >= 2")
    for v in mids:
        if v not in lat.vertices:
            raise MoveError(f"vertex {v} is not on the lattice")
    adj = _vertex_adjacency(lat)
    ordered = _order_ring(mids, adj)

    chain = None
    for orientation in (ordered, [ordered[0]] + list(reversed(ordered[1:]))):
        chain = _merge_chain(orientation, adj)
        if chain is not None:
            break
    if chain is None:
        raise MoveError("rows are not mergeable: no consistent side chain")
    mids, side = chain
    n = len(mids)

    # vertices adjacent to the ring across either row; conservative cover
    # of the upper row, exact identification happens per flip quad below
    across = set()
    for s in range(n):
        across |= (adj[mids[s]] & adj[mids[(s + 1) % n]]) - set(mids) - set(side)
    for v in set(mids) | set(side) | across:
        if v in lat.punctures:
            raise MoveError("cannot merge rows that touch a puncture")

    # resolve every edge of a layer against the pre-layer lattice, then
    # flip, all on one private copy; in-layer flips can create parallel
    # edges with identical quads (n == 2), so resolving mid-layer would
    # be ambiguous
    cur = lat._fork()
    diag_ids = [
        _resolve_edge(cur, side[s], mids[(s + 1) % n], {mids[s], side[(s + 1) % n]})
        for s in range(n)
    ]
    lay1: dict[int, list[MoveRecord]] = {0: [], 1: []}
    for s in range(n):
        rec = _flip(cur, diag_ids[s])
        if cur.edges[diag_ids[s]].endpoints() != frozenset(
            (mids[s], side[(s + 1) % n])
        ):
            raise MoveError("rows are not mergeable: unexpected flip result")
        lay1[s % 2].append(rec)

    # ring edges are matched to cells through their quads, not endpoints;
    # with n == 2 the two ring edges are parallel and only the quad tells
    # them apart. The far-row vertex of each cell falls out of the match.
    far: list[int | None] = [None] * n
    ring_ids: list[int] = []
    blocked = set(mids) | set(side)
    for s in range(n):
        want_side = side[(s + 1) % n]
        found: list[tuple[int, int]] = []
        for eid, apexes in _quads(cur, mids[s], mids[(s + 1) % n]):
            others = apexes - {want_side}
            if want_side in apexes and len(others) == 1 and not (others & blocked):
                found.append((eid, others.pop()))
        if len(found) != 1:
            raise MoveError("rows are not mergeable: ambiguous or missing quad")
        eid, far_v = found[0]
        far[(s + 1) % n] = far_v
        ring_ids.append(eid)
    if len(set(ring_ids)) != n:
        raise MoveError("rows are not mergeable: ambiguous or missing quad")
    lay2: list[MoveRecord] = []
    for s in range(n):
        rec = _flip(cur, ring_ids[s])
        want = frozenset((side[(s + 1) % n], far[(s + 1) % n]))
        if cur.edges[ring_ids[s]].endpoints() != want:
            raise MoveError("rows are not mergeable: unexpected flip result")
        lay2.append(rec)
    lay3: list[MoveRecord] = []
    for s in range(n):
        eid = diag_ids[s]
        rec = _flip(cur, eid)
        want = frozenset((side[s], far[(s + 1) % n]))
        if cur.edges[eid].endpoints() != want:
            raise MoveError("rows are not mergeable: unexpected flip result")
        lay3.append(rec)
    lay4 = tuple(_unsubdivide(cur, v) for v in mids)

    layers = (tuple(lay1[0]), tuple(lay1[1]), tuple(lay2), tuple(lay3), lay4)
    return MoveSchedule((MoveGroup(LOCAL, layers, tag="merge rows"),))


# -- logical action -----------------------------------------------------------


def logical_action(
    protocol: MoveSchedule | Callable,
    lat: SurfaceLattice,
    data: FusionData | None = None,
    tol: float = 1e-8,
    basis: Sequence[StringNetState] | None = None,
) -> np.ndarray:
    """Matrix of a closed protocol on an orthonormal encoded basis.

    protocol is a MoveSchedule, or a callable taking (state, lattice)
    and returning at least (state, lattice); it must end on a lattice
    with the same signature it started from, and each output is bound to
    lat (rebind_state). The basis defaults to code_space(lat, data) with
    its default limits; build one with code_space to set them, and pass
    it to amortize its cost across several protocols on the same
    lattice. Entry [i, j] is the overlap of basis state i with the
    protocol applied to basis state j. The basis is aligned once on the
    union of its supports, so each protocol output is found there with
    one searchsorted and its column of overlaps is one product. Raises
    MoveError when the basis, given or built, is empty ("encoded
    dimension is 0") or code_space refuses the lattice; VersionError,
    before any replay, when a basis state is not bound to lat; and
    MoveError when the resulting matrix fails unitarity at tol (a sign
    the protocol leaks out of the encoded subspace).
    """
    if basis is None:
        basis = code_space(lat, data)
    if not basis:
        raise MoveError("encoded dimension is 0")
    bound = (lat.version, _sig_key(lat))
    if any((b.lattice_version, b.sig_key) != bound for b in basis):
        raise VersionError("basis states must be bound to the protocol's lattice")
    dim = len(basis)
    support, where = np.unique(np.concatenate([b.configs for b in basis]), return_inverse=True)
    # row i: basis state i conjugated, on the union support
    rows = np.zeros((dim, len(support)), dtype=np.complex128)
    ends = np.cumsum([b.nnz() for b in basis])
    for i, (b, at) in enumerate(zip(basis, np.split(where, ends[:-1]))):
        rows[i, at] = np.conj(b.amps)
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for j, b in enumerate(basis):
        if isinstance(protocol, MoveSchedule):
            out = run_schedule(b, lat, protocol, data=data)
        else:
            out = protocol(b, lat)
        out_state = rebind_state(out[0], lat)
        at, hit = _locate(support, out_state.configs)
        col = np.zeros(len(support), dtype=np.complex128)
        col[at[hit]] = out_state.amps[hit]
        mat[:, j] = rows @ col
    dev = float(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))))
    if dev > tol:
        raise MoveError(f"logical action is not unitary (deviation {dev:.3e})")
    return mat
