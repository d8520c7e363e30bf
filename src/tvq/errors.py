"""Propagation of pre-existing error strings through transport protocols.

Two mechanisms move errors around. Free relabelings map every edge to
an edge, so a connected string of flipped edges stays a connected
string with exactly the same edge count; what changes is its shape,
measured here by the grid span between its endpoints (strings crossing
the sheared corridor tilt, strings inside the rigid block ride along
unchanged). Gate layers grow an error's support instead: any gate
touching a suspect qubit spreads suspicion to its whole support, one
layer at a time, which is the usual light-cone bound.

The report at the bottom pushes seeded random short strings through a
full braid at several code distances and tabulates the growth ratios.
The protocol is depth-invariant in the distance, so the measured max
ratio must not drift upward with d; that is the constant-factor claim
this module exists to check.

The report works one distance at a time. It samples every trial's
string first, then grows all their light cones in one walk of the
compiled circuit over a (trials x qubit slots) boolean mask: each
distinct layer object becomes a CSR table of gate supports once, a gate
layer is then one reduceat and one repeat over the mask, and a
relabeling one column scatter. The slot <-> edge maps, the composed
relabeling of the whole braid and padded neighbour tables for the
spread search are built once per distance too. lightcone_grow is the
one-support view of the same walk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuits import GateCircuit, compile_schedule
from .fusion import FusionData
from .gadgets import MoveSchedule, braid_arena, braid_schedule
from .lattice import MoveError, SurfaceLattice, _disk_coords, _grid_distance, apply_cpi

__all__ = [
    "ErrorString",
    "error_string",
    "string_endpoints",
    "grid_span",
    "propagate_cpi",
    "lightcone_grow",
    "lightcone_radius_bound",
    "braid_error_trial",
    "stretch_report",
    "report_to_csv",
    "report_to_json",
]

STRING_LENGTHS = (2, 3, 4)  # edge counts a stretch trial samples from


@dataclass(frozen=True)
class ErrorString:
    """Connected open path of suspect edges; length is the edge count."""

    edges: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


def _edge_verts(lat: SurfaceLattice, eid: int) -> tuple[int, int]:
    rec = lat.edges[eid]
    return rec.v1, rec.v2


def error_string(lat: SurfaceLattice, edges) -> ErrorString:
    """Validate that consecutive edges chain through shared vertices."""
    edges = tuple(int(e) for e in edges)
    if not edges:
        raise MoveError("error string needs at least one edge")
    if len(set(edges)) != len(edges):
        raise MoveError("error string repeats an edge")
    for e in edges:
        if e not in lat.edges:
            raise MoveError(f"edge {e} is not on the lattice")
    for prev, nxt in zip(edges, edges[1:]):
        if not set(_edge_verts(lat, prev)) & set(_edge_verts(lat, nxt)):
            raise MoveError("consecutive error-string edges share no vertex")
    return ErrorString(edges)


def string_endpoints(lat: SurfaceLattice, err: ErrorString) -> tuple[int, int]:
    """Free ends of the path (for a single edge, its two endpoints)."""
    if err.length == 1:
        return _edge_verts(lat, err.edges[0])
    first = set(_edge_verts(lat, err.edges[0]))
    second = set(_edge_verts(lat, err.edges[1]))
    start = (first - second).pop() if first - second else first.pop()
    last = set(_edge_verts(lat, err.edges[-1]))
    prior = set(_edge_verts(lat, err.edges[-2]))
    end = (last - prior).pop() if last - prior else last.pop()
    return start, end


def grid_span(lat: SurfaceLattice, err: ErrorString, cols: int) -> int:
    """Ring-plus-sector distance between the string's endpoints.

    The combinatorial edge count never changes under a relabeling; the
    span is what the shear squeezes or stretches.
    """
    return _grid_distance(*string_endpoints(lat, err), cols)


def propagate_cpi(
    err: ErrorString,
    vmap: dict[int, int],
    lat: SurfaceLattice,
    target: SurfaceLattice | None = None,
) -> tuple[ErrorString, SurfaceLattice]:
    """Push a string through the relabeling of a vertex map.

    vmap maps vertices, exactly as the permutation records store it;
    apply_cpi checks it and derives the slot map the string's edges
    follow. The image string is re-validated as a connected path, which
    the edge-to-edge property guarantees. Edge count is preserved exactly.
    """
    out_lat, rec = apply_cpi(lat, vmap, target=target)
    slot_of = {e: r.qubit for e, r in lat.edges.items() if r.qubit is not None}
    edge_of = out_lat.slot_edge_map()
    mapped = []
    for e in err.edges:
        slot = slot_of.get(e)
        if slot is None:
            raise MoveError(f"edge {e} carries no qubit, cannot relabel an error on it")
        mapped.append(edge_of[rec.sigma[slot]])
    out = error_string(out_lat, mapped)
    return out, out_lat


def lightcone_radius_bound(circuit: GateCircuit) -> int:
    """Worst-case support growth in edge hops: depth times gate reach.

    Per layer the suspect set can spread at most to the far side of one
    touching gate, so the reach is the largest gate support minus one.
    The bound depends only on the compiled shape, which is the point:
    depth-invariant protocols get a size-independent radius. A layer
    object that recurs, as compile_schedule's repeated groups do, is
    read once.
    """
    distinct = {id(layer): layer for layer in circuit.layers}.values()
    reach = max((len(gate.support()) - 1 for layer in distinct for gate in layer), default=0)
    return circuit.depth() * max(reach, 0)


def _columns(qubits: np.ndarray, slots) -> np.ndarray:
    """Column of each slot in the sorted qubit array; MoveError for a
    slot the circuit does not hold."""
    slots = np.fromiter((int(q) for q in slots), dtype=np.int64)
    cols = np.searchsorted(qubits, slots)
    found = cols < len(qubits)
    found[found] = qubits[cols[found]] == slots[found]
    if not found.all():
        raise MoveError(f"slot {int(slots[~found][0])} is not a qubit of the circuit")
    return cols


def _layer_table(qubits: np.ndarray, layer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One gate layer as CSR: the columns of every gate's support laid
    end to end, each gate's start in that run, and each gate's size.
    Gates with an empty support touch nothing and are left out."""
    sups = [sorted(sup) for sup in (gate.support() for gate in layer) if sup]
    sizes = np.array([len(sup) for sup in sups], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    return _columns(qubits, (q for sup in sups for q in sup)), starts, sizes


def _grow_cones(circuit: GateCircuit, supports) -> tuple[np.ndarray, np.ndarray]:
    """Grow many suspect-slot sets through a circuit in one walk.

    Returns the circuit's qubit slots in ascending order and a (number
    of supports) x (number of slots) boolean mask whose row i is the
    light cone of supports[i] over those slots. The circuit is checked
    first, so a relabeling that is not a bijection on the circuit's
    qubits, or a layer whose gates overlap, raises MoveError. Each
    distinct layer object gets its CSR table once; a gate layer is then
    one reduceat (which gates touch each row's set) and one repeat (their
    whole supports join it), and a relabeling is one column scatter.
    """
    circuit.check()
    qubits = np.array(sorted(circuit.qubits), dtype=np.int64)
    supports = list(supports)
    mask = np.zeros((len(supports), len(qubits)), dtype=bool)
    for row, support in enumerate(supports):
        mask[row, _columns(qubits, support)] = True
    tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for sigma, layer in circuit.steps():
        if sigma is not None:
            src, dst = _columns(qubits, sigma.keys()), _columns(qubits, sigma.values())
            mask[:, dst] = mask[:, src]
            continue
        table = tables.get(id(layer))
        if table is None:
            table = tables[id(layer)] = _layer_table(qubits, layer)
        flat, starts, sizes = table
        if flat.size:
            # supports in a layer are disjoint, so a gate's columns all
            # end up set exactly when any of them was
            hit = np.logical_or.reduceat(mask[:, flat], starts, axis=1)
            mask[:, flat] = np.repeat(hit, sizes, axis=1)
    return qubits, mask


def lightcone_grow(support, circuit: GateCircuit) -> frozenset[int]:
    """Grow a suspect-slot set through every layer of a circuit.

    Edges are addressed by their qubit slots, the circuit's own
    alphabet. Each gate layer adds the full support of every gate that
    touches the current set; relabelings move the set without growing
    it, in the order GateCircuit.steps gives. An empty circuit returns
    the input unchanged. This is the one-support view of the batched
    walk stretch_report uses for all trials of a distance at once. The
    circuit is checked first, so a relabeling that is not a bijection,
    and a support slot the circuit does not hold, raise MoveError.
    """
    qubits, mask = _grow_cones(circuit, [support])
    return frozenset(qubits[mask[0]].tolist())


# ---- braid-level analysis ------------------------------------------------------


def _neighbour_table(lat: SurfaceLattice) -> np.ndarray:
    """Row e lists the qubit edges sharing a vertex with edge e,
    ascending and padded with -1; rows of absent edge ids are all -1."""
    ve, edges = lat.vertex_edges(), lat.edges
    rows = {}
    for e, rec in edges.items():
        near = {x for v in (rec.v1, rec.v2) for x in ve[v] if edges[x].qubit is not None}
        near.discard(e)
        rows[e] = sorted(near)
    width = max((len(row) for row in rows.values()), default=0)
    table = np.full((max(edges, default=-1) + 1, width), -1, dtype=np.int64)
    for e, row in rows.items():
        table[e, : len(row)] = row
    return table


def _sample_pool(lat: SurfaceLattice, cols: int, rings: tuple[int, int]) -> list[int]:
    """Ascending qubit edges with an endpoint in the ring window; strings
    far from the transport corridor ride rigidly and only dilute the
    statistics."""
    lo, hi = rings
    ve = lat.vertex_edges()
    window = (v for v in lat.vertices if lo <= _disk_coords(v, cols)[0] <= hi)
    return sorted({e for v in window for e in ve[v] if lat.edges[e].qubit is not None})


def _sample_string(
    lat: SurfaceLattice,
    rng: np.random.Generator,
    length: int,
    cols: int,
    pool: list[int],
    neighbours: np.ndarray,
) -> ErrorString:
    """Random connected path over qubit-bearing edges, length edges.

    The first edge is drawn from pool, each next one from the unused
    qubit neighbours (a _neighbour_table of lat) of the last. Resamples
    until the endpoints are distinct vertices, so the span ratio below
    is well defined (a walk that loops back would report a zero-length
    anyon pair).
    """
    for _ in range(256):
        start = pool[int(rng.integers(len(pool)))]
        path = [start]
        used = {start}
        while len(path) < length:
            options = [o for o in neighbours[path[-1]].tolist() if o >= 0 and o not in used]
            if not options:
                break
            nxt = options[int(rng.integers(len(options)))]
            path.append(nxt)
            used.add(nxt)
        if len(path) != length:
            continue
        err = error_string(lat, path)
        if grid_span(lat, err, cols) >= 1:
            return err
    raise MoveError("could not sample a connected error string")


def _bfs_distance(neighbours: np.ndarray, seeds, targets) -> int:
    """Max over targets of hop distance to the seed set, along qubit
    edges that share a vertex (a _neighbour_table); the search stops
    once every target is reached, and a target it cannot reach raises
    MoveError naming that edge."""
    seeds = np.fromiter(seeds, dtype=np.int64)
    targets = np.fromiter(sorted(targets), dtype=np.int64)
    outside = targets[(targets < 0) | (targets >= len(neighbours))]
    if outside.size:
        raise MoveError(f"edge {int(outside[0])} is not on the lattice")
    hops = np.full(len(neighbours), -1, dtype=np.int64)
    hops[seeds] = 0
    frontier, level = seeds, 0
    while frontier.size and (hops[targets] < 0).any():
        level += 1
        near = neighbours[frontier].ravel()
        near = near[near >= 0]
        hops[near[hops[near] < 0]] = level
        frontier = np.flatnonzero(hops == level)
    lost = targets[hops[targets] < 0]
    if lost.size:
        raise MoveError(f"edge {int(lost[0])} cannot be reached along qubit edges")
    return int(hops[targets].max())


class _BraidTables:
    """What every error trial through one braid shares, built once.

    The end lattice is the target of the schedule's last group, which
    must be a relabeling with a target; otherwise MoveError. Holds the
    start lattice's edge -> slot map, the end lattice's slot -> edge
    map, the composed relabeling of the whole circuit (slot at the
    start -> slot at the end) and the end lattice's neighbour table.
    """

    def __init__(self, lat: SurfaceLattice, schedule: MoveSchedule, circuit: GateCircuit):
        end_lat = schedule.groups[-1].target if schedule.groups else None
        if end_lat is None:
            raise MoveError("error trial needs a schedule that ends on a relabeling with a target")
        self.end_lat = end_lat
        self.slot_of = {e: rec.qubit for e, rec in lat.edges.items() if rec.qubit is not None}
        self.edge_of = end_lat.slot_edge_map()
        moved = {q: q for q in self.slot_of.values()}
        for sigma, _ in circuit.steps():
            if sigma is not None:
                moved = {q: sigma.get(s, s) for q, s in moved.items()}
        self.moved = moved
        self.end_neighbours = _neighbour_table(end_lat)


def braid_error_trial(
    lat: SurfaceLattice,
    schedule: MoveSchedule,
    circuit: GateCircuit,
    err: ErrorString,
    cols: int,
    *,
    tables: _BraidTables | None = None,
    cone=None,
) -> dict:
    """Push one string through one braid, both mechanisms at once.

    The string is tracked by its qubit slots along the compiled
    circuit's steps. Gate layers leave the slot of every surviving edge
    unchanged (a flip conjugates the error inside its quad, which the
    light cone already over-covers), and each relabeling maps the slots
    through its sigma. The schedule only names the end layout: the
    target of its last group, which must be a relabeling with a target;
    otherwise MoveError.
    Mid-protocol the edge set need not be a path (its own edges may sit
    on flipped diagonals); the edge count is still invariant, and the
    protocol closes on the starting layout where the span comparison
    is made. The returned lengths count edges: initial the string,
    final the light-cone-grown support.

    stretch_report passes the per-distance tables and the trial's cone
    (its slots after lightcone growth), both made for all trials of a
    distance at once; a lone call builds the tables and grows the cone
    itself. The string's edge count is checked before the cone is used.
    """
    tables = _BraidTables(lat, schedule, circuit) if tables is None else tables
    edge_of = tables.edge_of
    slots = [tables.slot_of[e] for e in err.edges]
    cur_edges = tuple(edge_of.get(tables.moved[s]) for s in slots)
    if None in cur_edges or len(set(cur_edges)) != err.length:
        raise MoveError("relabeling changed an error string's edge count")
    final_err = ErrorString(cur_edges)

    if cone is None:
        cone = lightcone_grow(slots, circuit)
    final_edges = sorted(edge_of[q] for q in cone)

    spread = _bfs_distance(tables.end_neighbours, cur_edges, final_edges)
    span0 = grid_span(lat, err, cols)
    span1 = grid_span(tables.end_lat, final_err, cols)
    return {
        # the anyon-pair separation is the length a decoder sees; the
        # edge count is invariant by construction and asserted above
        "initial_len": span0,
        "final_len": span1,
        "ratio": span1 / span0,
        "edge_count": err.length,
        "support_size": len(final_edges),
        "lightcone_spread": spread,
    }


def _braid_setup(d: int, data: FusionData | None):
    lat, cols, anyon = braid_arena(d)
    sched = braid_schedule(lat, anyon, 0, steps=6, data=data)
    circ = compile_schedule(lat, sched, data)
    return lat, cols, sched, circ


def stretch_report(
    lattice_sizes: list[int],
    trials: int,
    seed: int,
    data: FusionData | None = None,
) -> dict:
    """Seeded stretch statistics per code distance.

    Per trial, a fresh RNG stream keyed by (seed, size, trial) samples
    a string of 2 to 4 edges (STRING_LENGTHS) and one braid pushes it
    through. Identical inputs give identical reports, including the CSV
    rendering.

    Work is batched per distance: the braid, its _BraidTables, the
    sampling pool and the start lattice's neighbour table are built
    once, every trial's string is sampled first, and one walk of the
    compiled circuit grows all the trials' light cones together
    (_grow_cones). braid_error_trial then runs once per trial with that
    trial's cone. Since the RNG streams are keyed per trial, the
    strings, and so the report, do not depend on the batching.
    """
    if trials < 1:
        raise MoveError("need at least one trial")
    if not lattice_sizes:
        raise MoveError("need at least one distance")
    if len(set(lattice_sizes)) != len(lattice_sizes):
        raise MoveError(f"distances must be distinct, got {list(lattice_sizes)}")
    rows_out = []
    summary = []
    for d in lattice_sizes:
        lat, cols, sched, circ = _braid_setup(int(d), data)
        tables = _BraidTables(lat, sched, circ)
        k = cols // 6
        pool = _sample_pool(lat, cols, (2, k + 4))  # transport corridor plus one ring either side
        neighbours = _neighbour_table(lat)
        errs = []
        for t in range(trials):
            rng = np.random.default_rng((int(seed), int(d), t))
            length = STRING_LENGTHS[int(rng.integers(len(STRING_LENGTHS)))]
            errs.append(_sample_string(lat, rng, length, cols, pool, neighbours))
        qubits, cones = _grow_cones(circ, ([tables.slot_of[e] for e in err.edges] for err in errs))
        ratios = []
        spreads = []
        for t, (err, cone) in enumerate(zip(errs, cones)):
            res = braid_error_trial(
                lat, sched, circ, err, cols, tables=tables, cone=qubits[cone].tolist()
            )
            ratios.append(res["ratio"])
            spreads.append(res["lightcone_spread"])
            rows_out.append(
                {
                    "d": int(d),
                    "trial": t,
                    "initial_len": res["initial_len"],
                    "final_len": res["final_len"],
                    "ratio": res["ratio"],
                }
            )
        summary.append(
            {
                "d": int(d),
                "max_ratio": max(ratios),
                "mean_ratio": sum(ratios) / len(ratios),
                "lightcone_radius": lightcone_radius_bound(circ),
                "max_lightcone_spread": max(spreads),
            }
        )
    return {"trials": trials, "seed": int(seed), "rows": rows_out, "summary": summary}


def report_to_csv(report: dict) -> str:
    lines = ["d,trial,initial_len,final_len,ratio"]
    for row in report["rows"]:
        lines.append(
            f"{row['d']},{row['trial']},{row['initial_len']},"
            f"{row['final_len']},{row['ratio']:.6f}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: dict) -> str:
    doc = {
        "seed": report["seed"],
        "trials": report["trials"],
        "summary": report["summary"],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
