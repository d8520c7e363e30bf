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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .circuits import GateCircuit, compile_schedule
from .fusion import FusionData, fibonacci_data
from .gadgets import MoveSchedule, _disk_coords, _grid_distance, braid_arena, braid_schedule
from .lattice import MoveError, SurfaceLattice, apply_cpi

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
    depth-invariant protocols get a size-independent radius.
    """
    reach = 0
    for layer in circuit.layers:
        for gate in layer:
            reach = max(reach, len(gate.support()) - 1)
    return circuit.depth() * reach


def lightcone_grow(support, circuit: GateCircuit) -> frozenset[int]:
    """Grow a suspect-slot set through every layer of a circuit.

    Edges are addressed by their qubit slots, the circuit's own
    alphabet. Each gate layer adds the full support of every gate that
    touches the current set; relabelings move the set without growing
    it, in the order GateCircuit.steps gives. An empty circuit returns
    the input unchanged.
    """
    cur = frozenset(int(q) for q in support)
    for sigma, layer in circuit.steps():
        if sigma is not None:
            cur = frozenset(sigma.get(q, q) for q in cur)
            continue
        grown = set(cur)
        for gate in layer:
            sup = gate.support()
            if sup & cur:
                grown |= sup
        cur = frozenset(grown)
    return cur


# ---- braid-level analysis ------------------------------------------------------


def _qubit_neighbours(lat: SurfaceLattice, e: int) -> set[int]:
    """Qubit edges sharing a vertex with edge e, read from the kept
    vertex -> edges map."""
    ve, edges = lat.vertex_edges(), lat.edges
    rec = edges[e]
    out = {x for v in (rec.v1, rec.v2) for x in ve[v] if edges[x].qubit is not None}
    out.discard(e)
    return out


def _sample_string(
    lat: SurfaceLattice,
    rng: np.random.Generator,
    length: int,
    cols: int,
    rings: tuple[int, int] | None = None,
) -> ErrorString:
    """Random connected path over qubit-bearing edges, length edges.

    With a ring window, the first edge must touch it; strings far from
    the transport corridor ride rigidly and only dilute the statistics.
    Resamples until the endpoints are distinct vertices, so the span
    ratio below is well defined (a walk that loops back would report a
    zero-length anyon pair).
    """
    if rings is None:
        pool = sorted(e for e, rec in lat.edges.items() if rec.qubit is not None)
    else:
        lo, hi = rings
        ve = lat.vertex_edges()
        window = (v for v in lat.vertices if lo <= _disk_coords(v, cols)[0] <= hi)
        pool = sorted({e for v in window for e in ve[v] if lat.edges[e].qubit is not None})
    for _ in range(256):
        start = pool[int(rng.integers(len(pool)))]
        path = [start]
        used = {start}
        while len(path) < length:
            options = sorted(_qubit_neighbours(lat, path[-1]) - used)
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


def _bfs_distance(lat: SurfaceLattice, seeds, targets) -> int:
    """Max over targets of hop distance to the seed set, along qubit
    edges that share a vertex; the search stops once every target is
    reached."""
    seen = {s: 0 for s in seeds}
    missing = set(targets) - seen.keys()
    frontier = list(seeds)
    while frontier and missing:
        nxt = []
        for e in frontier:
            for o in _qubit_neighbours(lat, e):
                if o not in seen:
                    seen[o] = seen[e] + 1
                    missing.discard(o)
                    nxt.append(o)
        frontier = nxt
    return max(seen[t] for t in targets)


def braid_error_trial(
    lat: SurfaceLattice,
    schedule: MoveSchedule,
    circuit: GateCircuit,
    err: ErrorString,
    cols: int,
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
    """
    end_lat = schedule.groups[-1].target if schedule.groups else None
    if end_lat is None:
        raise MoveError("error trial needs a schedule that ends on a relabeling with a target")
    slot_of = {e: rec.qubit for e, rec in lat.edges.items() if rec.qubit is not None}
    slots = [slot_of[e] for e in err.edges]
    for sigma, _ in circuit.steps():
        if sigma is not None:
            slots = [sigma.get(s, s) for s in slots]
    edge_of = end_lat.slot_edge_map()
    cur_edges = tuple(edge_of.get(s) for s in slots)
    if None in cur_edges or len(set(cur_edges)) != err.length:
        raise MoveError("relabeling changed an error string's edge count")
    final_err = ErrorString(cur_edges)

    support = frozenset(slot_of[e] for e in err.edges)
    grown = lightcone_grow(support, circuit)
    final_edges = sorted(edge_of[q] for q in grown)

    spread = _bfs_distance(end_lat, set(cur_edges), set(final_edges))
    span0 = grid_span(lat, err, cols)
    span1 = grid_span(end_lat, final_err, cols)
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


def _braid_setup(d: int, data: FusionData):
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
    """
    if trials < 1:
        raise MoveError("need at least one trial")
    if not lattice_sizes:
        raise MoveError("need at least one distance")
    data = fibonacci_data() if data is None else data
    rows_out = []
    summary = []
    for d in lattice_sizes:
        lat, cols, sched, circ = _braid_setup(int(d), data)
        k = cols // 6
        window = (2, k + 4)  # transport corridor plus one ring either side
        ratios = []
        spreads = []
        for t in range(trials):
            rng = np.random.default_rng((int(seed), int(d), t))
            length = STRING_LENGTHS[int(rng.integers(len(STRING_LENGTHS)))]
            err = _sample_string(lat, rng, length, cols, rings=window)
            res = braid_error_trial(lat, sched, circ, err, cols)
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
