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
string first and then packs the trials into bits: one uint64 word per
64 trials for each qubit slot, and for each edge of the end lattice.
One walk of the compiled circuit grows all the light cones: each
distinct layer object becomes a CSR table of gate supports once, a gate
layer is then one reduceat and one repeat over the words, and a
relabeling one row copy. One breadth-first search on the end lattice
then finds every trial's spread, the hops from its string to the far
side of its cone: a level ORs the words of each vertex's edges and
hands them on to the unreached qubit edges at that vertex. The composed
relabeling of the braid and the end lattice's edge-vertex incidence are
built once per distance too. lightcone_grow and braid_error_trial are
the one-support and one-string views of the same batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

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
    touching gate, so the reach is the largest gate support (its
    targets and controls, which are distinct qubits) minus one. The
    bound depends only on the compiled shape, which is the point:
    depth-invariant protocols get a size-independent radius. A layer
    object that recurs, as compile_schedule's repeated groups do, is
    read once.
    """
    distinct = {id(layer): layer for layer in circuit.layers}.values()
    sizes = (len(gate.targets) + len(gate.controls) for layer in distinct for gate in layer)
    reach = max(sizes, default=1) - 1
    return circuit.depth() * reach


def _columns(qubits: np.ndarray, slots) -> np.ndarray:
    """Column of each slot in the sorted qubit array; MoveError for a
    slot the circuit does not hold."""
    slots = np.fromiter(slots, dtype=np.int64)
    cols = np.searchsorted(qubits, slots)
    found = cols < len(qubits)
    found[found] = qubits[cols[found]] == slots[found]
    if not found.all():
        raise MoveError(f"slot {int(slots[~found][0])} is not a qubit of the circuit")
    return cols


def _pack(size: int, sets) -> np.ndarray:
    """Sets of row numbers below size as (size x ceil(len(sets) / 64))
    uint64 words: bit t % 64 of word t // 64 in row r says that sets[t]
    holds r."""
    sets = [list(rows) for rows in sets]
    bits = np.zeros((size, 64 * -(-len(sets) // 64)), dtype=bool)
    trial = np.repeat(np.arange(len(sets)), [len(rows) for rows in sets])
    bits[list(chain.from_iterable(sets)), trial] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each row of uint64 words, as a (rows x n)
    bool array."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=n, bitorder="little").view(bool)


def _layer_table(qubits: np.ndarray, layer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One gate layer as CSR: the columns of every gate's support laid
    end to end, each gate's start in that run, and each gate's size.
    A gate's one target and its controls are distinct qubits, so
    together they are its support."""
    sups = [sorted(gate.targets + gate.controls) for gate in layer]
    sizes = np.array([len(sup) for sup in sups], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    return _columns(qubits, chain.from_iterable(sups)), starts, sizes


def _cone_words(circuit: GateCircuit, supports) -> tuple[np.ndarray, np.ndarray]:
    """Grow many suspect-slot sets through a circuit in one walk.

    Returns the circuit's qubit slots in ascending order and a (slots)
    x (ceil(len(supports) / 64)) array of uint64 words whose bit i in
    row c says slot qubits[c] is in the light cone of supports[i]. The
    circuit is checked first, so a relabeling that is not a bijection on
    the circuit's qubits, or a layer whose gates overlap, raises
    MoveError. Each distinct layer object gets its CSR table once; a
    gate layer is then one reduceat (which supports each gate touches)
    and one repeat (its whole support joins them), and a relabeling one
    row copy.
    """
    circuit.check()
    qubits = np.array(sorted(circuit.qubits), dtype=np.int64)
    words = _pack(len(qubits), (_columns(qubits, support) for support in supports))
    tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for sigma, layer in circuit.steps():
        if sigma is not None:
            src, dst = _columns(qubits, sigma.keys()), _columns(qubits, sigma.values())
            words[dst] = words[src]
            continue
        table = tables.get(id(layer))
        if table is None:
            table = tables[id(layer)] = _layer_table(qubits, layer)
        flat, starts, sizes = table
        if flat.size:
            # supports in a layer are disjoint, so a gate's rows all end
            # up holding a support exactly when any of them did
            hit = np.bitwise_or.reduceat(words[flat], starts, axis=0)
            words[flat] = np.repeat(hit, sizes, axis=0)
    return qubits, words


def _grow_cones(circuit: GateCircuit, supports) -> tuple[np.ndarray, np.ndarray]:
    """The circuit's qubit slots in ascending order and a (number of
    supports) x (number of slots) boolean mask whose row i is the light
    cone of supports[i] over those slots: _cone_words, unpacked."""
    supports = list(supports)
    qubits, words = _cone_words(circuit, supports)
    return qubits, _unpack(words, len(supports)).T


def lightcone_grow(support, circuit: GateCircuit) -> frozenset[int]:
    """Grow a suspect-slot set through every layer of a circuit.

    Edges are addressed by their qubit slots, the circuit's own
    alphabet. Each gate layer adds the full support of every gate that
    touches the current set; relabelings move the set without growing
    it, in the order GateCircuit.steps gives. An empty circuit returns
    the input unchanged. This is the one-support view of the packed
    walk stretch_report uses for all trials of a distance at once. The
    circuit is checked first, so a relabeling that is not a bijection,
    and a support slot the circuit does not hold, raise MoveError.
    """
    qubits, mask = _grow_cones(circuit, [support])
    return frozenset(qubits[mask[0]].tolist())


# ---- braid-level analysis ------------------------------------------------------


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
) -> ErrorString:
    """Random connected path over qubit-bearing edges, length edges.

    The first edge is drawn from pool, each next one from the qubit
    edges that share an endpoint with the last, ascending, minus those
    already used. Resamples until the endpoints are distinct vertices,
    so the span ratio below is well defined (a walk that loops back
    would report a zero-length anyon pair).
    """
    ve, edges = lat.vertex_edges(), lat.edges
    for _ in range(256):
        start = pool[int(rng.integers(len(pool)))]
        path = [start]
        used = {start}
        while len(path) < length:
            last = edges[path[-1]]
            near = {x for v in (last.v1, last.v2) for x in ve[v] if edges[x].qubit is not None}
            options = sorted(near - used)
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


class _Incidence:
    """One lattice's edges and vertices as arrays for the packed spread
    search. Rows are edge ids, so an id the lattice lacks is a row with
    no endpoint; vertex rows hold only vertices with an edge, plus one
    last row that stays empty, the endpoint of those absent ids."""

    def __init__(self, lat: SurfaceLattice):
        ve = lat.vertex_edges()
        verts = [v for v, es in ve.items() if es]
        row = {v: i for i, v in enumerate(verts)}
        self.size = max(lat.edges, default=-1) + 1
        self.verts = len(verts)
        ids = list(lat.edges)
        recs = lat.edges.values()
        self.v1 = np.full(self.size, self.verts, dtype=np.int64)
        self.v2 = np.full(self.size, self.verts, dtype=np.int64)
        self.v1[ids] = [row[rec.v1] for rec in recs]
        self.v2[ids] = [row[rec.v2] for rec in recs]
        self.qubit_mask = np.zeros((self.size, 1), dtype=np.uint64)
        self.qubit_mask[[e for e, rec in lat.edges.items() if rec.qubit is not None]] = ~np.uint64(0)
        sizes = np.array([len(ve[v]) for v in verts], dtype=np.int64)
        self.flat = np.fromiter(chain.from_iterable(ve[v] for v in verts), dtype=np.int64)
        self.starts = np.cumsum(sizes) - sizes


def _spreads(inc: _Incidence, seeds: np.ndarray, targets: np.ndarray, n: int) -> np.ndarray:
    """Bit-parallel breadth-first search, one bit per trial.

    seeds and targets are (inc.size x words) uint64 arrays; bit t of row
    e says edge e is a seed, or a target, of trial t < n. Returns each
    trial's spread: the max over its targets of the hop distance to its
    seeds, along qubit edges that share a vertex. A level ORs the
    frontier words of each vertex's edges (one reduceat), and a qubit
    edge joins the next frontier for the trials that hold either of its
    endpoints and have not reached it yet; a trial's spread is the level
    at which its last target is reached. A trial with a target it
    cannot reach raises MoveError naming its lowest such edge, the first
    such trial in trial order.
    """
    rows = np.flatnonzero(targets.any(axis=1))
    want = targets[rows]
    reached = seeds.copy()
    frontier = seeds
    pending = np.bitwise_or.reduce(want & ~reached[rows], axis=0)
    spread = np.zeros(n, dtype=np.int64)
    near = np.zeros((inc.verts + 1, seeds.shape[1]), dtype=np.uint64)
    level = 0
    while pending.any() and frontier.any():
        level += 1
        near[:-1] = np.bitwise_or.reduceat(frontier[inc.flat], inc.starts, axis=0)
        frontier = (near[inc.v1] | near[inc.v2]) & ~reached & inc.qubit_mask
        reached |= frontier
        left = np.bitwise_or.reduce(want & ~reached[rows], axis=0)
        spread[_unpack((pending & ~left)[None], n)[0]] = level
        pending = left
    lost = _unpack(pending[None], n)[0]
    if lost.any():
        t = int(np.argmax(lost))
        missing = _unpack(want & ~reached[rows], n)[:, t]
        raise MoveError(f"edge {int(rows[np.argmax(missing)])} cannot be reached along qubit edges")
    return spread


def _bfs_distance(lat: SurfaceLattice, seeds, targets) -> int:
    """One trial's _spreads: the max over targets of the hop distance to
    the seed set, along qubit edges of lat that share a vertex. A target
    that is not an edge of lat, or that the search cannot reach, raises
    MoveError naming that edge."""
    targets = sorted(int(e) for e in targets)
    outside = [e for e in targets if e not in lat.edges]
    if outside:
        raise MoveError(f"edge {outside[0]} is not on the lattice")
    inc = _Incidence(lat)
    return int(_spreads(inc, _pack(inc.size, [seeds]), _pack(inc.size, [targets]), 1)[0])


class _TrialBatch:
    """Error trials through one braid, all at once.

    The end lattice is the target of the schedule's last group, which
    must be a relabeling with a target; otherwise MoveError. Each string
    is followed by its qubit slots through the composed relabeling of
    the whole circuit to its edges on the end lattice, and a string
    whose edge count changes on the way raises MoveError. The strings
    before the first such one grow their light cones in one packed walk
    of the circuit (_cone_words), and one packed search on the end
    lattice (_spreads) measures how far each cone reaches from its
    string's end edges; that raises the first failing trial's error,
    in trial order, ahead of the edge-count error. results maps each
    string to its end edges, support size and spread.
    """

    def __init__(
        self,
        lat: SurfaceLattice,
        schedule: MoveSchedule,
        circuit: GateCircuit,
        errs: list[ErrorString],
    ):
        end_lat = schedule.groups[-1].target if schedule.groups else None
        if end_lat is None:
            raise MoveError("error trial needs a schedule that ends on a relabeling with a target")
        self.end_lat = end_lat
        slot_of = {e: rec.qubit for e, rec in lat.edges.items() if rec.qubit is not None}
        edge_of = end_lat.slot_edge_map()
        strings = [[slot_of[e] for e in err.edges] for err in errs]
        moved = {q: q for q in chain.from_iterable(strings)}
        for sigma, _ in circuit.steps():
            if sigma is not None:
                moved = {q: sigma.get(s, s) for q, s in moved.items()}
        finals = []
        for err, slots in zip(errs, strings):
            final = tuple(edge_of.get(moved[s]) for s in slots)
            if None in final or len(set(final)) != err.length:
                break
            finals.append(final)
        n = len(finals)
        self.results: dict[ErrorString, tuple[tuple[int, ...], int, int]] = {}
        if n:
            qubits, cones = _cone_words(circuit, strings[:n])
            inc = _Incidence(end_lat)
            targets = np.zeros((inc.size, cones.shape[1]), dtype=np.uint64)
            targets[[edge_of[q] for q in qubits.tolist()]] = cones
            spreads = _spreads(inc, _pack(inc.size, finals), targets, n)
            sizes = _unpack(cones, n).sum(axis=0)
            for err, final, size, spread in zip(errs, finals, sizes.tolist(), spreads.tolist()):
                self.results[err] = (final, size, spread)
        if n < len(errs):
            raise MoveError("relabeling changed an error string's edge count")


def braid_error_trial(
    lat: SurfaceLattice,
    schedule: MoveSchedule,
    circuit: GateCircuit,
    err: ErrorString,
    cols: int,
    *,
    batch: _TrialBatch | None = None,
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

    The slots, cone and spread come from a _TrialBatch: stretch_report
    passes the one it made for all trials of a distance, which holds
    err, and a lone call makes one of err alone.
    """
    batch = _TrialBatch(lat, schedule, circuit, [err]) if batch is None else batch
    final, support_size, spread = batch.results[err]
    span0 = grid_span(lat, err, cols)
    span1 = grid_span(batch.end_lat, ErrorString(final), cols)
    return {
        # the anyon-pair separation is the length a decoder sees; the
        # edge count is invariant by construction and checked by the batch
        "initial_len": span0,
        "final_len": span1,
        "ratio": span1 / span0,
        "edge_count": err.length,
        "support_size": support_size,
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

    Work is batched per distance: the braid and the sampling pool are
    built once, every trial's string is sampled first, and one
    _TrialBatch grows all the trials' light cones in one packed walk of
    the compiled circuit and measures all their spreads in one packed
    search. braid_error_trial then reads each trial from that batch.
    Since the RNG streams are keyed per trial, the strings, and so the
    report, do not depend on the batching.
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
        k = cols // 6
        pool = _sample_pool(lat, cols, (2, k + 4))  # transport corridor plus one ring either side
        errs = []
        for t in range(trials):
            rng = np.random.default_rng((int(seed), int(d), t))
            length = STRING_LENGTHS[int(rng.integers(len(STRING_LENGTHS)))]
            errs.append(_sample_string(lat, rng, length, cols, pool))
        batch = _TrialBatch(lat, sched, circ, errs)
        ratios = []
        spreads = []
        for t, err in enumerate(errs):
            res = braid_error_trial(lat, sched, circ, err, cols, batch=batch)
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
