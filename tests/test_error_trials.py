"""Batched error trials against the per-trial reference algorithm.

stretch_report packs the trials of one distance into the bits of
uint64 words: one walk of the circuit grows all their light cones and
one breadth-first search measures all their spreads. The references
below are the per-gate set growth, the per-call neighbour sets, a dict
BFS and the per-trial loop that the batching replaced; the batched
code must give the same cones, the same spreads and byte-for-byte the
same reports, across word boundaries too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvq.circuits import Gate, GateCircuit
from tvq.errors import (
    STRING_LENGTHS,
    ErrorString,
    _Incidence,
    _braid_setup,
    _grow_cones,
    _pack,
    _spreads,
    braid_error_trial,
    error_string,
    grid_span,
    lightcone_grow,
    lightcone_radius_bound,
    stretch_report,
)
from tvq.fusion import fibonacci_data
from tvq.gadgets import _disk_coords
from tvq.lattice import MoveError, build_planar_patch

DATA = fibonacci_data()


# ---- references: one support, one trial at a time ------------------------------


def reference_lightcone(support, circuit):
    """Per-gate set growth: every gate touching the set adds its support."""
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


def reference_neighbours(lat, e):
    ve, edges = lat.vertex_edges(), lat.edges
    rec = edges[e]
    out = {x for v in (rec.v1, rec.v2) for x in ve[v] if edges[x].qubit is not None}
    out.discard(e)
    return out


def reference_sample(lat, rng, length, cols, rings):
    lo, hi = rings
    ve = lat.vertex_edges()
    window = (v for v in lat.vertices if lo <= _disk_coords(v, cols)[0] <= hi)
    pool = sorted({e for v in window for e in ve[v] if lat.edges[e].qubit is not None})
    for _ in range(256):
        start = pool[int(rng.integers(len(pool)))]
        path = [start]
        used = {start}
        while len(path) < length:
            options = sorted(reference_neighbours(lat, path[-1]) - used)
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


def reference_bfs(lat, seeds, targets):
    seen = {s: 0 for s in seeds}
    missing = set(targets) - seen.keys()
    frontier = list(seeds)
    while frontier and missing:
        nxt = []
        for e in frontier:
            for o in reference_neighbours(lat, e):
                if o not in seen:
                    seen[o] = seen[e] + 1
                    missing.discard(o)
                    nxt.append(o)
        frontier = nxt
    return max(seen[t] for t in targets)


def reference_trial(lat, schedule, circuit, err, cols):
    """One trial as the per-trial loop ran it; returns (result, cone)."""
    end_lat = schedule.groups[-1].target
    slot_of = {e: rec.qubit for e, rec in lat.edges.items() if rec.qubit is not None}
    slots = [slot_of[e] for e in err.edges]
    for sigma, _ in circuit.steps():
        if sigma is not None:
            slots = [sigma.get(s, s) for s in slots]
    edge_of = end_lat.slot_edge_map()
    cur_edges = tuple(edge_of.get(s) for s in slots)
    assert None not in cur_edges and len(set(cur_edges)) == err.length
    cone = reference_lightcone({slot_of[e] for e in err.edges}, circuit)
    final_edges = sorted(edge_of[q] for q in cone)
    span0 = grid_span(lat, err, cols)
    span1 = grid_span(end_lat, ErrorString(cur_edges), cols)
    res = {
        "initial_len": span0,
        "final_len": span1,
        "ratio": span1 / span0,
        "edge_count": err.length,
        "support_size": len(final_edges),
        "lightcone_spread": reference_bfs(end_lat, set(cur_edges), set(final_edges)),
    }
    return res, cone


def reference_report(setups, trials, seed):
    """The per-trial stretch_report loop; also returns each distance's
    sampled strings with their reference trial results and cones."""
    rows, summary, samples = [], [], {}
    for d, (lat, cols, sched, circ) in setups.items():
        ratios, spreads, samples[d] = [], [], []
        for t in range(trials):
            rng = np.random.default_rng((seed, d, t))
            length = STRING_LENGTHS[int(rng.integers(len(STRING_LENGTHS)))]
            err = reference_sample(lat, rng, length, cols, (2, cols // 6 + 4))
            res, cone = reference_trial(lat, sched, circ, err, cols)
            samples[d].append((err, res, cone))
            ratios.append(res["ratio"])
            spreads.append(res["lightcone_spread"])
            rows.append(
                {
                    "d": d,
                    "trial": t,
                    "initial_len": res["initial_len"],
                    "final_len": res["final_len"],
                    "ratio": res["ratio"],
                }
            )
        summary.append(
            {
                "d": d,
                "max_ratio": max(ratios),
                "mean_ratio": sum(ratios) / len(ratios),
                "lightcone_radius": lightcone_radius_bound(circ),
                "max_lightcone_spread": max(spreads),
            }
        )
    return {"trials": trials, "seed": seed, "rows": rows, "summary": summary}, samples


# ---- random small circuits -----------------------------------------------------


@st.composite
def circuits_with_supports(draw):
    """Layers of disjoint gates (some layer objects recurring) with
    relabelings between them, over arbitrary and negative slot ids."""
    n = draw(st.integers(1, 8))
    qubits = draw(st.lists(st.integers(-20, 40), min_size=n, max_size=n, unique=True))
    layers = []
    for _ in range(draw(st.integers(0, 6))):
        if layers and draw(st.booleans()):
            layers.append(layers[draw(st.integers(0, len(layers) - 1))])
            continue
        order = draw(st.permutations(qubits))
        gates, i = [], 0
        while i < len(order):
            size = draw(st.integers(1, 3))
            chunk, i = order[i : i + size], i + size
            if draw(st.booleans()):
                continue  # these qubits idle in this layer
            controls = tuple(chunk[1:])
            kind = ("X", "CX", "MCX")[min(len(controls), 2)]
            polarities = (1,) * len(controls)
            gates.append(Gate(kind, (chunk[0],), controls=controls, polarities=polarities))
        layers.append(tuple(gates))
    afters = sorted(draw(st.lists(st.integers(0, len(layers)), max_size=3)))
    perms = []
    for after in afters:
        moved = draw(st.lists(st.sampled_from(qubits), unique=True))
        perms.append((after, tuple(zip(moved, draw(st.permutations(moved))))))
    circ = GateCircuit(qubits=tuple(qubits), layers=tuple(layers), permutation_layers=tuple(perms))
    # past 64 supports the cones span several words
    supports = draw(st.lists(st.sets(st.sampled_from(qubits)), min_size=1, max_size=150))
    return circ, supports


@settings(max_examples=200, deadline=None)
@given(case=circuits_with_supports())
def test_lightcone_matches_per_gate_growth_on_random_circuits(case):
    circ, supports = case
    qubits, cones = _grow_cones(circ, supports)
    for support, row in zip(supports, cones):
        want = reference_lightcone(support, circ)
        assert lightcone_grow(support, circ) == want
        assert frozenset(qubits[row].tolist()) == want


# ---- braid circuits and full reports -------------------------------------------


@pytest.fixture(scope="module")
def braid_setups():
    return {d: _braid_setup(d, DATA) for d in (4, 8)}


@pytest.mark.parametrize("seed", [1, 5, 17])
def test_stretch_report_matches_the_per_trial_reference(braid_setups, seed):
    ref, samples = reference_report(braid_setups, 40, seed)
    rep = stretch_report([4, 8], trials=40, seed=seed)
    assert rep == ref
    for d, (lat, cols, sched, circ) in braid_setups.items():
        slot_of = {e: rec.qubit for e, rec in lat.edges.items() if rec.qubit is not None}
        supports = [[slot_of[e] for e in err.edges] for err, _, _ in samples[d]]
        qubits, cones = _grow_cones(circ, supports)
        for (err, res, cone), row in zip(samples[d], cones):
            assert frozenset(qubits[row].tolist()) == cone
        # a lone trial builds its own tables and grows its own cone
        for err, res, _ in samples[d][:3]:
            assert braid_error_trial(lat, sched, circ, err, cols) == res
    if seed == 1:
        # the non-path final strings of the CHANGES.md FOUND line still
        # report ratio 0, batched or not
        zeros = {(r["d"], r["trial"]) for r in rep["rows"] if r["ratio"] == 0}
        assert zeros == {(8, 5), (8, 18)}


def test_stretch_report_matches_the_per_trial_reference_across_words(braid_setups):
    # 130 trials fill three words, so trials 63 and 64 sit on either
    # side of a word boundary
    ref, _ = reference_report(braid_setups, 130, 3)
    assert stretch_report([4, 8], trials=130, seed=3) == ref


# ---- the packed spread search --------------------------------------------------


def packed_spreads(lat, seeds, targets):
    """_spreads over per-trial seed and target edge lists."""
    inc = _Incidence(lat)
    return _spreads(inc, _pack(inc.size, seeds), _pack(inc.size, targets), len(seeds))


@pytest.fixture(scope="module")
def end_lattice(braid_setups):
    _, _, sched, _ = braid_setups[4]
    return sched.groups[-1].target


def test_packed_spreads_match_a_dict_bfs(end_lattice):
    lat = end_lattice
    qubit_edges = [e for e, rec in lat.edges.items() if rec.qubit is not None]
    rng = np.random.default_rng(7)
    seeds, targets = [], []
    for _ in range(150):
        seeds.append(rng.choice(qubit_edges, size=int(rng.integers(1, 4)), replace=False).tolist())
        targets.append(rng.choice(qubit_edges, size=int(rng.integers(1, 12)), replace=False).tolist())
    got = packed_spreads(lat, seeds, targets)
    want = [reference_bfs(lat, set(s), set(t)) for s, t in zip(seeds, targets)]
    assert got.tolist() == want
    assert len(set(want)) > 3  # the trials finish at different levels


def test_a_batch_raises_the_first_unreachable_trial_in_trial_order():
    lat = build_planar_patch(3, 6, punctures=[(0, 0)])
    qubit_edges = sorted(e for e, rec in lat.edges.items() if rec.qubit is not None)
    pinned = sorted(e for e, rec in lat.edges.items() if rec.qubit is None)
    assert pinned == [18, 19, 20, 21, 22, 23]  # no qubit-edge path reaches them
    start = qubit_edges[0]
    seeds = [[start]] * 130
    targets = [[qubit_edges[t % len(qubit_edges)]] for t in range(130)]
    # the lowest lost edge of the first failing trial names the error,
    # ahead of a lower edge lost by a later trial
    targets[70] = [qubit_edges[5], 23, 20]
    targets[100] = [18]
    with pytest.raises(MoveError, match="edge 20 cannot be reached") as batch:
        packed_spreads(lat, seeds, targets)
    with pytest.raises(MoveError) as lone:
        packed_spreads(lat, seeds[70:71], targets[70:71])
    assert str(batch.value) == str(lone.value)
    targets[70] = [qubit_edges[5]]
    with pytest.raises(MoveError, match="edge 18 cannot be reached"):
        packed_spreads(lat, seeds, targets)
    targets[100] = [qubit_edges[5]]
    assert packed_spreads(lat, seeds, targets).tolist() == [
        reference_bfs(lat, set(s), set(t)) for s, t in zip(seeds, targets)
    ]


def test_packed_spreads_names_an_edge_it_cannot_reach():
    lat = build_planar_patch(3, 6, punctures=[(0, 0)])
    start = min(e for e, rec in lat.edges.items() if rec.qubit is not None)
    assert lat.edges[18].qubit is None  # pinned: no qubit-edge path reaches it
    with pytest.raises(MoveError, match="edge 18 cannot be reached"):
        packed_spreads(lat, [[start]], [[18]])
    assert packed_spreads(lat, [[start]], [[start]]).tolist() == [0]
