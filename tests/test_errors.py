"""Error strings: exact relabeling transport plus light-cone growth."""

import dataclasses
import json
import math

import numpy as np
import pytest

from tvq.fusion import fibonacci_data
from tvq.lattice import (
    MoveError,
    build_planar_patch,
    pachner_22,
    polar_vertex_id,
)
from tvq.gadgets import LOCAL, MoveSchedule, run_schedule, shear_step, split_row
from tvq.circuits import Gate, GateCircuit
from tvq.errors import (
    ErrorString,
    braid_error_trial,
    error_string,
    grid_span,
    lightcone_grow,
    propagate_cpi,
    report_to_csv,
    report_to_json,
    stretch_report,
    string_endpoints,
)

DATA = fibonacci_data()


def radial_string(lat, cols, sector, r_lo, r_hi):
    """Chain of spokes from ring r_lo down to r_hi at a fixed sector."""
    edges = []
    for r in range(r_lo, r_hi):
        u = polar_vertex_id(cols, r, sector)
        v = polar_vertex_id(cols, r + 1, sector)
        edges.append(lat.edge_between(u, v))
    return error_string(lat, edges)


# ---- path validation -----------------------------------------------------------


def test_error_string_accepts_connected_path():
    lat = build_planar_patch(4, 8, punctures=[(0, 0)])
    err = radial_string(lat, 8, 0, 1, 4)
    assert err.length == 3
    u, v = string_endpoints(lat, err)
    assert {u, v} == {polar_vertex_id(8, 1, 0), polar_vertex_id(8, 4, 0)}


def test_error_string_rejects_gaps_and_repeats():
    lat = build_planar_patch(4, 8, punctures=[(0, 0)])
    a = lat.edge_between(polar_vertex_id(8, 1, 0), polar_vertex_id(8, 2, 0))
    far = lat.edge_between(polar_vertex_id(8, 3, 4), polar_vertex_id(8, 4, 4))
    with pytest.raises(MoveError, match="share no vertex"):
        error_string(lat, [a, far])
    with pytest.raises(MoveError, match="repeats"):
        error_string(lat, [a, a])
    with pytest.raises(MoveError, match="at least one edge"):
        error_string(lat, [])
    with pytest.raises(MoveError, match="not on the lattice"):
        error_string(lat, [10 ** 6])


# ---- relabeling transport ------------------------------------------------------


def test_identity_sigma_fixes_string():
    lat = build_planar_patch(4, 8, punctures=[(0, 0)])
    err = radial_string(lat, 8, 2, 1, 3)
    out, out_lat = propagate_cpi(err, {}, lat)
    assert out.edges == err.edges
    assert out.length == err.length


def test_single_edge_string_maps_to_single_edge():
    lat = build_planar_patch(4, 8, punctures=[(0, 0)])
    err = radial_string(lat, 8, 0, 1, 2)
    sched = shear_step(lat, 0, stride=1, data=DATA)
    cur = lat
    for rec in sched.groups[0].records():
        cur = pachner_22(cur, rec.edge)[0]
    (perm,) = sched.groups[1].records()
    out, _ = propagate_cpi(err, perm.vmap, cur, target=sched.groups[1].target)
    assert out.length == 1


def test_shear_stretches_crossing_string_and_inverse_squeezes():
    """A radial string through the sheared corridor tilts: same edge
    count, endpoints pushed apart; the inverse relabeling pulls the
    image straight again."""
    lat = build_planar_patch(4, 8, punctures=[(0, 0)])
    cols, k = 8, 2
    err = radial_string(lat, cols, 0, 1, 4)
    span0 = grid_span(lat, err, cols)
    assert span0 == 3

    sched = shear_step(lat, 0, stride=k, data=DATA)
    cur = lat
    for rec in sched.groups[0].records():
        cur = pachner_22(cur, rec.edge)[0]
    (perm,) = sched.groups[1].records()

    stretched, out_lat = propagate_cpi(err, perm.vmap, cur, target=sched.groups[1].target)
    assert stretched.length == err.length
    span1 = grid_span(out_lat, stretched, cols)
    assert span1 == span0 + k

    inverse = {v: u for u, v in perm.vmap.items()}
    squeezed, back_lat = propagate_cpi(stretched, inverse, out_lat, target=cur)
    assert squeezed.length == err.length
    assert grid_span(back_lat, squeezed, cols) == span0
    assert sorted(squeezed.edges) == sorted(err.edges)


def test_rigid_block_carries_string_without_stretch():
    # both endpoints at or below the puncture ring ride the rotation whole
    lat = build_planar_patch(4, 8, punctures=[(0, 0)])
    ring1 = [polar_vertex_id(8, 1, s) for s in range(3)]
    edges = [lat.edge_between(ring1[i], ring1[i + 1]) for i in range(2)]
    err = error_string(lat, edges)
    span0 = grid_span(lat, err, 8)
    sched = shear_step(lat, 0, stride=2, data=DATA)
    cur = lat
    for rec in sched.groups[0].records():
        cur = pachner_22(cur, rec.edge)[0]
    (perm,) = sched.groups[1].records()
    out, out_lat = propagate_cpi(err, perm.vmap, cur, target=sched.groups[1].target)
    assert out.length == err.length
    assert grid_span(out_lat, out, 8) == span0


def test_propagate_rejects_non_cpi_sigma():
    lat = build_planar_patch(4, 8, punctures=[(0, 0)])
    err = radial_string(lat, 8, 0, 1, 3)
    # swapping two far-apart vertices tears the edge map
    u, w = polar_vertex_id(8, 1, 0), polar_vertex_id(8, 4, 4)
    with pytest.raises(MoveError):
        propagate_cpi(err, {u: w, w: u}, lat)
    with pytest.raises(MoveError, match="not injective"):
        propagate_cpi(err, {u: w}, lat)


# ---- light cone ----------------------------------------------------------------


def test_lightcone_fixed_by_empty_circuit():
    circ = GateCircuit(qubits=(0, 1, 2))
    assert lightcone_grow({1}, circ) == frozenset({1})


def test_lightcone_grows_only_through_touching_gates():
    circ = GateCircuit(
        qubits=(0, 1, 2, 3, 4),
        layers=(
            (Gate("X", (0,)), Gate("CX", (3,), controls=(4,), polarities=(1,))),
            (Gate("CX", (1,), controls=(0,), polarities=(1,)),),
            (Gate("MCX", (2,), controls=(3, 4), polarities=(1, 1)),),
        ),
    )
    grown = lightcone_grow({0}, circ)
    # layer 1 touches 0 (X), layer 2 spreads 0 -> {0,1}, layer 3 never touches
    assert grown == frozenset({0, 1})
    assert lightcone_grow({4}, circ) == frozenset({2, 3, 4})


def test_lightcone_relabeling_moves_without_growth():
    circ = GateCircuit(
        qubits=(0, 1, 2),
        layers=((Gate("X", (0,)),),),
        permutation_layers=((0, ((0, 2), (2, 0))),),
    )
    # 0 hops to 2 before the only gate layer, so the X on 0 misses it
    assert lightcone_grow({0}, circ) == frozenset({2})


def test_lightcone_refuses_relabelings_that_are_not_bijections():
    # ((0, 1), (1, 1)) merges slots 0 and 1, which would shrink the cone;
    # the others move slot 0 onto -5, a slot the circuit does not hold
    for pairs in (((0, 1), (1, 1)), ((0, -5), (1, 1)), ((0, -5), (-5, 0))):
        circ = GateCircuit(qubits=(0, 1), permutation_layers=((0, pairs),))
        with pytest.raises(MoveError, match="bijection|outside the circuit"):
            lightcone_grow({0, 1}, circ)


def test_lightcone_refuses_a_support_outside_the_circuit():
    circ = GateCircuit(qubits=(0, 1, 2))
    for support in ({3}, {-1}, {0, 7}):
        with pytest.raises(MoveError, match="not a qubit of the circuit"):
            lightcone_grow(support, circ)


def test_lightcone_layer_growth_is_reproducible_by_hand():
    """One layer grows the set by exactly the touching gates' supports."""
    rng = np.random.default_rng(2)
    lat = build_planar_patch(3, 6, punctures=[(0, 0)])
    sched = shear_step(lat, 0, stride=1, data=DATA)
    from tvq.circuits import compile_schedule

    circ = compile_schedule(lat, sched, DATA)
    support = {lat.qubit_slots()[4]}
    cur = set(support)
    for layer in circ.layers:
        want = set(cur)
        for gate in layer:
            if set(gate.targets) & cur or set(gate.controls) & cur:
                want |= set(gate.targets) | set(gate.controls)
        one = GateCircuit(qubits=circ.qubits, layers=(layer,))
        assert lightcone_grow(cur, one) == frozenset(want)
        cur = want


# ---- braid-level statistics ----------------------------------------------------


def test_braid_trial_preserves_edge_count_and_stays_local():
    from tvq.errors import _braid_setup

    lat, cols, sched, circ = _braid_setup(4, DATA)
    err = radial_string(lat, cols, 3, 4, 6)
    res = braid_error_trial(lat, sched, circ, err, cols)
    assert res["edge_count"] == 2
    assert res["initial_len"] == 2  # endpoint span of a radial 2-chain
    assert res["support_size"] >= res["edge_count"]
    assert res["lightcone_spread"] < cols


def test_braid_trial_needs_a_schedule_ending_on_a_relabeling():
    from tvq.errors import _braid_setup

    lat, cols, _, circ = _braid_setup(4, DATA)
    err = radial_string(lat, cols, 3, 4, 6)
    shear = shear_step(lat, polar_vertex_id(cols, 2, 0), stride=2, data=DATA)
    mid = run_schedule(None, lat, shear)[1]
    for sched in (split_row(lat, 3, data=DATA), MoveSchedule(()), shear.then(split_row(mid, 3))):
        with pytest.raises(MoveError, match="ends on a relabeling"):
            braid_error_trial(lat, sched, circ, err, cols)


def test_braid_trial_rejects_a_relabeling_that_merges_the_string():
    from tvq.errors import _braid_setup

    lat, cols, sched, circ = _braid_setup(4, DATA)
    err = radial_string(lat, cols, 3, 4, 6)
    after, pairs = circ.permutation_layers[-1]
    for sigma in ({s: 0 for s, _ in pairs}, {s: -5 for s, _ in pairs}):
        perms = circ.permutation_layers[:-1] + ((after, tuple(sigma.items())),)
        bad = dataclasses.replace(circ, permutation_layers=perms)
        with pytest.raises(MoveError, match="edge count"):
            braid_error_trial(lat, sched, bad, err, cols)


def test_stretch_report_is_size_independent():
    # 100 trials lets the worst-case shapes show up at both sizes; the
    # extreme strings are span-1 pairs straddling one ramp annulus
    rep = stretch_report([4, 8], trials=100, seed=17)
    by_d = {s["d"]: s for s in rep["summary"]}
    assert by_d[8]["max_ratio"] <= by_d[4]["max_ratio"] + 1.0
    # the radius bound is a function of compiled shape alone
    assert by_d[4]["lightcone_radius"] == by_d[8]["lightcone_radius"]
    for s in rep["summary"]:
        assert s["max_ratio"] >= 1.0


@pytest.mark.parametrize("seed", [2, 17])
def test_stretch_report_scales_with_distance(seed):
    rep = stretch_report([4, 8, 16], trials=40, seed=seed)
    assert [s["d"] for s in rep["summary"]] == [4, 8, 16]
    assert len(rep["rows"]) == 3 * 40
    # the compiled braid has one shape at every d, so one radius bounds
    # every trial's spread
    assert len({s["lightcone_radius"] for s in rep["summary"]}) == 1
    for s in rep["summary"]:
        assert 0 <= s["max_lightcone_spread"] <= s["lightcone_radius"]


def test_stretch_report_deterministic():
    a = stretch_report([4], trials=8, seed=5)
    b = stretch_report([4], trials=8, seed=5)
    assert report_to_csv(a) == report_to_csv(b)
    assert report_to_json(a) == report_to_json(b)
    c = stretch_report([4], trials=8, seed=6)
    assert report_to_csv(a) != report_to_csv(c)


def test_report_formats():
    rep = stretch_report([4], trials=3, seed=1)
    csv = report_to_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "d,trial,initial_len,final_len,ratio"
    assert len(lines) == 1 + 3
    doc = json.loads(report_to_json(rep))
    assert doc["seed"] == 1
    assert doc["summary"][0]["d"] == 4
    assert set(doc["summary"][0]) >= {"d", "max_ratio", "mean_ratio"}


def test_stretch_report_rejects_zero_trials():
    with pytest.raises(MoveError, match="at least one trial"):
        stretch_report([4], trials=0, seed=1)
