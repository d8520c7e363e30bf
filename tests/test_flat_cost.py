"""Flat structural cost per move: the collector pause and the F-move templates.

The structural entry points (shear_step, braid_schedule,
baseline_schedule, run_schedule, compile_schedule), the circuit
renderer behind export_circuit and import_circuit pause Python's
cyclic garbage collector while they run and restore the caller's
setting on exit. compile_schedule lowers each flip through a cached
template per leg shape. These tests pin the collector contract, compare
the templates with the per-flip lowering they replace, and pin the
bytes of compiled circuits.
"""

import gc
import hashlib
import io
import itertools
import json

import pytest

from tvq.circuits import (
    FLIP_PATTERNS,
    THETA,
    Gate,
    _fmove_layers,
    circuit_to_jsonable,
    compile_pachner13,
    compile_schedule,
    export_circuit,
    import_circuit,
)
from tvq.fusion import trivial_data
from tvq.gadgets import (
    baseline_schedule,
    braid_arena,
    braid_schedule,
    run_schedule,
    shear_step,
)
from tvq.lattice import MoveError, build_planar_patch, polar_vertex_id, replace_lattice
from tvq.statevec import VersionError, make_delta_state


@pytest.fixture
def restore_gc():
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


def collections_during(call):
    """call()'s result and the number of collections that start inside it.

    A full collection first empties the young generation, so that no
    collection is already due at the call's first allocation. The count
    is read before anything else allocates: with the collector paused
    inside, a young collection may be due as soon as the call returns,
    and that one runs outside it."""
    gc.collect()
    started = [0]

    def count(phase, info):
        if phase == "start":
            started[0] += 1

    gc.callbacks.append(count)
    try:
        result = call()
        during = started[0]
    finally:
        gc.callbacks.remove(count)
    return result, during


# ---- the collector contract ------------------------------------------------------


def small_braid():
    lat = build_planar_patch(4, 4, punctures=[(0, 0), (2, 0)])
    anyon = polar_vertex_id(4, 2, 0)
    return lat, anyon, braid_schedule(lat, anyon, 0, steps=4)


def path_of(cols):
    return [polar_vertex_id(cols, 2, -(i + 1) % cols) for i in range(cols)]


def entry_calls():
    lat, anyon, sched = small_braid()
    return {
        "shear_step": lambda: shear_step(lat, anyon, -1, 1),
        "braid_schedule": lambda: braid_schedule(lat, anyon, 0, steps=4),
        "baseline_schedule": lambda: baseline_schedule(lat, anyon, path_of(4)),
        "run_schedule_lattice": lambda: run_schedule(None, lat, sched),
        "run_schedule_state": lambda: run_schedule(make_delta_state(lat, 0), lat, sched),
        "compile_schedule": lambda: compile_schedule(lat, sched),
    }


def raising_calls():
    lat, anyon, sched = small_braid()
    other = build_planar_patch(4, 8, punctures=[(0, 0), (2, 0)])
    stale = make_delta_state(replace_lattice(lat, version=lat.version + 1), 0)
    return {
        "shear_step": lambda: shear_step(lat, 1, -1, 1),
        "braid_schedule": lambda: braid_schedule(lat, 1, 0, steps=4),
        "baseline_schedule": lambda: baseline_schedule(lat, 1, path_of(4)),
        "run_schedule_lattice": lambda: run_schedule(None, other, sched),
        "run_schedule_state": lambda: run_schedule(stale, lat, sched),
        "compile_schedule": lambda: compile_schedule(lat, sched, trivial_data()),
    }


ENTRY_POINTS = (
    "shear_step",
    "braid_schedule",
    "baseline_schedule",
    "run_schedule_lattice",
    "run_schedule_state",
    "compile_schedule",
)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_restores_the_collector_setting(name, enabled, restore_gc):
    calls = entry_calls()
    (gc.enable if enabled else gc.disable)()
    calls[name]()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_point_restores_the_collector_setting_when_it_raises(name, enabled, restore_gc):
    calls = raising_calls()
    (gc.enable if enabled else gc.disable)()
    with pytest.raises((MoveError, VersionError)):
        calls[name]()
    assert gc.isenabled() is enabled


def test_no_collection_starts_while_the_d16_braid_builds_compiles_and_replays(restore_gc):
    gc.enable()
    lat, _, anyon = braid_arena(16)
    sched, during = collections_during(lambda: braid_schedule(lat, anyon, 0, steps=6))
    assert during == 0
    circ, during = collections_during(lambda: compile_schedule(lat, sched))
    assert during == 0
    (_, end), during = collections_during(lambda: run_schedule(None, lat, sched))
    assert during == 0
    assert circ.depth() == 168
    assert end.signature() == lat.signature()


def test_no_collection_starts_while_the_d16_braid_circuit_exports_and_imports(restore_gc):
    gc.enable()
    lat, _, anyon = braid_arena(16)
    circ = compile_schedule(lat, braid_schedule(lat, anyon, 0, steps=6))
    text, during = collections_during(lambda: export_circuit(circ, io.StringIO()))
    assert during == 0
    back, during = collections_during(lambda: import_circuit(io.StringIO(text)))
    assert during == 0
    assert back == circ


# ---- F-move templates against the per-flip lowering -------------------------------


def ref_fold_controls(legs, pattern):
    out = {}
    for slot, want in zip(legs, pattern):
        if slot < 0:
            if want == 1:
                return None
            continue
        if slot in out and out[slot] != want:
            return None
        out[slot] = want
    return out


def ref_controlled_x(target, ctrl):
    if not ctrl:
        return Gate("X", (target,))
    items = tuple(sorted(ctrl.items()))
    kind = "CX" if len(items) == 1 else "MCX"
    return Gate(
        kind,
        (target,),
        controls=tuple(q for q, _ in items),
        polarities=tuple(p for _, p in items),
    )


def ref_fmove_layers(target, legs):
    """The per-flip lowering that the templates replaced."""
    layers = []
    sandwich = ref_fold_controls(legs, (1, 1, 1, 1))
    if sandwich is not None:
        layers.append([Gate("RY", (target,), params=(THETA,))])
        layers.append([ref_controlled_x(target, sandwich)])
        layers.append([Gate("RY", (target,), params=(-THETA,))])
    for pattern in FLIP_PATTERNS:
        ctrl = ref_fold_controls(legs, pattern)
        if ctrl is not None:
            layers.append([ref_controlled_x(target, ctrl)])
    return layers


def test_templates_match_the_per_flip_lowering_on_every_leg_shape():
    # -1 is a pinned leg; four values from {-1, 3, 7, 9, 12} cover pinned
    # legs, repeated slots and every rank order of up to four slots
    shapes = set()
    for legs in itertools.product((-1, 3, 7, 9, 12), repeat=4):
        for target in (1, 20):
            assert _fmove_layers(target, legs) == ref_fmove_layers(target, legs), (target, legs)
        slots = sorted({s for s in legs if s >= 0})
        shapes.add(tuple(slots.index(s) if s >= 0 else -1 for s in legs))
    # every shape: j pinned legs in C(4, j) ways, the other 4 - j ordered
    # into ranks with ties (1, 1, 3, 13 and 75 ways for 0 to 4 legs)
    assert len(shapes) == 75 + 4 * 13 + 6 * 3 + 4 * 1 + 1


def sha(circuit):
    return hashlib.sha256(json.dumps(circuit_to_jsonable(circuit), sort_keys=True).encode()).hexdigest()


def test_compiled_braids_keep_their_bytes():
    lat, _, anyon = braid_arena(4)
    assert sha(compile_schedule(lat, braid_schedule(lat, anyon, 0, steps=4))) == (
        "4c6e09e52eceff106d075d7ba3a993daae6490962fc1e42b033396820ad9b31b"
    )
    lat, cols, anyon = braid_arena(8)
    assert sha(compile_schedule(lat, braid_schedule(lat, anyon, 0))) == (
        "38a020bac5c786bd83746d8a2c2f4a8187c33b941c86bb07d91ea8f906060954"
    )
    assert sha(compile_schedule(lat, baseline_schedule(lat, anyon, path_of(cols)))) == (
        "5f819654c64e7fa802b90d085a4659ae4afc06c6c2ffdb1a899832323a71d690"
    )


def test_compiled_subdivisions_keep_their_bytes():
    lat = build_planar_patch(3, 4)
    digest = hashlib.sha256()
    for tri in sorted(lat.triangles):
        digest.update(json.dumps(circuit_to_jsonable(compile_pachner13(lat, tri)), sort_keys=True).encode())
    assert len(lat.triangles) == 20
    assert digest.hexdigest() == "fcf7d68673a5800fe340e87bd4cbf0110c1ddc20ca3880567c01b83ee301caf0"
