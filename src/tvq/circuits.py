"""Gate-level compilation of moves and schedules, with a sparse simulator.

The semantic simulator applies moves as sparse linear maps; this module
lowers the same moves to explicit gates so the two implementations can
cross-check each other, and so depth can be counted at gate granularity.
simulate_sparse applies a circuit gate by gate to the state kernels'
sparse configs, so the check runs on registers of up to 64 slots;
simulate_circuit wraps it for dense vectors of up to 22 qubits.

An edge flip compiles to at most seven single-target layers:

* RY(theta), a fully positive multi-controlled X over the four quad
  legs, RY(-theta), with theta = arctan(phi**-0.5). The rotations cancel
  unless the controls fire, so the sandwich acts as the golden-ratio
  2x2 block exactly on the all-ones leg pattern and as the identity
  elsewhere.
* four polarity-controlled X gates, one per leg pattern that relabels
  the flipped edge classically (0011, 0110, 1001, 1100). All other
  admissible patterns fix the label and need no gate.

Controls on pinned legs are folded away at compile time: a pinned leg
always reads 0, so gates wanting it at 1 are dropped and the remaining
controls shrink. A triangle subdivision compiles to one CX that copies
a boundary label onto a fresh edge, one vacuum-loop preparation (SPREP,
the RY by 2*arctan(phi) that sends |0> to (|0> + phi|1>)/D), and two
compiled flips; the inverse move is the reversed gate list.

Permutations stay free relabelings: they interleave with gate layers
but never add depth, mirroring how the depth reports count move groups.

A Gate is a typed tuple (typing.NamedTuple): immutable and hashable,
compared field by field, copied with _replace (not dataclasses.replace).
Its constructor refuses every gate that simulate_sparse would not apply
as its fields say, and import runs no other gate check. A flip's gates
are stamped from its shape's cached template, which the constructor
checked once, with Gate._make; compile_schedule still checks every
circuit it builds (GateCircuit.check).
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .fusion import PHI, FusionData, fibonacci_data
from .lattice import (
    F_MOVE,
    PACHNER_13,
    PACHNER_31,
    MoveError,
    MoveRecord,
    SurfaceLattice,
    _refusing_malformed,
    pachner_13,
    pachner_22,
)
from .gadgets import LOCAL, MoveGroup, MoveSchedule, _gc_paused
from .statevec import CONFIG_BITS, U64, StringNetState, _coalesce, _key, _move_bits

# angles are rounded to 15 significant digits once, here, so that the
# JSON export (which prints 15 significant digits) round-trips circuits
# without any loss
THETA = float(format(math.atan(PHI ** -0.5), ".15g"))
SPREP_ANGLE = float(format(2.0 * math.atan(PHI), ".15g"))

# leg patterns (in quad side order) whose flip relabels the edge
FLIP_PATTERNS = ((0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0))

GATE_KINDS = ("RY", "X", "CX", "MCX", "SPREP")

MAX_DENSE_QUBITS = 22
# amplitudes below this are dropped, as the state kernels drop them by default
_TOL = StringNetState.tolerance

__all__ = [
    "THETA",
    "SPREP_ANGLE",
    "Gate",
    "GateCircuit",
    "ry_matrix",
    "sprep_matrix",
    "compile_fmove",
    "compile_pachner13",
    "compile_schedule",
    "inverse_circuit",
    "simulate_sparse",
    "simulate_circuit",
    "export_circuit",
    "import_circuit",
    "circuit_to_jsonable",
    "circuit_from_jsonable",
]


class _GateFields(NamedTuple):
    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarities: tuple[int, ...] = ()
    params: tuple[float, ...] = ()


class Gate(_GateFields):
    """One gate: targets act, controls gate with explicit polarity.

    A typed tuple: immutable, hashable and compared field by field; copy
    one with _replace. The constructor refuses (MoveError) any gate that
    simulate_sparse would not apply as its fields say. Gate._make builds
    a gate unchecked, for gates stamped from a checked template.
    """

    __slots__ = ()

    def __new__(cls, kind, targets, controls=(), polarities=(), params=()):
        if kind not in GATE_KINDS:
            raise MoveError(f"unknown gate kind {kind!r}")
        if len(controls) != len(polarities):
            raise MoveError("each control needs exactly one polarity")
        if len(targets) != 1:
            raise MoveError(f"{kind} gate needs exactly one target, got {len(targets)}")
        if len(set(controls)) != len(controls) or targets[0] in controls:
            raise MoveError(f"{kind} gate controls must be distinct and differ from its target")
        if any(not isinstance(p, numbers.Integral) or p not in (0, 1) for p in polarities):
            raise MoveError(f"{kind} gate polarities must be 0 or 1, got {list(polarities)}")
        if kind in ("RY", "SPREP") and controls:
            raise MoveError(f"{kind} gate takes no controls")
        want = 1 if kind == "RY" else 0
        if len(params) != want:
            raise MoveError(f"{kind} gate takes {want} params, got {len(params)}")
        return tuple.__new__(cls, (kind, targets, controls, polarities, params))

    def support(self) -> frozenset[int]:
        return frozenset(self.targets) | frozenset(self.controls)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "targets": list(self.targets),
            "controls": list(self.controls),
            "polarities": list(self.polarities),
            "params": [float(format(p, ".15g")) for p in self.params],
        }


@dataclass(frozen=True)
class GateCircuit:
    """Layered gates plus interleaved free relabelings.

    layers hold gates with pairwise disjoint supports; depth is the
    layer count. permutation_layers hold (after_layer, pairs) entries
    in acting order, so after_layer never decreases: the relabeling
    runs once that many gate layers have been applied. allocated slots
    must enter in |0>, released slots leave in |0>.
    """

    qubits: tuple[int, ...]
    layers: tuple[tuple[Gate, ...], ...] = ()
    permutation_layers: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] = ()
    allocated: tuple[int, ...] = ()
    released: tuple[int, ...] = ()
    lattice_version: int = 0

    def depth(self) -> int:
        return len(self.layers)

    def gate_count(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def steps(self) -> Iterator[tuple[dict[int, int] | None, tuple[Gate, ...] | None]]:
        """The circuit in acting order: (sigma, None) per relabeling,
        (None, layer) per gate layer."""
        perms = self.permutation_layers
        cursor = 0
        for i in range(len(self.layers) + 1):
            while cursor < len(perms) and perms[cursor][0] == i:
                yield dict(perms[cursor][1]), None
                cursor += 1
            if i < len(self.layers):
                yield None, self.layers[i]

    def check(self) -> None:
        known = set(self.qubits)
        # a layer object that recurs, as compile_schedule's repeated
        # groups do, is checked once
        checked: set[int] = set()
        for layer in self.layers:
            if id(layer) in checked:
                continue
            checked.add(id(layer))
            seen: set[int] = set()
            for gate in layer:
                sup = gate.targets + gate.controls
                if not known.issuperset(sup):
                    raise MoveError("gate touches a qubit outside the circuit")
                if not seen.isdisjoint(sup):
                    raise MoveError("layer has overlapping gate supports")
                seen.update(sup)
        afters = [after for after, _ in self.permutation_layers]
        if afters != sorted(afters):
            raise MoveError("permutation layers are out of order")
        # a recurring slot-pair tuple, as compile_schedule's are, too
        checked_pairs: set[int] = set()
        for after, pairs in self.permutation_layers:
            if not 0 <= after <= len(self.layers):
                raise MoveError("permutation layer placed outside the circuit")
            if id(pairs) in checked_pairs:
                continue
            checked_pairs.add(id(pairs))
            src = [s for s, _ in pairs]
            dst = [d for _, d in pairs]
            if len(set(src)) != len(src) or set(src) != set(dst):
                raise MoveError("permutation is not a bijection")
            if not set(src) <= known:
                raise MoveError("permutation touches a qubit outside the circuit")

    def to_jsonable(self) -> dict:
        return {
            "version": self.lattice_version,
            "qubits": list(self.qubits),
            "allocated": list(self.allocated),
            "released": list(self.released),
            "layers": [[g.to_jsonable() for g in layer] for layer in self.layers],
            "permutations": [
                {"after_layer": after, "sigma": [[s, d] for s, d in pairs]}
                for after, pairs in self.permutation_layers
            ],
        }


def ry_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def sprep_matrix() -> np.ndarray:
    """Unitary completion of the vacuum-loop column (1/D, phi/D)."""
    return ry_matrix(SPREP_ANGLE)


# -- F-move lowering ----------------------------------------------------------


def _fold_controls(legs: Sequence[int], pattern: Sequence[int]) -> dict[int, int] | None:
    """Collapse per-leg wants into per-slot polarities.

    legs lists the qubit slot per quad side, -1 for a pinned leg, which
    reads 0. Returns slot -> polarity, or None when the pattern can never
    fire (a pinned leg wanted at 1, or one slot wanted at both
    polarities, which happens when quad sides repeat an edge).
    """
    out: dict[int, int] = {}
    for slot, want in zip(legs, pattern):
        if slot < 0:
            if want == 1:
                return None
            continue
        if slot in out and out[slot] != want:
            return None
        out[slot] = want
    return out


def _controlled_x(target: int, ctrl: dict[int, int]) -> Gate:
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


@functools.cache
def _fmove_template(shape: tuple[int, ...]) -> tuple[Gate, ...]:
    """The gates of one flip, one per layer, on target -1, for legs that
    hold the rank of their slot among the flip's distinct leg slots, or
    -1 when pinned.

    The shape fixes the pinned legs, the repeated slots and the rank
    order that _controlled_x sorts controls by, so mapping ranks back to
    slots in increasing order gives the gates of every flip of that
    shape.
    """
    gates: list[Gate] = []
    sandwich = _fold_controls(shape, (1, 1, 1, 1))
    if sandwich is not None:
        gates.append(Gate("RY", (-1,), params=(THETA,)))
        gates.append(_controlled_x(-1, sandwich))
        gates.append(Gate("RY", (-1,), params=(-THETA,)))
    for pattern in FLIP_PATTERNS:
        ctrl = _fold_controls(shape, pattern)
        if ctrl is not None:
            gates.append(_controlled_x(-1, ctrl))
    return tuple(gates)


def _fmove_layers(target: int, legs: Sequence[int]) -> list[list[Gate]]:
    """One flip's gate layers: its shape's template, ranks mapped to slots.

    The template's gates were checked when it was built. A stamped gate
    keeps their kind, polarities and params and maps distinct ranks to
    distinct slots, so it is built unchecked (Gate._make); only its
    target, which the template leaves open, is checked, once per flip.
    """
    slots = sorted({s for s in legs if s >= 0})
    rank = {s: i for i, s in enumerate(slots)}
    if target in rank:
        raise MoveError(f"flipped slot {target} is also one of its legs")
    targets = (target,)
    return [
        [Gate._make((g.kind, targets, tuple([slots[c] for c in g.controls]), g.polarities, g.params))]
        for g in _fmove_template(tuple([rank.get(s, -1) for s in legs]))
    ]


def _one_move(lat: SurfaceLattice, rec: MoveRecord, data: FusionData | None) -> GateCircuit:
    return compile_schedule(lat, MoveSchedule((MoveGroup(LOCAL, ((rec,),)),)), data)


def compile_fmove(
    lat: SurfaceLattice, edge_id: int, data: FusionData | None = None
) -> GateCircuit:
    """Gate circuit applying one edge flip to the full qubit register."""
    return _one_move(lat, pachner_22(lat, edge_id)[1], data)


# -- triangle subdivision lowering --------------------------------------------


def _pachner13_layers(legs: Sequence[int], fresh: Sequence[int]) -> list[list[Gate]]:
    """Gate layers of one subdivision of the triangle with legs (a, b, c).

    The closed form of the move factors as a vacuum-loop preparation on
    the first fresh slot d, a flip of the second fresh slot e across the
    bubble (legs b, b, d, d), and a flip of the third fresh slot f that
    carries the copied label b across the quad (legs a, c, d, e). The
    CX makes that copy; it is dropped when b is pinned, since the fresh
    slot already starts at 0.
    """
    qa, qb, qc = legs
    qd, qe, qf = fresh
    first: list[Gate] = [Gate("SPREP", (qd,))]
    if qb >= 0:
        first.append(Gate("CX", (qf,), controls=(qb,), polarities=(1,)))
    layers = [first]
    layers += _fmove_layers(qe, (qb, qb, qd, qd))
    layers += _fmove_layers(qf, (qa, qc, qd, qe))
    return layers


def _inverted_layers(layers: Sequence[Sequence[Gate]]) -> list[list[Gate]]:
    """The layers in reverse order, each gate inverted."""
    return [[_invert_gate(g) for g in layer] for layer in reversed(layers)]


def _invert_gate(gate: Gate) -> Gate:
    if gate.kind == "RY":
        return gate._replace(params=tuple(-p for p in gate.params))
    if gate.kind == "SPREP":
        return Gate("RY", gate.targets, params=(-SPREP_ANGLE,))
    # X, CX, MCX are involutions
    return gate


def compile_pachner13(
    lat: SurfaceLattice, triangle_id: int, data: FusionData | None = None
) -> GateCircuit:
    """Gate circuit of one triangle subdivision, three fresh slots in |0>."""
    return _one_move(lat, pachner_13(lat, triangle_id)[1], data)


# -- schedule lowering ---------------------------------------------------------

# qubit slots a record holds, per move kind (see MoveRecord)
_RECORD_SLOTS = {F_MOVE: 5, PACHNER_13: 3, PACHNER_31: 3}


def _record_layers(
    rec: MoveRecord,
) -> tuple[list[list[Gate]], tuple[int, ...], tuple[int, ...]]:
    """Gate layers plus (allocated, released) slots for one move, read
    from the slots its record holds."""
    want = _RECORD_SLOTS[rec.kind]  # MoveGroup admits no other kind in a LOCAL group
    if len(rec.qubits) != want:
        raise MoveError(f"{rec.kind} record carries {len(rec.qubits)} qubit slots, need {want}")
    if rec.kind == F_MOVE:
        return _fmove_layers(rec.qubits[0], rec.qubits[1:]), (), ()
    if rec.kind == PACHNER_13:
        return _pachner13_layers(rec.qubits, rec.new_slots), tuple(rec.new_slots), ()
    # exact inverse of the subdivision that would recreate the vertex
    fwd = _pachner13_layers(rec.qubits, rec.released_slots)
    return _inverted_layers(fwd), (), tuple(rec.released_slots)


@_gc_paused
def compile_schedule(
    lat: SurfaceLattice,
    schedule: MoveSchedule,
    data: FusionData | None = None,
) -> GateCircuit:
    """Lower a move schedule to one circuit over the union register.

    LOCAL groups become gate layers: moves that share a schedule layer
    have their gate layers zipped position by position, which keeps
    supports disjoint because the moves' slot supports already are.
    PERMUTATION groups become free relabelings pinned between layers.
    A LOCAL group object that recurs, as the shears of a braid do, is
    lowered once per call when it allocates and releases no slot, and
    its recurrences share the same layer objects; every recurrence of a
    PERMUTATION group object shares one slot-pair tuple.
    Each move is lowered from the qubit slots its record holds; lat
    gives only the starting register and the version. The gate angles
    are the Fibonacci ones (SPREP's is the quantum dimension's), so any
    other F-symbols or quantum dimensions raise MoveError.
    """
    fib = fibonacci_data()
    if data is not None and not (np.array_equal(data.fsym, fib.fsym) and np.array_equal(data.qdim, fib.qdim)):
        raise MoveError("gate compilation covers only the Fibonacci F-symbols and quantum dimensions")
    layers: list[tuple[Gate, ...]] = []
    perms: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    allocated: list[int] = []
    released: list[int] = []
    qubits = set(lat.qubit_slots())
    # gate layers of each LOCAL group object already lowered, kept only
    # for groups that allocate and release nothing, so that the slot
    # checks still run on every occurrence of the others
    lowered: dict[int, list[tuple[Gate, ...]]] = {}
    # slot pairs of each PERMUTATION group object already lowered
    relabelings: dict[int, tuple[tuple[int, int], ...]] = {}

    for group in schedule.groups:
        if group.kind == LOCAL:
            if id(group) in lowered:
                layers.extend(lowered[id(group)])
                continue
            first = len(layers)
            slots_moved = len(allocated) + len(released)
            for move_layer in group.layers:
                gadgets = []
                for rec in move_layer:
                    glayers, alloc, rel = _record_layers(rec)
                    for slot in alloc:
                        if slot in qubits or slot in allocated:
                            raise MoveError("slot allocated twice in one circuit")
                    gadgets.append(glayers)
                    allocated.extend(alloc)
                    released.extend(rel)
                    qubits.update(alloc)
                width = max((len(g) for g in gadgets), default=0)
                for i in range(width):
                    merged: list[Gate] = []
                    for g in gadgets:
                        if i < len(g):
                            merged.extend(g[i])
                    if merged:
                        layers.append(tuple(merged))
            if len(allocated) + len(released) == slots_moved:
                lowered[id(group)] = layers[first:]
        else:
            pairs = relabelings.get(id(group))
            if pairs is None:
                (rec,) = group.records()
                pairs = relabelings[id(group)] = tuple(sorted((rec.sigma or {}).items()))
            perms.append((len(layers), pairs))

    circ = GateCircuit(
        qubits=tuple(sorted(qubits)),
        layers=tuple(layers),
        permutation_layers=tuple(perms),
        allocated=tuple(allocated),
        released=tuple(released),
        lattice_version=lat.version,
    )
    circ.check()
    return circ


def inverse_circuit(circuit: GateCircuit) -> GateCircuit:
    """Reverse the circuit; relabelings invert, alloc and release swap."""
    n_layers = len(circuit.layers)
    layers = tuple(map(tuple, _inverted_layers(circuit.layers)))
    perms = tuple(
        (n_layers - after, tuple(sorted((d, s) for s, d in pairs)))
        for after, pairs in reversed(circuit.permutation_layers)
    )
    return GateCircuit(
        qubits=circuit.qubits,
        layers=layers,
        permutation_layers=perms,
        allocated=circuit.released,
        released=circuit.allocated,
        lattice_version=circuit.lattice_version,
    )


# -- simulation ----------------------------------------------------------------


def simulate_sparse(
    circuit: GateCircuit, configs: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the circuit to a sparse state over its full register.

    Bit i of a config is the label of circuit.qubits[i] (slot order,
    ascending), as in the state kernels' configs, so registers of up to
    CONFIG_BITS slots fit. Gates act one at a time in layer order: an
    RY or SPREP splits each config c into c and c ^ flag, an X, CX or
    MCX flips the target bit of the configs whose controls match, and a
    relabeling moves every bit in one pass. Amplitudes below the state
    tolerance are dropped whenever configs merge. Allocated slots must
    be supplied in |0>; the caller checks released slots.

    Returns the sorted configs and their amplitudes. Raises MoveError on
    a register wider than CONFIG_BITS, on configs and amps that are not
    parallel 1-d arrays, and on a config that sets a bit at or above the
    register.
    """
    n = len(circuit.qubits)
    if n > CONFIG_BITS:
        raise MoveError(f"{n} qubit slots exceed the {CONFIG_BITS}-bit config width")
    configs, amps = np.asarray(configs), np.asarray(amps)
    if configs.ndim != 1 or amps.shape != configs.shape:
        raise MoveError(
            f"configs and amps must be parallel 1-d arrays, got shapes {configs.shape} and {amps.shape}"
        )
    configs = configs.astype(U64)
    if n < CONFIG_BITS and np.any(configs >> U64(n)):
        raise MoveError(f"config sets a bit at or above the circuit's {n} qubit slots")
    circuit.check()
    pos = {q: i for i, q in enumerate(circuit.qubits)}
    # flips and relabelings permute the configs; only a rotation merges
    # them, so it alone sorts them (_coalesce), and so does the return
    c, a = _coalesce(configs, amps.astype(np.complex128), _TOL)
    for sigma, layer in circuit.steps():
        if sigma is not None:
            c = _move_bits(c, ((p, pos[sigma.get(q, q)]) for q, p in pos.items()))
            continue
        for gate in layer:
            flag = U64(1) << U64(pos[gate.targets[0]])
            if gate.kind in ("RY", "SPREP"):
                mat = ry_matrix(gate.params[0]) if gate.kind == "RY" else sprep_matrix()
                bit = ((c & flag) != 0).astype(np.intp)
                c, a = _coalesce(
                    np.concatenate([c, c ^ flag]),
                    np.concatenate([a * mat[bit, bit], a * mat[1 - bit, bit]]),
                    _TOL,
                )
            else:
                want = sum(pol << k for k, pol in enumerate(gate.polarities))
                fire = _key(c, [pos[q] for q in gate.controls]) == want
                c = np.where(fire, c ^ flag, c)
    return _coalesce(c, a, _TOL)


def simulate_circuit(circuit: GateCircuit, psi: np.ndarray) -> np.ndarray:
    """Dense application over the circuit's full register, through
    simulate_sparse on psi's nonzero entries.

    psi indexes basis states by bits at the qubit's rank in
    circuit.qubits (slot order, ascending), matching the convention of
    simulate_sparse and of the state kernels' configuration integers.
    Allocated slots must be supplied in |0>; the caller checks released
    slots.
    """
    n = len(circuit.qubits)
    if n > MAX_DENSE_QUBITS:
        raise MoveError(f"dense simulation capped at {MAX_DENSE_QUBITS} qubits, got {n}")
    if psi.shape != (1 << n,):
        raise MoveError(f"state must have length {1 << n}")
    idx = np.flatnonzero(psi)
    configs, amps = simulate_sparse(circuit, idx, psi[idx])
    out = np.zeros(1 << n, dtype=np.complex128)
    out[configs.astype(np.intp)] = amps
    return out


# -- persistence ---------------------------------------------------------------


def circuit_to_jsonable(circuit: GateCircuit) -> dict:
    return circuit.to_jsonable()


class _Reader:
    """Gate dicts to Gates, for circuit_from_jsonable and as the import
    decoder's object_hook.

    Each distinct gate is built and validated once; equal gates, equal
    layers and equal slot-pair lists come out as one shared object, so
    recurring layers are checked once, as compile_schedule's are. Params
    are keyed by their text, so -0.0 and 0.0 stay apart and a circuit
    re-exports byte for byte.
    """

    def __init__(self):
        self.gates: dict[tuple, Gate] = {}
        self.layers: dict[tuple[int, ...], tuple[Gate, ...]] = {}
        self.pairs: dict[tuple, tuple[tuple[int, int], ...]] = {}

    def gate(self, g: dict) -> Gate:
        if not isinstance(g, dict):
            raise MoveError(f"a gate must be an object, got {type(g).__name__}")
        params = g.get("params", ())
        fields = (
            g.get("kind"),
            tuple(g.get("targets", ())),
            tuple(g.get("controls", ())),
            tuple(g.get("polarities", ())),
        )
        key = (*fields, repr(params))
        gate = self.gates.get(key)
        if gate is None:
            gate = self.gates[key] = Gate(*fields, tuple(float(p) for p in params))
        return gate

    def hook(self, obj: dict):
        return self.gate(obj) if "kind" in obj else obj

    def circuit(self, doc: dict) -> GateCircuit:
        layers = []
        for layer in doc["layers"]:
            gates = tuple(g if type(g) is Gate else self.gate(g) for g in layer)
            # gates are interned, so equal layers hold the same objects
            layers.append(self.layers.setdefault(tuple(map(id, gates)), gates))
        perms = []
        for p in doc.get("permutations", ()):
            sigma = tuple(map(tuple, p["sigma"]))
            pairs = self.pairs.get(sigma)
            if pairs is None:
                _integers((x for pair in sigma for x in pair), "sigma")
                pairs = self.pairs[sigma] = tuple((int(s), int(d)) for s, d in sigma)
            perms.append((_integer(p["after_layer"], "after_layer"), pairs))
        circ = GateCircuit(
            qubits=_integers(doc["qubits"], "qubits"),
            layers=tuple(layers),
            permutation_layers=tuple(perms),
            allocated=_integers(doc.get("allocated", ()), "allocated"),
            released=_integers(doc.get("released", ()), "released"),
            lattice_version=_integer(doc.get("version", 0), "version"),
        )
        circ.check()
        return circ


def _integer(value, field: str) -> int:
    if not isinstance(value, numbers.Integral):
        raise MoveError(f"circuit {field} must be an integer, got {value!r}")
    return int(value)


def _integers(values, field: str) -> tuple:
    out = tuple(values)
    if not all(isinstance(v, numbers.Integral) for v in out):
        raise MoveError(f"circuit {field} must hold integers only")
    return out


def circuit_from_jsonable(doc: dict) -> GateCircuit:
    """The circuit of a document like circuit_to_jsonable's; a malformed
    document raises MoveError."""
    with _refusing_malformed("circuit JSON"):
        return _Reader().circuit(doc)


def _indented(value, depth: int) -> str:
    """json.dumps(value, indent=2, sort_keys=True) as it reads nested
    depth levels deep."""
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * depth)


def _json_list(items: Iterable[str], depth: int) -> Iterator[str]:
    """A list of rendered items at depth, as indent=2 writes it."""
    pad = "\n" + "  " * (depth + 1)
    sep = "[" + pad
    for item in items:
        yield sep
        yield item
        sep = "," + pad
    yield "[]" if sep[0] == "[" else "\n" + "  " * depth + "]"


def _json_object(fields: dict[str, Iterable[str]], depth: int) -> Iterator[str]:
    """A non-empty object of rendered values at depth, keys sorted, as
    indent=2 writes it."""
    pad = "\n" + "  " * (depth + 1)
    sep = "{" + pad
    for key in sorted(fields):
        yield f"{sep}{json.dumps(key)}: "
        yield from fields[key]
        sep = "," + pad
    yield "\n" + "  " * depth + "}"


@_gc_paused
def _json_chunks(circuit: GateCircuit) -> list[str]:
    """The text of json.dumps(circuit_to_jsonable(circuit), indent=2,
    sort_keys=True), in chunks.

    Each distinct layer object and slot-pair tuple is rendered once, by
    json.dumps and re-indented to its depth; a recurrence reuses its
    text, so the cost follows the circuit's distinct content.
    """
    layer_text: dict[int, str] = {}
    sigma_text: dict[int, str] = {}

    def layer(gates: tuple[Gate, ...]) -> str:
        text = layer_text.get(id(gates))
        if text is None:
            text = layer_text[id(gates)] = _indented([g.to_jsonable() for g in gates], 2)
        return text

    def relabeling(after: int, pairs: tuple[tuple[int, int], ...]) -> str:
        text = sigma_text.get(id(pairs))
        if text is None:
            text = sigma_text[id(pairs)] = _indented([[s, d] for s, d in pairs], 3)
        return "".join(_json_object({"after_layer": [_indented(after, 3)], "sigma": [text]}, 2))

    fields = {
        "version": [_indented(circuit.lattice_version, 1)],
        "qubits": [_indented(list(circuit.qubits), 1)],
        "allocated": [_indented(list(circuit.allocated), 1)],
        "released": [_indented(list(circuit.released), 1)],
        "layers": _json_list(map(layer, circuit.layers), 1),
        "permutations": _json_list((relabeling(a, p) for a, p in circuit.permutation_layers), 1),
    }
    return list(_json_object(fields, 0))


@_gc_paused
def export_circuit(circuit: GateCircuit, destination) -> str:
    """Write the circuit as JSON; returns the rendered text.

    destination may be a path or a writable text stream. Output is
    deterministic: sorted keys, two-space indent, numbers at 15
    significant digits (compile-time constants are pre-rounded so this
    is lossless for shipped circuits). The text is that of
    json.dumps(circuit_to_jsonable(circuit), indent=2, sort_keys=True),
    but each distinct layer object and slot-pair tuple is rendered once,
    so rendering costs scale with the circuit's distinct layers rather
    than with its gate count. The cyclic garbage collector is paused
    while it runs (gadgets._gc_paused).
    """
    chunks = _json_chunks(circuit)
    text = "".join(chunks)
    if hasattr(destination, "write"):
        destination.write(text)
        return text
    try:
        with open(destination, "w", encoding="utf-8") as fh:
            # chunk by chunk, so the file's encoder holds no copy of the whole text
            fh.writelines(chunks)
    except OSError as exc:
        raise MoveError(f"cannot write circuit to {destination}: {exc}") from exc
    return text


@_gc_paused
def import_circuit(source) -> GateCircuit:
    """Read a circuit written by export_circuit; path or readable stream.

    Gate dicts become Gates while the JSON decodes. Each distinct gate
    is built and validated once (malformed gates raise MoveError), and
    equal gates, layers and slot-pair lists are one shared object in the
    result, so building Gates and checking layers cost scale with the
    circuit's distinct layers; the JSON parse itself still reads every
    occurrence. Text that is not a circuit document raises MoveError. The
    cyclic garbage collector is paused while it runs.
    """
    reader = _Reader()
    with _refusing_malformed("circuit JSON"):
        if hasattr(source, "read"):
            return reader.circuit(json.loads(source.read(), object_hook=reader.hook))
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh, object_hook=reader.hook)
        except OSError as exc:
            raise MoveError(f"cannot read circuit from {source}: {exc}") from exc
        return reader.circuit(doc)
