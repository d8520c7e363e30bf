"""Gate-level compilation of moves and schedules, with a dense simulator.

The semantic simulator applies moves as sparse linear maps; this module
lowers the same moves to explicit gates so the two implementations can
cross-check each other, and so depth can be counted at gate granularity.

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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .fusion import PHI, FusionData, fibonacci_data
from .lattice import (
    F_MOVE,
    PACHNER_13,
    PACHNER_31,
    PERMUTATION,
    MoveError,
    MoveRecord,
    SurfaceLattice,
    pachner_13,
    pachner_22,
)
from .gadgets import LOCAL, MoveGroup, MoveSchedule

# angles are rounded to 15 significant digits once, here, so that the
# JSON export (which prints 15 significant digits) round-trips circuits
# without any loss
THETA = float(format(math.atan(PHI ** -0.5), ".15g"))
SPREP_ANGLE = float(format(2.0 * math.atan(PHI), ".15g"))

# leg patterns (in quad side order) whose flip relabels the edge
FLIP_PATTERNS = ((0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0))

GATE_KINDS = ("RY", "X", "CX", "MCX", "SWAP", "SPREP")

MAX_DENSE_QUBITS = 22

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
    "simulate_circuit",
    "export_circuit",
    "import_circuit",
    "circuit_to_jsonable",
    "circuit_from_jsonable",
]


@dataclass(frozen=True)
class Gate:
    """One gate: targets act, controls gate with explicit polarity."""

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    polarities: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise MoveError(f"unknown gate kind {self.kind!r}")
        if len(self.controls) != len(self.polarities):
            raise MoveError("each control needs exactly one polarity")

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
    layer count. permutation_layers hold (after_layer, pairs) entries:
    the relabeling runs once that many gate layers have been applied.
    allocated slots must enter in |0>, released slots leave in |0>.
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

    def check(self) -> None:
        known = set(self.qubits)
        for layer in self.layers:
            seen: set[int] = set()
            for gate in layer:
                sup = gate.support()
                if not sup <= known:
                    raise MoveError("gate touches a qubit outside the circuit")
                if seen & sup:
                    raise MoveError("layer has overlapping gate supports")
                seen |= sup
        for after, pairs in self.permutation_layers:
            if not 0 <= after <= len(self.layers):
                raise MoveError("permutation layer placed outside the circuit")
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


def _fmove_layers(target: int, legs: Sequence[int]) -> list[list[Gate]]:
    layers: list[list[Gate]] = []
    sandwich = _fold_controls(legs, (1, 1, 1, 1))
    if sandwich is not None:
        layers.append([Gate("RY", (target,), params=(THETA,))])
        layers.append([_controlled_x(target, sandwich)])
        layers.append([Gate("RY", (target,), params=(-THETA,))])
    for pattern in FLIP_PATTERNS:
        ctrl = _fold_controls(legs, pattern)
        if ctrl is not None:
            layers.append([_controlled_x(target, ctrl)])
    return layers


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


def _inverted_layers(layers: list[list[Gate]]) -> list[list[Gate]]:
    out = []
    for layer in reversed(layers):
        out.append([_invert_gate(g) for g in layer])
    return out


def _invert_gate(gate: Gate) -> Gate:
    if gate.kind == "RY":
        return replace(gate, params=tuple(-p for p in gate.params))
    if gate.kind == "SPREP":
        return Gate("RY", gate.targets, params=(-SPREP_ANGLE,))
    # X, CX, MCX, SWAP are involutions
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
    want = _RECORD_SLOTS.get(rec.kind)
    if want is None:
        raise MoveError(f"cannot compile move kind {rec.kind!r}")
    if len(rec.qubits) != want:
        raise MoveError(f"{rec.kind} record carries {len(rec.qubits)} qubit slots, need {want}")
    if rec.kind == F_MOVE:
        return _fmove_layers(rec.qubits[0], rec.qubits[1:]), (), ()
    if rec.kind == PACHNER_13:
        return _pachner13_layers(rec.qubits, rec.new_slots), tuple(rec.new_slots), ()
    # exact inverse of the subdivision that would recreate the vertex
    fwd = _pachner13_layers(rec.qubits, rec.released_slots)
    return _inverted_layers(fwd), (), tuple(rec.released_slots)


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
    Each move is lowered from the qubit slots its record holds; lat
    gives only the starting register and the version. The gate angles
    are the Fibonacci ones, so any other category raises MoveError.
    """
    if data is not None and not np.array_equal(data.fsym, fibonacci_data().fsym):
        raise MoveError("gate compilation covers only the Fibonacci F-symbols")
    layers: list[list[Gate]] = []
    perms: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    allocated: list[int] = []
    released: list[int] = []
    qubits = set(lat.qubit_slots())

    for group in schedule.groups:
        if group.kind == LOCAL:
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
                        layers.append(merged)
        elif group.kind == PERMUTATION:
            recs = tuple(group.records())
            if len(recs) != 1:
                raise MoveError("permutation group must hold exactly one record")
            sigma = dict(recs[0].sigma or {})
            perms.append((len(layers), tuple(sorted(sigma.items()))))
        else:
            raise MoveError(f"unknown group kind {group.kind!r}")

    circ = GateCircuit(
        qubits=tuple(sorted(qubits)),
        layers=tuple(tuple(layer) for layer in layers),
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
    layers = tuple(
        tuple(_invert_gate(g) for g in layer) for layer in reversed(circuit.layers)
    )
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


# -- dense simulation ----------------------------------------------------------


def _apply_single(psi: np.ndarray, pos: int, mat: np.ndarray) -> np.ndarray:
    idx = np.arange(psi.size)
    low = idx[(idx >> pos) & 1 == 0]
    high = low | (1 << pos)
    out = psi.copy()
    out[low] = mat[0, 0] * psi[low] + mat[0, 1] * psi[high]
    out[high] = mat[1, 0] * psi[low] + mat[1, 1] * psi[high]
    return out


def _apply_gate(psi: np.ndarray, posmap: dict[int, int], gate: Gate) -> np.ndarray:
    if gate.kind == "RY":
        return _apply_single(psi, posmap[gate.targets[0]], ry_matrix(gate.params[0]))
    if gate.kind == "SPREP":
        return _apply_single(psi, posmap[gate.targets[0]], sprep_matrix())
    if gate.kind in ("X", "CX", "MCX"):
        idx = np.arange(psi.size)
        mask = np.ones(psi.size, dtype=bool)
        for q, pol in zip(gate.controls, gate.polarities):
            mask &= ((idx >> posmap[q]) & 1) == pol
        flipped = idx ^ (1 << posmap[gate.targets[0]])
        out = psi.copy()
        out[mask] = psi[flipped[mask]]
        return out
    if gate.kind == "SWAP":
        u, v = (posmap[t] for t in gate.targets)
        idx = np.arange(psi.size)
        bu = (idx >> u) & 1
        bv = (idx >> v) & 1
        swapped = idx ^ ((bu ^ bv) << u) ^ ((bu ^ bv) << v)
        return psi[swapped]
    raise MoveError(f"unknown gate kind {gate.kind!r}")


def _apply_relabel(
    psi: np.ndarray, posmap: dict[int, int], pairs: Iterable[tuple[int, int]]
) -> np.ndarray:
    idx = np.arange(psi.size)
    moved = dict(pairs)
    new_idx = np.zeros_like(idx)
    for slot, p_src in posmap.items():
        p_dst = posmap[moved.get(slot, slot)]
        new_idx |= ((idx >> p_src) & 1) << p_dst
    out = np.empty_like(psi)
    out[new_idx] = psi
    return out


def simulate_circuit(circuit: GateCircuit, psi: np.ndarray) -> np.ndarray:
    """Dense application over the circuit's full register.

    psi indexes basis states by bits at the qubit's rank in
    circuit.qubits (slot order, ascending), matching the convention the
    sparse simulator uses for its configuration integers. Allocated
    slots must be supplied in |0>; the caller checks released slots.
    """
    n = len(circuit.qubits)
    if n > MAX_DENSE_QUBITS:
        raise MoveError(f"dense simulation capped at {MAX_DENSE_QUBITS} qubits, got {n}")
    if psi.shape != (1 << n,):
        raise MoveError(f"state must have length {1 << n}")
    circuit.check()
    posmap = {q: i for i, q in enumerate(circuit.qubits)}
    out = np.asarray(psi, dtype=np.complex128).copy()
    perms = list(circuit.permutation_layers)
    cursor = 0
    for i in range(len(circuit.layers) + 1):
        while cursor < len(perms) and perms[cursor][0] == i:
            out = _apply_relabel(out, posmap, perms[cursor][1])
            cursor += 1
        if i < len(circuit.layers):
            for gate in circuit.layers[i]:
                out = _apply_gate(out, posmap, gate)
    return out


# -- persistence ---------------------------------------------------------------


def circuit_to_jsonable(circuit: GateCircuit) -> dict:
    return circuit.to_jsonable()


def circuit_from_jsonable(doc: dict) -> GateCircuit:
    layers = tuple(
        tuple(
            Gate(
                kind=g["kind"],
                targets=tuple(g["targets"]),
                controls=tuple(g.get("controls", ())),
                polarities=tuple(g.get("polarities", ())),
                params=tuple(float(p) for p in g.get("params", ())),
            )
            for g in layer
        )
        for layer in doc["layers"]
    )
    perms = tuple(
        (int(p["after_layer"]), tuple((int(s), int(d)) for s, d in p["sigma"]))
        for p in doc.get("permutations", ())
    )
    circ = GateCircuit(
        qubits=tuple(doc["qubits"]),
        layers=layers,
        permutation_layers=perms,
        allocated=tuple(doc.get("allocated", ())),
        released=tuple(doc.get("released", ())),
        lattice_version=int(doc.get("version", 0)),
    )
    circ.check()
    return circ


def export_circuit(circuit: GateCircuit, destination) -> str:
    """Write the circuit as JSON; returns the rendered text.

    destination may be a path or a writable text stream. Output is
    deterministic: sorted keys, two-space indent, numbers at 15
    significant digits (compile-time constants are pre-rounded so this
    is lossless for shipped circuits).
    """
    text = json.dumps(circuit_to_jsonable(circuit), indent=2, sort_keys=True)
    if hasattr(destination, "write"):
        destination.write(text)
        return text
    try:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise MoveError(f"cannot write circuit to {destination}: {exc}") from exc
    return text


def import_circuit(source) -> GateCircuit:
    """Read a circuit written by export_circuit; path or readable stream."""
    if hasattr(source, "read"):
        return circuit_from_jsonable(json.loads(source.read()))
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return circuit_from_jsonable(json.load(fh))
    except OSError as exc:
        raise MoveError(f"cannot read circuit from {source}: {exc}") from exc
