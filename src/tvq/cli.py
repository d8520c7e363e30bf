"""Batch front end: verification suites, protocol runs, report emission.

Every run is determined by its configuration (command, parameters,
tolerances, seed); the emitted JSON/CSV is byte-identical across
repeated runs with the same configuration. Logging goes to stderr and
is controlled by the TVQ_LOG environment variable, so it never
perturbs the machine-readable stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .circuits import _json_chunks, compile_schedule
from .errors import _braid_setup, report_to_csv, report_to_json, stretch_report
from .coherence import pentagon_residual
from .fusion import PHI, f_unitarity_residual, fibonacci_data
from .gadgets import baseline_schedule, braid_schedule, run_schedule
from .lattice import (
    MoveError,
    build_honeycomb_torus,
    build_planar_patch,
    build_tetra_sphere,
    build_theta_sphere,
    lattice_from_json,
    lattice_to_json,
    pachner_13,
    pachner_22,
    polar_vertex_id,
)
from .statevec import (
    apply_bp,
    apply_fmove,
    apply_pachner13,
    apply_pachner31,
    apply_qv,
    code_space_dim,
    diff_norm,
    inner,
    make_state,
    random_valid_state,
)

log = logging.getLogger("tvq")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; embedded in every report."""

    command: str
    params: dict = field(default_factory=dict)
    tol: float | None = None
    seed: int = 0
    out: str | None = None
    fmt: str = "json"

    def to_jsonable(self) -> dict:
        doc = asdict(self)
        doc["params"] = {k: doc["params"][k] for k in sorted(doc["params"])}
        return doc


def _write_out(path: str, *chunks: str) -> None:
    """Write one output artifact, given as text chunks; a failed write
    is a MoveError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise MoveError(f"cannot write {path}: {exc}") from exc


def _check(name: str, residual: float, tol: float) -> dict:
    return {
        "name": name,
        "residual": residual,
        "tol": tol,
        "passed": bool(residual <= tol),
    }


# ---- verify suites -------------------------------------------------------------


def _fusion_checks(tol: float, seed: int) -> list[dict]:
    data = fibonacci_data()
    golden = np.array([[1 / PHI, PHI ** -0.5], [PHI ** -0.5, -1 / PHI]])
    res_block = float(np.max(np.abs(data.fsym[1, 1, 1, 1] - golden)))
    return [
        _check("fusion.f_block_entries", res_block, tol),
        _check("fusion.f_orthogonality", f_unitarity_residual(data), tol),
        _check("fusion.pentagon_coherence", pentagon_residual(data), tol),
    ]


def _projector_checks(tol: float, seed: int) -> list[dict]:
    data = fibonacci_data()
    lat = build_honeycomb_torus(2, 2)
    rng = np.random.default_rng(seed)
    states = [random_valid_state(lat, rng, data=data) for _ in range(5)]
    plaqs = sorted(lat.plaquette_vertices())
    tris = sorted(lat.triangles)

    res_bp = 0.0
    res_qv = 0.0
    res_comm = 0.0
    for st in states:
        for p in plaqs:
            once = apply_bp(st, lat, p, data)
            res_bp = max(res_bp, diff_norm(lat, apply_bp(once, lat, p, data), once))
        for t in tris[:4]:
            once = apply_qv(st, lat, t, data)
            res_qv = max(res_qv, diff_norm(lat, apply_qv(once, lat, t, data), once))
        for i, p in enumerate(plaqs):
            for q in plaqs[i + 1 :]:
                pq = apply_bp(apply_bp(st, lat, q, data), lat, p, data)
                qp = apply_bp(apply_bp(st, lat, p, data), lat, q, data)
                res_comm = max(res_comm, diff_norm(lat, pq, qp))
        for p in plaqs[:2]:
            for t in tris[:2]:
                bv = apply_bp(apply_qv(st, lat, t, data), lat, p, data)
                vb = apply_qv(apply_bp(st, lat, p, data), lat, t, data)
                res_comm = max(res_comm, diff_norm(lat, bv, vb))
    return [
        _check("projectors.bp_idempotent", res_bp, tol),
        _check("projectors.qv_idempotent", res_qv, tol),
        _check("projectors.commutators", res_comm, tol),
    ]


def _pachner_checks(tol: float, seed: int) -> list[dict]:
    data = fibonacci_data()
    lat = build_tetra_sphere()
    rng = np.random.default_rng(seed)

    res_flip = 0.0
    for _ in range(5):
        st = random_valid_state(lat, rng, data=data)
        edge = int(rng.integers(len(lat.edges)))
        mid, mid_lat = apply_fmove(st, lat, edge, data)
        back, back_lat = apply_fmove(mid, mid_lat, edge, data)
        back = make_state(lat, back.configs, back.amps)
        res_flip = max(res_flip, diff_norm(lat, back, st))

    res_sub = 0.0
    tri = sorted(lat.triangles)[0]
    for _ in range(5):
        st = random_valid_state(lat, rng, data=data)
        mid, mid_lat = apply_pachner13(st, lat, tri, data)
        _, rec = pachner_13(lat, tri)
        back, back_lat = apply_pachner31(mid, mid_lat, rec.vertex, data)
        back = make_state(lat, back.configs, back.amps)
        res_sub = max(res_sub, diff_norm(lat, back, st))

    dims = {code_space_dim(lat, data)}
    cur = lat
    for _ in range(4):
        edge = sorted(cur.edges)[int(rng.integers(len(cur.edges)))]
        try:
            cur, _ = pachner_22(cur, edge)
        except MoveError:
            continue
        dims.add(code_space_dim(cur, data))
    res_dim = 0.0 if dims == {1} else float(max(dims) - 1)

    return [
        _check("pachner.flip_involution", res_flip, tol),
        _check("pachner.one_three_round_trip", res_sub, tol),
        _check("pachner.dim_invariance_sphere", res_dim, 0.5),
    ]


# suite -> (checks, default tolerance)
_SUITES = {
    "fusion": (_fusion_checks, 1e-12),
    "projectors": (_projector_checks, 1e-10),
    "pachner": (_pachner_checks, 1e-10),
}


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    scope = cfg.params["scope"]
    checks: list[dict] = []
    for name, (suite, default_tol) in _SUITES.items():
        if scope in (name, "all"):
            checks += suite(default_tol if cfg.tol is None else cfg.tol, cfg.seed)
    passed = all(c["passed"] for c in checks)
    report = {"config": cfg.to_jsonable(), "checks": checks, "passed": passed}
    return report, 0 if passed else 1


# ---- lattice commands ----------------------------------------------------------


def _parse_punctures(text: str) -> list[tuple[int, int]]:
    out = []
    if not text:
        return out
    for part in text.split(";"):
        try:
            r, s = part.split(",")
            out.append((int(r), int(s)))
        except ValueError:
            raise MoveError(f"puncture {part!r} is not a ring,sector pair") from None
    return out


def cmd_lattice_build(cfg: RunConfig) -> tuple[dict, int]:
    kind = cfg.params["kind"]
    if kind == "theta":
        lat = build_theta_sphere()
    elif kind == "tetra":
        lat = build_tetra_sphere()
    elif kind == "torus":
        lat = build_honeycomb_torus(cfg.params["lx"], cfg.params["ly"])
    elif kind == "patch":
        lat = build_planar_patch(
            cfg.params["rows"],
            cfg.params["cols"],
            punctures=_parse_punctures(cfg.params.get("punctures", "")),
        )
    else:
        raise MoveError(f"unknown lattice kind {kind!r}")
    text = lattice_to_json(lat)
    if cfg.out:
        _write_out(cfg.out, text)
    report = {
        "config": cfg.to_jsonable(),
        "lattice": {
            "kind": kind,
            "vertices": len(lat.vertices),
            "edges": len(lat.edges),
            "triangles": len(lat.triangles),
            "qubits": len(lat.qubit_slots()),
            "punctures": sorted(lat.punctures),
        },
        "passed": True,
    }
    return report, 0


def cmd_ground_dim(cfg: RunConfig) -> tuple[dict, int]:
    path = cfg.params["lattice_file"]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lat = lattice_from_json(fh.read())
    except OSError as exc:
        raise MoveError(f"cannot read lattice file {path}: {exc}") from exc
    tol = cfg.tol if cfg.tol is not None else 1e-8
    dim = code_space_dim(lat, tol=tol)
    report = {
        "config": cfg.to_jsonable(),
        "dim": dim,
        "qubits": len(lat.qubit_slots()),
        "passed": True,
    }
    return report, 0


# ---- protocol commands ---------------------------------------------------------


def _distance_braid(d: int, data):
    """The distance-d braid's (lattice, cols, schedule, circuit)."""
    if d % 2 or not 4 <= d <= 128:
        raise MoveError(f"distance must be an even integer from 4 to 128, got {d}")
    return _braid_setup(d, data)


def cmd_braid(cfg: RunConfig) -> tuple[dict, int]:
    d = cfg.params["distance"]
    data = fibonacci_data()
    lat, cols, sched, circ = _distance_braid(d, data)
    rep = sched.depth_report()

    # the moving puncture sits at ring 2, sector 0; walk it once around
    anyon = polar_vertex_id(cols, 2, 0)
    path = [polar_vertex_id(cols, 2, -(i + 1) % cols) for i in range(cols)]
    base = baseline_schedule(lat, anyon, path, data=data)
    brep = base.depth_report()
    bcirc = compile_schedule(lat, base, data)

    report = {
        "config": cfg.to_jsonable(),
        "distance": d,
        "braid": {
            "local_depth": rep.local_depth,
            "permutation_range": rep.permutation_range,
            "total_steps": rep.total_steps,
            "moves": sched.move_count(),
            "gate_depth": circ.depth(),
            "gates": circ.gate_count(),
        },
        "baseline": {
            "local_depth": brep.local_depth,
            "permutation_range": brep.permutation_range,
            "total_steps": brep.total_steps,
            "moves": base.move_count(),
            "gate_depth": bcirc.depth(),
            "gates": bcirc.gate_count(),
        },
        "passed": True,
    }

    if cfg.params.get("compare_baseline"):
        if d != 4:
            report["state_check"] = "skipped: state-level run only fits at distance 4"
        else:
            report["state_check"] = _loop_closure_check(cfg.seed, data)
            report["passed"] = report["state_check"]["passed"]
    if cfg.params.get("export_circuit"):
        _write_out(cfg.params["export_circuit"], *_json_chunks(circ))
        report["circuit_file"] = cfg.params["export_circuit"]
    return report, 0 if report["passed"] else 1


def _loop_closure_check(seed: int, data) -> dict:
    """Braid forward, sequential transport backward, compare to start.

    The two protocols realize the same transport, so composing one with
    the other's reverse must return every state; run on the largest
    patch whose valid configurations still enumerate.
    """
    lat = build_planar_patch(4, 4, punctures=[(0, 0), (2, 0)])
    anyon = polar_vertex_id(4, 2, 0)
    rng = np.random.default_rng(seed)
    st = random_valid_state(lat, rng, support=4000, data=data)
    sched = braid_schedule(lat, anyon, 0, steps=4, data=data)
    mid, mid_lat = run_schedule(st, lat, sched, data=data)
    back_path = [polar_vertex_id(4, 2, (i + 1) % 4) for i in range(4)]
    base = baseline_schedule(mid_lat, anyon, back_path, data=data)
    fin, fin_lat = run_schedule(mid, mid_lat, base, data=data)
    fin = make_state(lat, fin.configs, fin.amps)
    fid = abs(inner(st, fin))
    return {"fidelity": fid, "tol": 1e-9, "passed": bool(fid >= 1 - 1e-9)}


def cmd_errors(cfg: RunConfig) -> tuple[dict, int]:
    distances = cfg.params["distances"]
    rep = stretch_report(distances, cfg.params["trials"], cfg.seed)
    csv_text = report_to_csv(rep)
    json_text = report_to_json(rep)
    if cfg.out:
        base, _ = os.path.splitext(cfg.out)
        _write_out(base + ".csv", csv_text)
        _write_out(base + ".json", json_text)
    report = {
        "config": cfg.to_jsonable(),
        "summary": rep["summary"],
        "csv": csv_text,
        "passed": True,
    }
    return report, 0


def cmd_compile(cfg: RunConfig) -> tuple[dict, int]:
    *_, circ = _distance_braid(cfg.params["distance"], fibonacci_data())
    # export_circuit's text, never joined: recurring layers share chunks
    chunks = _json_chunks(circ)
    if cfg.out:
        _write_out(cfg.out, *chunks)
    report = {
        "config": cfg.to_jsonable(),
        "qubits": len(circ.qubits),
        "gate_depth": circ.depth(),
        "gates": circ.gate_count(),
        "permutation_layers": len(circ.permutation_layers),
        "bytes": sum(map(len, chunks)),
        "passed": True,
    }
    return report, 0


# ---- rendering and entry -------------------------------------------------------


def _render_text(report: dict) -> str:
    lines = []
    for key, val in report.items():
        if key == "config":
            continue
        if key == "checks":
            for c in val:
                lines.append(
                    f"{c['name']}: {'PASS' if c['passed'] else 'FAIL'} "
                    f"(residual {c['residual']:.3e}, tol {c['tol']:.1e})"
                )
        elif isinstance(val, dict):
            for k2, v2 in val.items():
                lines.append(f"{key}.{k2}: {v2}")
        elif key == "csv":
            lines.append(val.rstrip("\n"))
        else:
            lines.append(f"{key}: {val}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, cfg: RunConfig) -> None:
    if cfg.fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif cfg.fmt == "csv" and "csv" in report:
        text = report["csv"]
    else:
        text = _render_text(report)
    sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"), default="json")
    common.add_argument("--out", default=None, help="write the primary artifact here")
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--seed", type=int, default=0)

    p = argparse.ArgumentParser(
        prog="tvq",
        description="string-net code protocols: verify, build, braid, analyze",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run invariant suites", parents=[common])
    v.add_argument("scope", choices=(*_SUITES, "all"))

    lat = sub.add_parser("lattice", help="lattice tools")
    lsub = lat.add_subparsers(dest="lattice_command", required=True)
    lb = lsub.add_parser("build", help="build a lattice and write JSON", parents=[common])
    lb.add_argument("kind", choices=("theta", "tetra", "torus", "patch"))
    lb.add_argument("--lx", type=int, default=2)
    lb.add_argument("--ly", type=int, default=2)
    lb.add_argument("--rows", type=int, default=3)
    lb.add_argument("--cols", type=int, default=6)
    lb.add_argument("--punctures", default="", help="semicolon list of ring,sector")

    g = sub.add_parser(
        "ground-dim", help="code-space dimension of a lattice file", parents=[common]
    )
    g.add_argument("lattice_file")

    b = sub.add_parser("braid", help="constant-depth braid reports", parents=[common])
    b.add_argument("--distance", type=int, required=True, help="even, 4 to 128")
    b.add_argument("--compare-baseline", action="store_true")
    b.add_argument("--export-circuit", default=None)

    e = sub.add_parser("errors", help="error-string stretch statistics", parents=[common])
    e.add_argument("--distances", default="4,8", help="comma list")
    e.add_argument("--trials", type=int, default=100)

    c = sub.add_parser("compile", help="compile the braid circuit to JSON", parents=[common])
    c.add_argument("--distance", type=int, required=True, help="even, 4 to 128")
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params: dict = {}
    command = args.command
    if command == "verify":
        params["scope"] = args.scope
    elif command == "lattice":
        command = "lattice-build"
        params["kind"] = args.kind
        params["lx"], params["ly"] = args.lx, args.ly
        params["rows"], params["cols"] = args.rows, args.cols
        params["punctures"] = args.punctures
    elif command == "ground-dim":
        params["lattice_file"] = args.lattice_file
    elif command == "braid":
        params["distance"] = args.distance
        params["compare_baseline"] = bool(args.compare_baseline)
        params["export_circuit"] = args.export_circuit
    elif command == "errors":
        try:
            params["distances"] = [int(x) for x in args.distances.split(",") if x]
        except ValueError:
            raise MoveError(f"--distances must be a comma list of integers, got {args.distances!r}") from None
        params["trials"] = args.trials
    elif command == "compile":
        params["distance"] = args.distance
    return RunConfig(
        command=command,
        params=params,
        tol=args.tol,
        seed=args.seed,
        out=args.out,
        fmt=args.format,
    )


_DISPATCH = {
    "verify": cmd_verify,
    "lattice-build": cmd_lattice_build,
    "ground-dim": cmd_ground_dim,
    "braid": cmd_braid,
    "errors": cmd_errors,
    "compile": cmd_compile,
}


def main(argv=None) -> int:
    level = os.environ.get("TVQ_LOG", "warning").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING), stream=sys.stderr
    )
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        log.info("run config: %s", cfg)
        report, status = _DISPATCH[cfg.command](cfg)
    except MoveError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(report, cfg)
    return status


if __name__ == "__main__":
    sys.exit(main())
