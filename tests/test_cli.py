"""Command-line interface: subcommands, guards, deterministic reports."""

import json
from pathlib import Path

import pytest

from tvq.cli import main


GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out


def run_json(argv, capsys):
    status, out = run_cli(argv, capsys)
    return status, json.loads(out)


def test_verify_fusion_passes(capsys):
    status, rep = run_json(["verify", "fusion"], capsys)
    assert status == 0
    assert rep["passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert names == {
        "fusion.f_block_entries",
        "fusion.f_orthogonality",
        "fusion.pentagon_coherence",
    }
    for c in rep["checks"]:
        assert c["passed"] is True


def test_verify_all_runs_every_suite(capsys):
    status, rep = run_json(["verify", "all", "--seed", "3"], capsys)
    assert status == 0
    assert rep["passed"] is True
    prefixes = {c["name"].split(".")[0] for c in rep["checks"]}
    assert prefixes == {"fusion", "projectors", "pachner"}


def test_verify_strict_tolerance_fails(capsys):
    # no finite-precision run clears an impossible tolerance; the exit
    # status must report it
    status, rep = run_json(["verify", "fusion", "--tol", "1e-30"], capsys)
    assert status == 1
    assert rep["passed"] is False


def test_lattice_build_and_ground_dim(tmp_path, capsys):
    path = tmp_path / "torus.json"
    status, rep = run_json(
        ["lattice", "build", "torus", "--lx", "2", "--ly", "2", "--out", str(path)],
        capsys,
    )
    assert status == 0
    assert rep["lattice"]["qubits"] == 12
    assert path.exists()

    status, rep = run_json(["ground-dim", str(path)], capsys)
    assert status == 0
    assert rep["dim"] == 4


def test_ground_dim_sphere(tmp_path, capsys):
    path = tmp_path / "tetra.json"
    status, _ = run_json(["lattice", "build", "tetra", "--out", str(path)], capsys)
    assert status == 0
    status, rep = run_json(["ground-dim", str(path)], capsys)
    assert status == 0
    assert rep["dim"] == 1


def test_ground_dim_missing_file(capsys):
    status = main(["ground-dim", "/nonexistent/lat.json"])
    captured = capsys.readouterr()
    assert status == 2
    assert "cannot read" in captured.err


def test_braid_report_structure(capsys):
    status, rep = run_json(["braid", "--distance", "4"], capsys)
    assert status == 0
    assert rep["braid"]["local_depth"] == 4
    assert rep["braid"]["total_steps"] == 12
    assert rep["braid"]["gate_depth"] == 168
    assert rep["baseline"]["total_steps"] == 24
    assert rep["baseline"]["gate_depth"] == 168


def test_braid_distance_guard(capsys):
    status = main(["braid", "--distance", "3"])
    captured = capsys.readouterr()
    assert status == 2
    assert "distance must be one of" in captured.err


def test_braid_compare_baseline_closes_loop(capsys):
    status, rep = run_json(
        ["braid", "--distance", "4", "--compare-baseline", "--seed", "11"], capsys
    )
    assert status == 0
    assert rep["state_check"]["fidelity"] >= 1 - 1e-9


def test_braid_export_circuit(tmp_path, capsys):
    path = tmp_path / "braid.json"
    status, rep = run_json(
        ["braid", "--distance", "4", "--export-circuit", str(path)], capsys
    )
    assert status == 0
    assert rep["circuit_file"] == str(path)
    doc = json.loads(path.read_text())
    assert len(doc["layers"]) == 168


def test_errors_writes_csv_and_json(tmp_path, capsys):
    out = tmp_path / "stretch.json"
    status, rep = run_json(
        ["errors", "--distances", "4", "--trials", "3", "--seed", "7", "--out", str(out)],
        capsys,
    )
    assert status == 0
    csv_text = (tmp_path / "stretch.csv").read_text()
    assert csv_text.splitlines()[0] == "d,trial,initial_len,final_len,ratio"
    assert len(csv_text.splitlines()) == 4
    doc = json.loads((tmp_path / "stretch.json").read_text())
    assert doc["summary"][0]["d"] == 4
    assert rep["summary"][0]["d"] == 4


def test_errors_csv_format_to_stdout(capsys):
    status, out = run_cli(
        ["errors", "--distances", "4", "--trials", "2", "--seed", "7", "--format", "csv"],
        capsys,
    )
    assert status == 0
    assert out.splitlines()[0] == "d,trial,initial_len,final_len,ratio"


def test_compile_writes_circuit(tmp_path, capsys):
    path = tmp_path / "circ.json"
    status, rep = run_json(["compile", "--distance", "4", "--out", str(path)], capsys)
    assert status == 0
    assert rep["gate_depth"] == 168
    doc = json.loads(path.read_text())
    assert doc["qubits"] == rep["qubits"] or len(doc["qubits"]) == rep["qubits"]


def test_reports_byte_identical_across_runs(capsys):
    # fixed configuration in, identical bytes out: every float passes
    # through the same formatting and every dict is emitted sorted
    argv = ["verify", "all", "--seed", "5"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second

    argv = ["errors", "--distances", "4", "--trials", "3", "--seed", "9"]
    _, first = run_cli(argv, capsys)
    _, second = run_cli(argv, capsys)
    assert first == second


def test_text_format_renders_checks(capsys):
    status, out = run_cli(["verify", "fusion", "--format", "text"], capsys)
    assert status == 0
    assert "fusion.f_orthogonality: PASS" in out


def test_unknown_scope_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "everything"])


# ---- golden bytes ------------------------------------------------------------
#
# Written once from the CLI and committed; a refactor that changes any of
# these bytes changes what users see.


def test_braid_stdout_matches_golden(capsys):
    status, out = run_cli(["braid", "--distance", "4"], capsys)
    assert status == 0
    assert out == (GOLDEN / "braid_d4.txt").read_text()


def test_compile_circuit_file_matches_golden(tmp_path, capsys):
    # stdout embeds the --out path, so the circuit file is compared instead
    path = tmp_path / "circ.json"
    status, _ = run_cli(["compile", "--distance", "4", "--out", str(path)], capsys)
    assert status == 0
    assert path.read_bytes() == (GOLDEN / "compile_d4.json").read_bytes()


def test_errors_csv_matches_golden(capsys):
    argv = ["errors", "--distances", "4", "--trials", "20", "--seed", "17", "--format", "csv"]
    status, out = run_cli(argv, capsys)
    assert status == 0
    assert out == (GOLDEN / "errors_d4_t20_s17.csv").read_text()


def test_verify_all_stdout_matches_golden(capsys):
    # covers the plaquette blocks, ground projection and code_space_dim
    status, out = run_cli(["verify", "all"], capsys)
    assert status == 0
    assert out == (GOLDEN / "verify_all.json").read_text()
