"""Command-line interface: subcommands, guards, deterministic reports."""

import io
import json
from pathlib import Path

import pytest

import tvq
import tvq.cli
from tvq.cli import main
from tvq.coherence import pentagon_residual
from tvq.fusion import fibonacci_data


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


def test_verify_fusion_reports_the_measured_pentagon_residual(capsys, monkeypatch):
    calls = []

    def counted(data, *args, **kwargs):
        calls.append(data)
        return pentagon_residual(data, *args, **kwargs)

    monkeypatch.setattr(tvq.cli, "pentagon_residual", counted)
    status, rep = run_json(["verify", "fusion", "--tol", "1e-16"], capsys)
    assert status == 1 and rep["passed"] is False
    (pent,) = [c for c in rep["checks"] if c["name"] == "fusion.pentagon_coherence"]
    # the walk runs once and its residual is printed even when it fails
    assert len(calls) == 1
    assert pent["residual"] == pentagon_residual(fibonacci_data())
    assert 1e-16 < pent["residual"] < 1e-15
    assert pent["tol"] == 1e-16 and pent["passed"] is False


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


def assert_input_error(argv, capsys, match):
    # bad input: one error line on stderr, status 2, nothing on stdout
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert match in captured.err


def test_lattice_build_rejects_malformed_punctures(capsys):
    assert_input_error(["lattice", "build", "patch", "--punctures", "1"], capsys, "ring,sector")


def test_errors_rejects_non_integer_distances(capsys):
    assert_input_error(["errors", "--distances", "4,x"], capsys, "--distances")


def test_errors_rejects_empty_distance_list(capsys):
    assert_input_error(["errors", "--distances", ","], capsys, "at least one distance")


def test_errors_rejects_repeated_distances(capsys):
    # each distance would print its rows and summary twice
    assert_input_error(["errors", "--distances", "4,4", "--trials", "1"], capsys, "distances must be distinct")


@pytest.mark.parametrize("argv, d", [(["--distances", "5"], 5), (["--distances", "0"], 0), (["--distances=-4"], -4)])
def test_errors_rejects_distances_without_a_braid_arena(capsys, argv, d):
    assert_input_error(["errors", *argv], capsys, f"braid distance must be a positive even integer, got {d}")


@pytest.mark.parametrize("text, match", [("", "JSONDecodeError"), ("{}", "KeyError")])
def test_ground_dim_rejects_non_lattice_file(tmp_path, capsys, text, match):
    path = tmp_path / "lat.json"
    path.write_text(text)
    assert_input_error(["ground-dim", str(path)], capsys, f"not lattice JSON: {match}")


def test_lattice_build_out_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "lat.json"
    assert_input_error(["lattice", "build", "tetra", "--out", str(out)], capsys, "cannot write")


def test_errors_out_in_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "stretch.json"
    argv = ["errors", "--distances", "4", "--trials", "1", "--out", str(out)]
    assert_input_error(argv, capsys, "cannot write")


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
    assert "distance must be an even integer from 4 to 128" in captured.err


@pytest.mark.parametrize("command", ["braid", "compile"])
@pytest.mark.parametrize("d", [2, 5, 130])
def test_distance_guard_refuses_odd_and_out_of_range(command, d, capsys):
    assert_input_error([command, "--distance", str(d)], capsys, "distance must be an even integer from 4 to 128")


def test_braid_at_distance_10(capsys):
    status, rep = run_json(["braid", "--distance", "10"], capsys)
    assert status == 0
    assert rep["braid"]["gate_depth"] == 168
    assert rep["braid"]["moves"] == 9 * 10**2 + 6


def test_compile_at_distance_16_keeps_the_depth(capsys):
    status, rep = run_json(["compile", "--distance", "16"], capsys)
    assert status == 0
    assert rep["gate_depth"] == 168
    # 9d^2 flips, none with a pinned leg, seven gates each
    assert rep["gates"] == 7 * 9 * 16**2


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


def test_braid_compare_baseline_stdout_matches_golden(capsys):
    # the only CLI output that replays states: apply_fmove and run_schedule's deferred relabelings
    status, out = run_cli(["braid", "--distance", "4", "--compare-baseline"], capsys)
    assert status == 0
    assert out == (GOLDEN / "braid_d4_compare.json").read_text()


def test_compile_circuit_file_matches_golden(tmp_path, capsys):
    # stdout embeds the --out path, so the circuit file is compared instead
    path = tmp_path / "circ.json"
    status, _ = run_cli(["compile", "--distance", "4", "--out", str(path)], capsys)
    assert status == 0
    assert path.read_bytes() == (GOLDEN / "compile_d4.json").read_bytes()


def test_compile_writes_export_circuit_text_and_counts_its_bytes(tmp_path, capsys):
    # the command writes the rendered chunks without joining them
    path = tmp_path / "circ.json"
    status, rep = run_json(["compile", "--distance", "8", "--out", str(path)], capsys)
    assert status == 0
    *_, circ = tvq.cli._distance_braid(8, fibonacci_data())
    text = tvq.export_circuit(circ, io.StringIO())
    assert path.read_text(encoding="utf-8") == text
    assert rep["bytes"] == len(text) == len(path.read_bytes())


def test_errors_csv_matches_golden(capsys):
    argv = ["errors", "--distances", "4", "--trials", "20", "--seed", "17", "--format", "csv"]
    status, out = run_cli(argv, capsys)
    assert status == 0
    assert out == (GOLDEN / "errors_d4_t20_s17.csv").read_text()


def test_errors_csv_d4_d8_matches_golden(capsys):
    # the d = 8 rows run the relabelings and the light cone of a larger braid
    argv = ["errors", "--distances", "4,8", "--trials", "40", "--seed", "17", "--format", "csv"]
    status, out = run_cli(argv, capsys)
    assert status == 0
    assert out == (GOLDEN / "errors_d4_8_t40_s17.csv").read_text()


def test_verify_all_stdout_matches_golden(capsys):
    # covers the plaquette blocks, ground projection and code_space_dim
    status, out = run_cli(["verify", "all"], capsys)
    assert status == 0
    assert out == (GOLDEN / "verify_all.json").read_text()
