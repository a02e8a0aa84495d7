"""End-to-end checks of the command-line interface.

Everything goes through ``conelab.cli.main(argv)`` called as a plain
function, so exit codes and emitted files are asserted directly without
spawning subprocesses.
"""

import csv
import json

import pytest

from conelab.cli import main


def _write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _load_report(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# exit code 0 + report shape
# ---------------------------------------------------------------------------

def test_counterexample_report_passes(tmp_path):
    out = tmp_path / "report.json"
    assert main(["counterexample", "--out", str(out)]) == 0
    rep = _load_report(out)
    for key in ("schema", "package", "version", "command", "seed", "passed",
                "records", "stability_hash", "timestamp"):
        assert key in rep
    assert rep["schema"] == 1
    assert rep["package"] == "conelab"
    assert rep["command"] == "counterexample"
    assert rep["passed"] is True
    assert all(r["passed"] for r in rep["records"])
    names = {r["name"] for r in rep["records"]}
    assert "counterexample-residual" in names
    assert "counterexample-tail-slope" in names


def test_pipeline_zero_case_report(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "schema": 1, "command": "pipeline",
        "case": "zero", "grid": 32, "nodes": 48,
    })
    out = tmp_path / "report.json"
    assert main(["pipeline", "--config", cfg, "--out", str(out)]) == 0
    rep = _load_report(out)
    (verdict_rec,) = [r for r in rep["records"] if r["name"] == "pipeline-verdict"]
    assert "zero" in verdict_rec["details"]["verdict"]


def test_report_prints_to_stdout_without_out(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {
        "schema": 1, "case": "zero", "grid": 32, "nodes": 48,
    })
    assert main(["pipeline", "--config", cfg]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["command"] == "pipeline"


# ---------------------------------------------------------------------------
# exit code 1: a check that genuinely fails
# ---------------------------------------------------------------------------

def test_focusing_cubic_constant_potential_fails(tmp_path):
    # for the focusing cubic with a flat potential the exponent of the
    # conjugated coupling is negative, so the sign gate cannot pass
    cfg = _write_config(tmp_path / "cfg.json", {
        "schema": 1, "command": "verify-nl",
        "combos": [[1, 3, "constant"]], "grid": 48, "nodes": 64,
    })
    out = tmp_path / "report.json"
    assert main(["verify-nl", "--config", cfg, "--out", str(out)]) == 1
    rep = _load_report(out)
    assert rep["passed"] is False
    (rec,) = rep["records"]
    assert rec["name"].startswith("nl-chain[focusing/p=3")
    gmin, gmax = rec["details"]["gamma"]
    assert gmax < 0


# ---------------------------------------------------------------------------
# exit code 2: invalid input
# ---------------------------------------------------------------------------

def test_unsupported_config_schema(tmp_path, capsys):
    cfg = _write_config(tmp_path / "cfg.json", {"schema": 2})
    assert main(["counterexample", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_config_command_mismatch(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json",
                        {"schema": 1, "command": "solve"})
    assert main(["counterexample", "--config", cfg]) == 2


def test_unknown_pipeline_case(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json",
                        {"schema": 1, "case": "mystery"})
    assert main(["pipeline", "--config", cfg]) == 2


def test_config_not_json(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert main(["counterexample", "--config", str(bad)]) == 2


def test_csv_bundle_requires_out(tmp_path):
    assert main(["counterexample", "--format", "csv-bundle"]) == 2


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_stability_hash_is_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["counterexample", "--out", str(out1)]) == 0
    assert main(["counterexample", "--out", str(out2)]) == 0
    rep1, rep2 = _load_report(out1), _load_report(out2)
    assert rep1["stability_hash"] == rep2["stability_hash"]


# ---------------------------------------------------------------------------
# csv bundles
# ---------------------------------------------------------------------------

def _read_csv(path):
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_counterexample_csv_bundle(tmp_path):
    outdir = tmp_path / "bundle"
    assert main(["counterexample", "--format", "csv-bundle",
                 "--out", str(outdir)]) == 0
    assert (outdir / "report.json").is_file()
    header, rows = _read_csv(outdir / "series.csv")
    assert header == ["name", "param", "value"]
    names = {r[0] for r in rows}
    assert {"beta", "potential"} <= names
    # every row parses as (str, float, float)
    for name, param, value in rows:
        float(param), float(value)


def test_solve_csv_bundle_has_field_and_current(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "schema": 1, "command": "solve",
        "T": 1.0, "R": 6.0, "dr": 0.02, "grid": 24,
        "region": {"rho": 0.25, "omega": 1.0,
                   "sigma": 0.6, "tau": 1.6666667},
    })
    outdir = tmp_path / "bundle"
    assert main(["solve", "--config", cfg, "--format", "csv-bundle",
                 "--out", str(outdir)]) == 0
    assert (outdir / "report.json").is_file()
    fheader, frows = _read_csv(outdir / "field.csv")
    assert fheader == ["u", "v", "f", "h", "value"]
    assert len(frows) == 24 * 24
    cheader, crows = _read_csv(outdir / "current.csv")
    assert cheader == ["u", "v", "P_u", "P_v"]
    assert len(crows) == 24 * 24
    for row in frows[:8]:
        assert all(abs(float(x)) < 1e6 for x in row)


def test_pipeline_csv_bundle_series(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "schema": 1, "case": "multipole", "grid": 32, "nodes": 48,
    })
    outdir = tmp_path / "bundle"
    assert main(["pipeline", "--config", cfg, "--format", "csv-bundle",
                 "--out", str(outdir)]) == 0
    header, rows = _read_csv(outdir / "series.csv")
    assert header == ["name", "param", "value"]
    assert any(r[0].startswith("term-") for r in rows)


# ---------------------------------------------------------------------------
# misc flags
# ---------------------------------------------------------------------------

def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_refine_adds_stability_records(tmp_path):
    cfg = _write_config(tmp_path / "cfg.json", {
        "schema": 1, "case": "zero", "grid": 32, "nodes": 48,
    })
    out = tmp_path / "report.json"
    # bare flag means one refinement level
    assert main(["pipeline", "--config", cfg, "--refine",
                 "--out", str(out)]) == 0
    names = [r["name"] for r in _load_report(out)["records"]]
    assert "pipeline-verdict-stability[1]" in names
    # an explicit count adds one record per level
    assert main(["pipeline", "--config", cfg, "--refine", "2",
                 "--out", str(out)]) == 0
    names = [r["name"] for r in _load_report(out)["records"]]
    assert "pipeline-verdict-stability[1]" in names
    assert "pipeline-verdict-stability[2]" in names


@pytest.mark.parametrize("refine, failing", [
    (0, "battery-constants"),
    (1, "battery-constants-stability[1]"),
])
def test_verify_carleman_without_calibration_fails_a_record(
        tmp_path, monkeypatch, refine, failing):
    from dataclasses import replace

    from conelab import verifier

    real = verifier.carleman_split_check
    base_nodes = 32

    def uncalibrated(fld, params, branch, nodes):
        rep = real(fld, params, branch, nodes=nodes)
        # refine=0: drop the constants everywhere; refine=1: only when refined
        if refine == 0 or nodes > base_nodes:
            rep = replace(rep, c_cal=None, k_cal=None)
        return rep

    monkeypatch.setattr(verifier, "carleman_split_check", uncalibrated)
    cfg = _write_config(tmp_path / "cfg.json", {
        "schema": 1, "grid": 24, "nodes": base_nodes,
    })
    out = tmp_path / "report.json"
    assert main(["verify-carleman", "--config", cfg, "--refine", str(refine),
                 "--out", str(out)]) == 1
    records = {r["name"]: r for r in _load_report(out)["records"]}
    assert records[failing]["passed"] is False
    assert "calibrated" in records[failing]["details"]["error"]
