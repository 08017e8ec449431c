"""Command line driver: exit codes, reports, CSV outputs, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ncgroupoid import build_space, gallery, gallery_config
from ncgroupoid.cli import run


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    return run([*args, "--out", str(out)]), out


# ------------------------------------------------------------ happy path

def test_verify_all_passes(tmp_path, capsys):
    code, out = run_cli(tmp_path, "verify", "all", "--seed", "1")
    captured = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in captured
    assert (out / "report.txt").exists()


def test_space_analyze_writes_partition(tmp_path, capsys):
    code, out = run_cli(tmp_path, "space", "analyze", "--space", "grid_2x2")
    assert code == 0
    text = (out / "partition.csv").read_text()
    assert text.splitlines()[0] == "point,class"


def test_groupoid_build_writes_arrows(tmp_path, capsys):
    code, out = run_cli(tmp_path, "groupoid", "build", "--space", "grid_2x2")
    assert code == 0
    lines = (out / "arrows.csv").read_text().splitlines()
    assert lines[0] == "src,dst"
    assert len(lines) - 1 == 8  # two classes of two points: 2*(2^2)


def test_algebra_conv_writes_product(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, "algebra", "conv",
        "--space", "total_type_3pt", "--a", "x1 + y2", "--b", "x2*y1 + 1",
    )
    assert code == 0
    assert (out / "conv.csv").read_text().startswith("src,dst,re,im")


def test_algebra_check_laws(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path, "algebra", "check-laws",
        "--space", "hausdorff_line_5pt", "--seed", "7", "--trials", "3",
    )
    assert code == 0
    assert "associativity" in capsys.readouterr().out


def test_calculus_commands(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path, "calculus", "leibniz",
        "--space", "grid_2x2", "--deriv", "1,x1",
        "--a", "x1*y2", "--b", "x2 + y1 + 1",
    )
    assert code == 0
    code, _ = run_cli(
        tmp_path, "calculus", "commutator",
        "--space", "grid_2x2", "--deriv", "1,0", "--func", "x1",
        "--a", "x1*y1 + x2",
    )
    assert code == 0


def test_rep_and_vn_commands(tmp_path, capsys):
    code, out = run_cli(tmp_path, "rep", "build", "--space", "total_type_3pt")
    assert code == 0
    assert (out / "fibers.csv").exists()
    code, _ = run_cli(tmp_path, "rep", "check", "--space", "grid_2x2", "--seed", "2")
    assert code == 0
    code, out = run_cli(tmp_path, "vn", "commutant", "--space", "grid_2x2")
    assert code == 0
    assert (out / "commutant_basis.csv").exists()
    code, _ = run_cli(tmp_path, "vn", "state-check", "--space", "grid_2x2", "--seed", "2")
    assert code == 0


def test_deform_sweep(tmp_path, capsys):
    code, out = run_cli(tmp_path, "deform", "sweep", "--space", "grid_2x2")
    assert code == 0
    lines = (out / "levels.csv").read_text().splitlines()
    assert lines[0].startswith("level,blocks,arrows")
    assert len(lines) - 1 == 3  # levels 0, 1, 2


def test_every_gallery_config_builds(tmp_path):
    names = gallery()
    assert set(names) == {"total_type_3pt", "grid_2x2", "hausdorff_line_5pt"}
    for name in names:
        code, _ = run_cli(tmp_path / name, "space", "analyze", "--space", name)
        assert code == 0


# ------------------------------------------------------------ exit codes

def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"dimension": 1}))  # no points
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", str(cfg))
    assert code == 2


def test_invalid_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", str(cfg))
    assert code == 2


def test_unknown_gallery_name_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", "no_such_space")
    assert code == 2


def test_failed_check_exits_1(tmp_path, capsys):
    # an impossible tolerance turns roundoff into failures
    code, out = run_cli(
        tmp_path, "algebra", "check-laws",
        "--space", "grid_2x2", "--tol", "0", "--seed", "5", "--trials", "2",
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    assert (out / "report.txt").exists()  # report written even on failure


def test_bad_expression_exits_2(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path, "algebra", "conv",
        "--space", "grid_2x2", "--a", "import os", "--b", "1",
    )
    assert code == 2


@pytest.mark.parametrize("mode", ["exact", {"quantized": 1e-9}])
def test_non_finite_generator_value_exits_2(tmp_path, capsys, mode):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({
        "dimension": 1,
        "points": [{"id": 0, "coords": [1e308]}, {"id": 1, "coords": [1.0]}],
        "generators": [{"name": "g1", "expr": "10*x1"}],
        "compare_mode": mode,
    }))
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", str(cfg))
    assert code == 2
    assert "error: generator 'g1': 10*x1 is inf at (x1=1e+308)" in capsys.readouterr().err


def _write(tmp_path, config):
    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps(config))
    return str(cfg)


_LINE = {"dimension": 1, "points": [{"id": 0, "coords": [0.0]}, {"id": 1, "coords": [1.0]}],
         "generators": [{"name": "f", "expr": "x1"}]}


@pytest.mark.parametrize("field, config", [
    ("eps", {**_LINE, "compare_mode": {"quantized": [1]}}),
    ("dimension", {**_LINE, "dimension": 1.7}),
    ("point id", {**_LINE, "points": [{"id": 0.5, "coords": [0.0]}]}),
    ("coords", {**_LINE, "dimension": 2, "points": [{"id": 0, "coords": "12"}]}),
    ("coords", {**_LINE, "generators": [], "points": [{"id": 0, "coords": [1e999]}]}),
])
def test_malformed_fields_exit_2_naming_the_field(tmp_path, capsys, field, config):
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", _write(tmp_path, config))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_internal_value_error_is_not_bad_input(tmp_path, monkeypatch):
    def broken(a, b):
        raise ValueError("internal failure")

    monkeypatch.setattr("ncgroupoid.cli.convolve", broken)
    with pytest.raises(ValueError, match="internal failure"):
        run_cli(tmp_path, "algebra", "conv", "--space", "grid_2x2", "--a", "x1", "--b", "1")


def test_derivation_arity_exits_2(tmp_path, capsys):
    code, _ = run_cli(
        tmp_path, "calculus", "leibniz",
        "--space", "grid_2x2", "--deriv", "1", "--a", "x1", "--b", "1",
    )
    assert code == 2
    assert "error: need 2 coefficient expressions, got 1" in capsys.readouterr().err


def test_key_overflow_at_a_chain_level_exits_2(tmp_path, capsys):
    # the generator "1" keeps every key finite; only the chain's projection
    # pi1 = x1 overflows 1e300 / 1e-300
    path = _write(tmp_path, {
        "dimension": 1,
        "points": [{"id": 0, "coords": [1e300]}, {"id": 1, "coords": [1.0]}],
        "generators": [{"name": "c", "expr": "1"}],
        "compare_mode": {"quantized": 1e-300},
    })
    code, _ = run_cli(tmp_path / "a", "space", "analyze", "--space", path)
    assert code == 0
    code, _ = run_cli(tmp_path / "d", "deform", "sweep", "--space", path)
    assert code == 2
    assert "error: generator 'pi1'" in capsys.readouterr().err


@pytest.mark.parametrize("expr", ["1/0", "x1 + log(0)", "0/0", "x1 + (-1)^(1/2)", "log(-1)"])
def test_non_finite_or_complex_constant_exits_2(tmp_path, capsys, expr):
    code, _ = run_cli(tmp_path, "algebra", "conv", "--space", "grid_2x2", "--a", expr, "--b", "1")
    assert code == 2
    assert "error: not finite and real" in capsys.readouterr().err


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "binary.json"
    cfg.write_bytes(b"\xff\xfe{")
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", str(cfg))
    assert code == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "rep", "check", "--space", "grid_2x2", "--seed", "-1")
    assert code == 2
    assert "--seed: must be nonnegative" in capsys.readouterr().err


# ---------------------------------------------------------- custom config

def test_user_config_roundtrip(tmp_path, capsys):
    cfg = {
        "dimension": 1,
        "points": [
            {"id": 0, "coords": [0.0], "weight": 2.0},
            {"id": 1, "coords": [0.0], "weight": 1.0},
            {"id": 2, "coords": [5.0]},
        ],
        "generators": [{"name": "f", "expr": "x1^2"}],
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(tmp_path, "space", "analyze", "--space", str(path))
    assert code == 0
    rows = (out / "partition.csv").read_text().splitlines()[1:]
    classes = {r.split(",")[0]: r.split(",")[1] for r in rows}
    assert classes["0"] == classes["1"]  # same generator value
    assert classes["0"] != classes["2"]


# ----------------------------------------------------------- determinism

def test_outputs_are_byte_deterministic(tmp_path):
    code1, out1 = run_cli(tmp_path / "r1", "deform", "sweep", "--space", "grid_2x2")
    code2, out2 = run_cli(tmp_path / "r2", "deform", "sweep", "--space", "grid_2x2")
    assert code1 == code2 == 0
    assert (out1 / "levels.csv").read_bytes() == (out2 / "levels.csv").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_seeded_checks_are_deterministic(tmp_path, capsys):
    _, out1 = run_cli(tmp_path / "r1", "rep", "check", "--space", "grid_2x2", "--seed", "11")
    _, out2 = run_cli(tmp_path / "r2", "rep", "check", "--space", "grid_2x2", "--seed", "11")
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


# ------------------------------------------------------------ entry point

def test_console_script_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ncgroupoid.cli",
         "space", "analyze", "--space", "grid_2x2",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


# ----------------------------------------------------------------- README

def test_readme_config_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    space = build_space(json.loads(example))
    assert space.compare_mode == "exact"
    assert [p.weight for p in space.points] == [1.0, 1.0]


# ------------------------------------------------------------- check names

def test_groupoid_build_checks_relation_against_generators(tmp_path, capsys):
    code, _ = run_cli(tmp_path / "h", "groupoid", "build", "--space", "grid_2x2")
    assert code == 0
    assert "[PASS] relation_matches_generators" in capsys.readouterr().out
    for relation in ("identity", "total"):
        code, _ = run_cli(tmp_path / relation, "groupoid", "build",
                          "--space", "grid_2x2", "--relation", relation)
        assert code == 0
        assert "[SKIP] relation_matches_generators" in capsys.readouterr().out
