"""Command line driver: exit codes, reports, CSV outputs, determinism."""

import argparse
import csv
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ncgroupoid import (
    build_groupoid,
    build_space,
    from_expression,
    gallery,
    gallery_config,
    hausdorff_relation,
    represent,
)
from ncgroupoid.cli import COMMANDS, GROUPS, build_parser, run


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
    # the note counts the classes of each size; the sizes themselves go to partition.csv
    assert "relation: 2 classes, count by size {2: 2}, hausdorff=False" in (
        capsys.readouterr().out.splitlines())
    text = (out / "partition.csv").read_text()
    assert text.splitlines()[0] == "point,class"


def test_groupoid_build_writes_arrows(tmp_path, capsys):
    code, out = run_cli(tmp_path, "groupoid", "build", "--space", "grid_2x2")
    assert code == 0
    # two classes of two points, {0, 1} and {2, 3}: 2 * 2^2 arrows, sorted
    assert (out / "arrows.csv").read_bytes() == (
        b"src,dst\r\n0,0\r\n0,1\r\n1,0\r\n1,1\r\n2,2\r\n2,3\r\n3,2\r\n3,3\r\n")


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


def test_rep_build_reports_the_ess_sup(tmp_path, capsys):
    code, out = run_cli(tmp_path, "rep", "build", "--space", "total_type_3pt",
                        "--a", "x1*y1 + 2")
    assert code == 0
    lines = (out / "report.txt").read_text().splitlines()
    assert "ess sup = 8.27492" in lines and "[PASS] bounded" in lines


def test_rep_build_writes_each_class_matrix_once(tmp_path, capsys):
    # two classes of two points: 2 * 2^2 entries, not the 2 x 2 matrix once per point
    code, out = run_cli(tmp_path / "grid", "rep", "build", "--space", "grid_2x2")
    assert code == 0
    lines = (out / "fibers.csv").read_text().splitlines()
    assert lines[0] == "row,col,re,im" and len(lines) - 1 == 8
    # classes of 1, 2, 3 and 4 points, ids out of order, unequal weights
    coords = [3, 0, 2, 1, 3, 2, 3, 1, 3, 2]
    config = {"dimension": 1, "generators": [{"name": "f", "expr": "x1"}],
              "points": [{"id": 7 * i % 11, "coords": [c], "weight": 1 + i % 3}
                         for i, c in enumerate(coords)]}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(config))
    a = "x1*y1 + 2 + sin(y1)"
    code, out = run_cli(tmp_path / "mixed", "rep", "build", "--space", str(path), "--a", a)
    assert code == 0
    with open(out / "fibers.csv", newline="") as fh:
        rows = [(int(r), int(c), float(re), float(im)) for r, c, re, im in list(csv.reader(fh))[1:]]
    space = build_space(config)
    g = build_groupoid(space, hausdorff_relation(space))
    R = represent(from_expression(g, a))
    assert rows == sorted((x, y, M[i, j].real, M[i, j].imag)
                          for block, M in zip(g.blocks, R.class_matrices)
                          for i, x in enumerate(block) for j, y in enumerate(block))
    # the fiber over x: its class is the cols of the rows with row == x, its matrix the
    # rows between points of that class
    for x in space.ids:
        block = g.blocks[g.block_index(x)]
        assert {c for r, c, *_ in rows if r == x} == set(block)
        entries = {(r, c): complex(re, im) for r, c, re, im in rows
                   if r in block and c in block}
        fiber = np.array([[entries[y, z] for z in block] for y in block])
        np.testing.assert_array_equal(fiber, R.fiber(x))


@pytest.mark.parametrize("weight", [1e-11, 5e-324, 1e308])
def test_vn_commutant_counts_a_generator_far_smaller_than_another(tmp_path, capsys, weight):
    # two separated points, weights `weight` and 1: the first point's generator is
    # `weight` times the second's, and the span still has both; at 1e308, under
    # error::RuntimeWarning, no norm may square a class matrix's entries
    config = {"dimension": 1, "generators": [{"name": "f", "expr": "x1"}],
              "points": [{"id": 0, "coords": [0.0], "weight": weight},
                         {"id": 1, "coords": [1.0], "weight": 1.0}]}
    path = tmp_path / "tiny_weight.json"
    path.write_text(json.dumps(config))
    code, _ = run_cli(tmp_path, "vn", "commutant", "--space", str(path))
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "ambient dim 2; commutant dim 2, bicommutant dim 2, span dim 2" in lines
    assert "[PASS] bicommutant_equals_span" in lines


def test_vn_commutant_skips_past_the_ambient_dimension_guard(tmp_path, capsys):
    # 65 singleton classes: ambient dimension 65 > MAX_TOTAL_DIM
    config = {"dimension": 1, "generators": [{"name": "f", "expr": "x1"}],
              "points": [{"id": i, "coords": [i]} for i in range(65)]}
    path = tmp_path / "singletons.json"
    path.write_text(json.dumps(config))
    code, out = run_cli(tmp_path, "vn", "commutant", "--space", str(path))
    assert code == 0
    assert "[SKIP] bicommutant" in capsys.readouterr().out
    assert not (out / "commutant_basis.csv").exists()


def test_deform_sweep(tmp_path, capsys):
    code, out = run_cli(tmp_path, "deform", "sweep", "--space", "grid_2x2")
    assert code == 0
    lines = (out / "levels.csv").read_text().splitlines()
    assert lines[0].startswith("level,blocks,arrows")
    assert len(lines) - 1 == 3  # levels 0, 1, 2


def test_deform_sweep_on_separated_points_never_tabulates_level_0(tmp_path, capsys):
    # level 0 glues all 3,000 points into one class: its 3000^2 arrows would be 72 MB
    xy = np.random.default_rng(0).uniform(-1, 1, size=(3000, 2)).tolist()
    path = _write(tmp_path, {
        "dimension": 2, "generators": [{"name": "f1", "expr": "x1"}, {"name": "f2", "expr": "x2"}],
        "points": [{"id": i, "coords": c, "weight": (1.0, 1.5, 2.0)[i % 3]}
                   for i, c in enumerate(xy)]})
    tracemalloc.start()
    try:
        code = run(["deform", "sweep", "--space", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2**20


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


def _nested(template, inner, depth):
    for _ in range(depth):
        inner = template.format(inner)
    return inner


@pytest.mark.parametrize("expr, value", [
    # derivative trees deeper than the parse limit, and than Python's recursion limit
    (_nested("x1/({})", "x1/x1", 198), 1.0),
    (_nested("-(x1/{})", "x1", 99), -1.0),
    ("^".join(["x1"] * 199), 1.0),
    (_nested("exp(sin({}))", "x1 - 1", 99), None),
], ids=["quotients", "negated_quotients", "powers", "exp_sin"])
def test_deeply_nested_generators_are_evaluated(tmp_path, capsys, expr, value):
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({
        "dimension": 1,
        "points": [{"id": 0, "coords": [1.0]}, {"id": 1, "coords": [1.0]}],
        "generators": [{"name": "g1", "expr": expr}],
    }))
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", str(cfg))
    assert code == 0, capsys.readouterr().err
    space = build_space(json.loads(cfg.read_text()))
    if value is not None:
        assert space.generator_values[0, 0] == value


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


@pytest.mark.parametrize("command", ["vn expect", "vn state-check", "space analyze",
                                     "deform sweep"])
@pytest.mark.parametrize("generators", [[], _LINE["generators"]], ids=["glued", "separated"])
def test_total_weight_past_the_float_range_exits_2(tmp_path, capsys, command, generators):
    points = [{**p, "weight": 1e308} for p in _LINE["points"]]
    path = _write(tmp_path, {**_LINE, "points": points, "generators": generators})
    code, _ = run_cli(tmp_path, *command.split(), "--space", path)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: total weight inf: the weights sum past the float range\n")


# weights 1e308 and 1: admitted, but a random element's products overflow
_HUGE_NEXT_TO_ONE = [{**p, "weight": w} for p, w in zip(_LINE["points"], [1e308, 1.0])]
_NAN_FAILS = {
    "algebra check-laws": ["associativity", "involution_antihom"],
    "rep check": ["representation_homomorphism", "representation_star"],
    "vn state-check": ["positivity_on_squares"],
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # as a user runs it
@pytest.mark.parametrize("command", list(_NAN_FAILS))
@pytest.mark.parametrize("generators", [[], _LINE["generators"]], ids=["glued", "separated"])
def test_an_overflowing_trial_fails_with_a_nan_defect(tmp_path, capsys, command, generators):
    # every trial's defect is NaN; a running max(worst, defect) from 0.0 dropped each one
    path = _write(tmp_path, {**_LINE, "points": _HUGE_NEXT_TO_ONE, "generators": generators})
    code, _ = run_cli(tmp_path, *command.split(), "--space", path)
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    names = _NAN_FAILS[command]
    assert not [line for line in lines if line.startswith("[PASS]") and line.split()[1] in names]
    if command == "vn state-check" and not generators:
        return  # the glued pair's uniform density overflows to 0.0, so no trial runs
    for name in names:
        assert f"[FAIL] {name}  defect=nan  tol=1e-12" in lines


def test_vn_commutant_runs_on_a_glued_pair_at_weight_1e308(tmp_path, capsys):
    # the glued side of the separated pair at 1e308 above, under error::RuntimeWarning
    path = _write(tmp_path, {**_LINE, "points": _HUGE_NEXT_TO_ONE, "generators": []})
    code, _ = run_cli(tmp_path, "vn", "commutant", "--space", path)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "ambient dim 4; commutant dim 4, bicommutant dim 4, span dim 4" in lines
    assert "[PASS] bicommutant_equals_span" in lines


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


@pytest.mark.parametrize("expr", ["x1//2", "x1%2", "x1 if 1 else 2", "0.[3]*x1", "1e400"])
def test_expression_outside_the_grammar_exits_2(tmp_path, capsys, expr):
    code, _ = run_cli(tmp_path, "algebra", "conv", "--space", "grid_2x2", "--a", expr, "--b", "x1")
    assert code == 2
    err = capsys.readouterr().err
    # one short line, not a traceback or a 401-digit number
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120, err


def test_undecodable_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "binary.json"
    cfg.write_bytes(b"\xff\xfe{")
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", str(cfg))
    assert code == 2
    assert "error: cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("inside", [False, True])
def test_out_that_is_not_a_directory_exits_2(tmp_path, capsys, inside):
    afile = tmp_path / "afile"
    afile.write_text("keep")
    out = afile / "sub" if inside else afile
    assert run(["space", "analyze", "--space", "grid_2x2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {str(out)!r} is not a directory\n"
    assert afile.read_text() == "keep"


def test_negative_seed_exits_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "rep", "check", "--space", "grid_2x2", "--seed", "-1")
    assert code == 2
    assert "--seed: must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--trials", "0"), ("--trials", "-3"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"),
])
def test_bad_trials_or_tol_exits_2(tmp_path, capsys, option, value):
    code, _ = run_cli(tmp_path, "rep", "check", "--space", "grid_2x2", option, value)
    assert code == 2
    rule = {"--trials": "at least 1", "--tol": "finite and nonnegative"}[option]
    assert f"{option}: must be {rule}, got {value}" in capsys.readouterr().err


def test_zero_tol_runs(tmp_path, capsys):
    code, out = run_cli(tmp_path, "rep", "check", "--space", "grid_2x2", "--tol", "0")
    assert code in (0, 1)
    assert "tol=0\n" in (out / "report.txt").read_text()


# ---------------------------------------------------------- custom config

def test_quantized_quotient_roundtrip_compares_keys(tmp_path, capsys):
    # the second point's value differs from the first's by 6e-12, inside eps
    cfg = {
        "dimension": 1,
        "points": [{"id": 0, "coords": [1.0]}, {"id": 1, "coords": [1.000000000003]},
                   {"id": 2, "coords": [2.0]}],
        "generators": [{"name": "f", "expr": "x1^2 + 1"}],
        "compare_mode": {"quantized": 1e-9},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", str(path))
    assert "[PASS] quotient_roundtrip" in capsys.readouterr().out
    assert code == 0


def test_quotient_roundtrip_with_points_out_of_id_order(tmp_path, capsys):
    # listed out of id order, with the classes {1, 3} and {7, 9} interleaved
    xs = {7: 1.0, 3: 0.0, 9: 1.0, 1: 0.0, 5: 2.0}
    cfg = {"dimension": 2, "generators": [{"name": "h", "expr": "x1"}],
           "points": [{"id": i, "coords": [x, float(i)]} for i, x in xs.items()]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cli(tmp_path, "space", "analyze", "--space", str(path))
    out = capsys.readouterr().out
    assert "quotient: 3 points" in out
    assert "[PASS] quotient_roundtrip  defect=0 " in out
    assert code == 0


def test_deform_sweep_skips_the_pointwise_checks_without_singleton_classes(tmp_path, capsys):
    # two points at one coordinate: the top level is one class of two, so
    # the pointwise comparison has no singleton class to compare on
    path = _write(tmp_path, {"dimension": 1, "generators": [],
                             "points": [{"id": 0, "coords": [0.5]}, {"id": 1, "coords": [0.5]}]})
    code, _ = run_cli(tmp_path, "deform", "sweep", "--space", path)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("top_level_weighted_pointwise", "top_level_plain_pointwise"):
        assert f"[SKIP] {name}  (the top level has no singleton class)" in lines
    assert "4 checks: 2 passed, 0 failed, 2 skipped" in lines


def test_deform_sweep_runs_on_dimension_0(tmp_path, capsys):
    cfg = {"dimension": 0, "generators": [],
           "points": [{"id": 0, "coords": []}, {"id": 1, "coords": [], "weight": 2.0}]}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(cfg))
    code, _ = run_cli(tmp_path, "deform", "sweep", "--space", str(path))
    assert code in (0, 1)
    assert "error" not in capsys.readouterr().err


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


def test_deform_sweep_does_not_import_numpy_ma(tmp_path):
    # plain np.unique imports numpy.ma on first use, about 18 ms of a fresh process
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import ncgroupoid.cli\n"
        f"code = ncgroupoid.cli.run(['deform', 'sweep', '--space', 'grid_2x2', "
        f"'--out', {str(tmp_path)!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


# ----------------------------------------------------------------- README

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[list[str]]:
    """The command lines of the README's "Command line" block, comments dropped."""
    text = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = text.split("```\n")[1]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv[1:3]))
def test_readme_command_examples_run(tmp_path, capsys, argv):
    assert argv[0] == "ncgroupoid"
    args = argv[1:]
    args[args.index("--out") + 1] = str(tmp_path)
    assert run(args) == 0
    assert (tmp_path / "report.txt").exists()


def test_readme_shows_every_command():
    shown = {tuple(argv[1:3]) for argv in _readme_commands()}
    assert {(cmd.group, cmd.name) for cmd in COMMANDS} <= shown


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    exec(text.split("```python\n", 1)[1].split("```", 1)[0], {})
    assert capsys.readouterr().out == "(4+0j) (5+0j)\n"


def test_readme_config_example_builds():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    space = build_space(json.loads(example))
    assert space.compare_mode == "exact"
    assert [p.weight for p in space.points] == [1.0, 1.0]


# ------------------------------------------------------------- check names

def test_verify_all_runs_every_command_once_per_config(tmp_path, capsys):
    code, out = run_cli(tmp_path, "verify", "all", "--seed", "1")
    assert code == 0
    lines = (out / "report.txt").read_text().splitlines()
    names = [line.split()[1] for line in lines if line.startswith("[")]
    assert len(names) == len(set(names))
    commands = {name.split(":")[1] for name in names}
    # groupoid build reports notes only
    noted = {line.split(":")[1] for line in lines if line.split(":")[0] in gallery()}
    assert "groupoid.build" not in commands
    assert commands | noted == {
        "space.analyze", "groupoid.build", "algebra.conv", "algebra.check-laws",
        "calculus.leibniz", "calculus.commutator", "rep.build", "rep.check",
        "vn.commutant", "vn.state-check", "vn.expect", "deform.sweep", "verify.all",
    }
    assert {name.split(":")[0] for name in names} == set(gallery())
    # the suite-only checks are ones no command reports
    suite_only = {n.split(":", 2)[2] for n in names if n.split(":")[1] == "verify.all"}
    reported = {n.split(":", 2)[2] for n in names if n.split(":")[1] != "verify.all"}
    assert len(suite_only) == 7 and not suite_only & reported


def test_parser_commands_are_the_table():
    def choices(parser):
        (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    groups = choices(build_parser())
    assert list(groups) == list(GROUPS)
    parsed = {(group, name) for group, sub in groups.items() for name in choices(sub)}
    assert parsed == {(cmd.group, cmd.name) for cmd in COMMANDS} | {("verify", "all")}
    assert len(COMMANDS) == len(parsed) - 1


@pytest.mark.parametrize("relation, note", [
    ("hausdorff", "2 orbits, 8 arrows, transitive=False"),
    ("identity", "4 orbits, 4 arrows, transitive=False"),
    ("total", "1 orbits, 16 arrows, transitive=True"),
], ids=["hausdorff", "identity", "total"])
def test_groupoid_build_reports_notes_and_no_check(tmp_path, capsys, relation, note):
    code, out = run_cli(tmp_path, "groupoid", "build", "--space", "grid_2x2",
                        "--relation", relation)
    assert code == 0
    lines = (out / "report.txt").read_text().splitlines()
    assert lines[2:] == [note, "0 checks: 0 passed, 0 failed, 0 skipped"]
    assert capsys.readouterr().out.splitlines()[:-1] == lines
