import contextlib
import io
import json
import shutil
import sys
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

import cli_golden
from cli_golden import RIGID, RUNS
from conftest import hooked
from torusdyn import cli
from torusdyn.cli import main


def run(args):
    return main(args)


def run_golden(name, out):
    """Run one of the golden runs into ``out`` and check its file hashes."""
    assert run(RUNS[name] + ["--out", str(out)]) == 0
    cli_golden.check(name, out)


def test_rotnum_rigid(tmp_path, capsys):
    out = tmp_path / "o"
    run_golden("rotnum-rigid", out)
    text = capsys.readouterr().out
    assert "0.25" in text
    doc = json.loads((out / "rotnum.json").read_text())
    assert abs(doc["result"]["estimate"] - 0.25) <= 1e-12
    assert doc["result"]["error_bound"] <= 1.1e-3


def test_rotnum_identity(tmp_path):
    run_golden("rotnum-identity", tmp_path)
    doc = json.loads((tmp_path / "rotnum.json").read_text())
    assert doc["result"]["estimate"] == 0.0


def test_rotnum_usage_error(tmp_path):
    assert run(["rotnum", "--out", str(tmp_path)]) == 1
    assert run(["rotnum", "--rigid", "0.25", "--seed", "3",
                "--out", str(tmp_path)]) == 1


def test_deviations_rigid_zero_column(tmp_path):
    run_golden("deviations-rigid", tmp_path)
    rows = [l for l in (tmp_path / "deviations.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(vals) <= 1e-10


def test_skeworbit_single_row(tmp_path):
    run_golden("skeworbit-state", tmp_path)
    rows = [l for l in (tmp_path / "orbit.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 2  # header plus the initial state
    doc = json.loads((tmp_path / "orbit.json").read_text())
    assert doc["result"]["oscillation"] == 0.0


def test_skeworbit_rigid_constant_column(tmp_path):
    run_golden("skeworbit-rigid", tmp_path)
    rows = [l.split(",") for l in
            (tmp_path / "orbit.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    ys = np.array([float(r[3]) for r in rows])
    assert np.max(np.abs(ys - 0.25)) <= 1e-10


def test_factor_requires_seed_point(tmp_path):
    assert run(["factor", "--map", RIGID, "--rho", "0.4142135624",
                "--out", str(tmp_path)]) == 1


def test_factor_small_run(tmp_path):
    run_golden("factor-rigid", tmp_path)
    doc = json.loads((tmp_path / "defects.json").read_text())
    res = doc["result"]
    assert res["ordering_violations"] == 0
    assert res["semiconjugacy_defect_max"] <= 3 * res["cell_height"]
    assert (tmp_path / "continua" / "cs_000.csv").exists()
    assert (tmp_path / "region.json").exists()


def test_factor_window_exhausted_exit_code(tmp_path):
    drift = '{"kind":"rigid","offset":[0.1,0.3]}'
    code = run(["factor", "--map", drift, "--rho", "0.0",
                "--seed-point", "0.5,0", "--resolution", "16,16,32",
                "--window", "1.0", "--max-iters", "50",
                "--out", str(tmp_path)])
    assert code == 3


def test_gallery_unknown_id(tmp_path, capsys):
    assert run(["gallery", "nope", "--out", str(tmp_path)]) == 1
    assert "known ids" in capsys.readouterr().err


def test_gallery_surgery(tmp_path):
    run_golden("gallery-surgery", tmp_path)
    rows = [l for l in (tmp_path / "surgery.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert len(rows) == 101
    diams = {float(r.split(",")[3]) for r in rows}
    assert diams == {0.02}


def test_gallery_suspension_alias(tmp_path):
    run_golden("gallery-suspension", tmp_path)
    doc = json.loads((tmp_path / "gallery_suspension.json").read_text())
    assert doc["result"]["commutation_defect"] <= 1e-9
    assert doc["result"]["deviation_verdict"] == "bounded"


def test_double_factor_refuses_twist(tmp_path):
    assert run(["double-factor", "--map", '{"kind":"twist","k":1}',
                "--out", str(tmp_path)]) == 1


def test_determinism_byte_identical(tmp_path):
    o1, o2 = tmp_path / "a", tmp_path / "b"
    for out in (o1, o2):
        run_golden("deviations-rigid-100", out)
    assert (o1 / "deviations.csv").read_bytes() == (o2 / "deviations.csv").read_bytes()
    assert (o1 / "deviations.json").read_bytes() == (o2 / "deviations.json").read_bytes()


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": RIGID, "rho": 0.4142135624,
                               "nmax": 100, "samples": 8}))
    out = tmp_path / "o"
    assert run(["deviations", "--config", str(cfg), "--out", str(out)]) == 0
    # explicit flag overrides the file
    out2 = tmp_path / "o2"
    assert run(["deviations", "--config", str(cfg), "--nmax", "50",
                "--out", str(out2)]) == 0
    doc = json.loads((out2 / "deviations.json").read_text())
    assert doc["config"]["nmax"] == 50


def test_config_file_loses_to_explicit_default_valued_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nmax": 5, "samples": 8}))
    # --samples 64 is the flag's default, given explicitly: it still wins
    assert run(["deviations", "--map", RIGID, "--rho", "0.4142135624",
                "--samples", "64", "--config", str(cfg),
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "deviations.json").read_text())
    assert doc["config"]["samples"] == 64
    assert doc["config"]["nmax"] == 5
    rows = [l for l in (tmp_path / "deviations.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert len(rows) == 6


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for key in ("bogus", "func"):
        cfg.write_text(json.dumps({"nmax": 5, key: 1}))
        assert run(["deviations", "--map", RIGID, "--rho", "0.4142135624",
                    "--config", str(cfg), "--out", str(tmp_path)]) == 1
        assert f"unknown config key: {key}" in capsys.readouterr().err


def _one_line_usage_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


def test_map_definition_without_kind_is_usage_error(tmp_path, capsys):
    for bad in ('{"offset":[0.1,0.2]}', '[1, 2]', '"rigid"',
                '{"kind":"suspension","base":{"alpha":0.1},'
                '"fiber":{"kind":"rigid","alpha":0.2}}',
                '{"kind":"rigid"}', '{"kind":"twist"}',
                '{"kind":"rigid","offset":5}',
                '{"kind":"rigid","offset":[null,1]}',
                '{"kind":"composed","maps":5}',
                '{"kind":"rigid","offset":[NaN,0]}',
                '{"kind":"rigid","offset":[Infinity,0]}',
                '{"kind":"disk-push","center0":[0.3,NaN],'
                '"center1":[0.35,0.5],"radius":0.2}',
                '{"kind":"twist","k":1.5}'):
        assert run(["deviations", "--map", bad, "--rho", "0", "--nmax", "3",
                    "--out", str(tmp_path)]) == 1
        _one_line_usage_error(capsys)
    for bad in ('{"alpha":0.25}', '{"kind":"piecewise-affine"}'):
        assert run(["rotnum", "--circle", bad, "--out", str(tmp_path)]) == 1
        _one_line_usage_error(capsys)


def test_factor_rejects_empty_or_negative_resolution(tmp_path, capsys):
    for res in ("0,0,0", "8,-8,16"):
        assert run(["factor", "--map", RIGID, "--rho", "0.4142135624",
                    "--seed-point", "0.5,0", "--resolution", res,
                    "--out", str(tmp_path)]) == 1
        _one_line_usage_error(capsys)


def test_factor_rejects_negative_max_iters(tmp_path, capsys):
    assert run(["factor", "--map", RIGID, "--rho", "0.4142135624",
                "--seed-point", "0.5,0", "--resolution", "8,8,16",
                "--max-iters", "-1", "--out", str(tmp_path)]) == 1
    _one_line_usage_error(capsys)


def test_threads_flag_removed(tmp_path, capsys):
    assert run(["factor", "--help"]) == 0
    assert "--threads" not in capsys.readouterr().out
    assert run(["rotnum", "--rigid", "0.25", "--threads", "2",
                "--out", str(tmp_path)]) == 1


def test_double_factor_rigid_small(tmp_path):
    run_golden("double-factor-rigid", tmp_path)
    doc = json.loads((tmp_path / "double_factor.json").read_text())
    res = doc["result"]
    assert res["vertical_defect_max"] <= 2 * res["cell_heights"][0]
    assert res["horizontal_defect_max"] <= 2 * res["cell_heights"][1]


def test_double_factor_builds_one_region_at_a_time(tmp_path, monkeypatch):
    # the vertical region is dropped before the horizontal build starts: the
    # factor map holds no reference to it
    real, regions, alive = cli.build_tau, [], []

    def build(*args, **kwargs):
        alive.append([ref() is not None for ref in regions])
        tau = real(*args, **kwargs)
        regions.append(weakref.ref(tau))
        return tau

    monkeypatch.setattr(cli, "build_tau", build)
    run_golden("double-factor-rigid", tmp_path)
    assert alive == [[], [False]]


def test_rotnum_denjoy_cli(tmp_path):
    run_golden("rotnum-denjoy", tmp_path)
    doc = json.loads((tmp_path / "rotnum.json").read_text())
    res = doc["result"]
    golden = (5 ** 0.5 - 1) / 2
    assert abs(res["estimate"] - golden) <= res["error_bound"] + res["truncation_slack"]


@pytest.mark.parametrize("name", ["factor-suspension",
                                  "gallery-unbounded-inessential",
                                  "gallery-fully-essential",
                                  "factor-rigid-odd",
                                  "deviations-suspension-backstep",
                                  "factor-rigid-tight-window",
                                  "gallery-fully-essential-9",
                                  "gallery-unbounded-inessential-4"])
def test_golden_runs(tmp_path, name):
    run_golden(name, tmp_path)


def test_factor_default_runs_no_saturation_round(tmp_path):
    # the golden suspension run gives no --max-iters: its region is the seed
    # raster extended to the envelopes, and both files say so
    run_golden("factor-suspension", tmp_path)
    doc = json.loads((tmp_path / "region.json").read_text())
    assert doc["config"]["max-iters"] == 0
    assert doc["result"]["provenance"]["iterations"] == 0
    doc = json.loads((tmp_path / "defects.json").read_text())
    assert doc["config"]["max-iters"] == 0


def test_factor_under_a_profile_hook_writes_the_golden_files(tmp_path):
    # python -m cProfile installs a profile hook, which holds a reference to
    # every method it sees called: the run must not depend on refcounts
    with hooked(sys.setprofile):
        code = run(RUNS["factor-rigid"] + ["--out", str(tmp_path)])
    assert code == 0
    cli_golden.check("factor-rigid", tmp_path)


def test_factor_empty_ladder_check_exits_2(tmp_path, capsys):
    for sladder in ("1", "0"):
        out = tmp_path / sladder
        code = run(RUNS["factor-rigid"] + ["--sladder", sladder,
                                           "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric check failed:") and err.count("\n") == 1
        assert (out / "defects.json").exists()


def test_config_names_every_output_flag(tmp_path):
    # every flag but the output and input paths can change an output
    _, commands = cli.build_parser()
    runs = {"skeworbit": (RUNS["skeworbit-state"], "orbit.json"),
            "factor": (RUNS["factor-rigid"], "region.json"),
            "double-factor": (["double-factor", "--map", RIGID, "--resolution",
                               "16,16,32", "--grid", "4"], "double_factor.json")}
    for command, (argv, name) in runs.items():
        assert run(argv + ["--out", str(tmp_path / command)]) == 0
        doc = json.loads((tmp_path / command / name).read_text())
        flags = {a.dest.replace("_", "-") for a in commands[command]._actions}
        assert flags - {"help", "out", "config", "map-file"} <= set(doc["config"])


# -- fuzzed map definitions: every run exits 0 or 1, never with a traceback ----

JUNK = st.sampled_from([None, float("nan"), float("inf"), float("-inf"), True,
                        "x", "golden", [], {}, [0.1], [0.1, 0.2, 0.3], 0, -1,
                        1.5, 3])
ANGLE = st.sampled_from([0.25, -1, 1.5, "golden", "sqrt2", "0.3"])


def _sometimes(bad, good):
    """The good strategy about nine times in ten, the bad one otherwise."""
    # not i == 0: generation favours small integers
    return st.integers(0, 9).flatmap(lambda i: bad if i == 5 else good)


def _field(good):
    return _sometimes(JUNK, good)


def _drop_a_key(d):
    return st.sampled_from(sorted(d)).map(
        lambda key: {k: v for k, v in d.items() if k != key})


def _obj(kind, **fields):
    """A definition whose fields may hold junk, with a key sometimes dropped."""
    full = st.fixed_dictionaries({"kind": _field(st.just(kind)),
                                  **{k: _field(v) for k, v in fields.items()}})
    return full.flatmap(lambda d: _sometimes(_drop_a_key(d), st.just(d)))


PAIR = _sometimes(st.lists(ANGLE, max_size=3),
                  st.tuples(ANGLE, ANGLE).map(list))
CENTER = _sometimes(PAIR, st.sampled_from([[0.3, 0.5], [0.32, 0.51]]))
DENJOY_ALPHA = st.sampled_from(["golden", "sqrt2", 0.25])
CIRCLE = st.one_of(
    _obj("rigid", alpha=ANGLE),
    _obj("piecewise-affine",
         breaks=_sometimes(st.lists(PAIR, max_size=3), st.sampled_from(
             [[[0, 0.25], [0.5, 0.9]], [[0.1, 0.3]], []]))),
    _obj("denjoy-truncated", alpha=DENJOY_ALPHA, N=st.integers(-1, 6),
         total_mass=st.sampled_from([0.3, 0.05, 1.5, -0.1]),
         truncation_tol=st.just(1e-3)),
    _obj("denjoy-truncated", alpha=DENJOY_ALPHA, N=st.just(2),
         lengths=st.lists(_field(st.floats(0.001, 0.05)), min_size=4, max_size=6)),
)
MAP = st.recursive(
    st.one_of(
        _obj("rigid", offset=PAIR),
        _obj("twist", k=st.integers(-2, 2)),
        _obj("suspension", base=CIRCLE, fiber=CIRCLE),
        _obj("disk-push", center0=CENTER, center1=CENTER,
             radius=st.sampled_from([0.2, 0.03, 0.3])),
    ),
    lambda children: _obj("composed", maps=st.lists(children, min_size=1,
                                                     max_size=3)),
    max_leaves=5,
)


@given(d=MAP)
@settings(max_examples=200, deadline=None)
def test_fuzzed_map_definitions_exit_cleanly(tmp_path_factory, d):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["deviations", "--map", json.dumps(d), "--rho", "0",
                    "--nmax", "3", "--samples", "2",
                    "--out", str(tmp_path_factory.mktemp("fuzz"))])
    text = err.getvalue()
    event(f"exit code {code}")
    assert code in (0, 1), text
    assert "Traceback" not in text
    if code == 1:
        assert text.startswith("usage error:") and text.count("\n") == 1, text


# -- reproduced bad numbers on argv and in --config: exit 1, no traceback ------

def _usage_exit(args, capsys):
    assert run(args) == 1
    _one_line_usage_error(capsys)


def test_non_finite_list_and_float_flags_exit_1(tmp_path, capsys):
    out = ["--out", str(tmp_path)]
    _usage_exit(["factor", "--map", RIGID, "--rho", "0.41", "--seed-point",
                 "nan,0", "--resolution", "8,8,16", *out], capsys)
    _usage_exit(["factor", "--map", RIGID, "--rho", "nan", "--seed-point",
                 "0.5,0", "--resolution", "8,8,16", *out], capsys)
    _usage_exit(["deviations", "--map", RIGID, "--rho", "0", "--v", "nan,1",
                 "--nmax", "3", *out], capsys)
    _usage_exit(["skeworbit", "--map", RIGID, "--rho", "0", "--state", "nan,0,0",
                 "--nmax", "3", *out], capsys)
    _usage_exit(["skeworbit", "--map", RIGID, "--rho", "0", "--state", "0,0",
                 "--nmax", "3", *out], capsys)


def test_overflowing_rho_is_usage_error(tmp_path, capsys):
    # n * rho overflows within the run: refused before any work, with no
    # warning, where it crashed `factor` and let `deviations` say "bounded"
    out = ["--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["factor", "--map", RIGID, "--rho", "1e308", "--seed-point",
                      "0.5,0", "--resolution", "8,8,16"],
                     ["deviations", "--map", RIGID, "--rho", "1e308",
                      "--samples", "4"],
                     ["skeworbit", "--map", RIGID, "--rho", "1e308", "--state",
                      "0,0,0"]):
            assert run(argv + out) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: rho 1e+308 times "), err
            assert err.endswith(" steps is not finite\n") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_overflowing_deviation_profile_is_usage_error(tmp_path, capsys):
    # <f^n(z) - z, v> overflows: refused with one line and no warning, where
    # it printed numpy's overflow warning and then "bounded (C_est=inf)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["deviations", "--map", RIGID, "--rho", "0.4", "--v",
                    "1e308,1e308", "--nmax", "10", "--samples", "2", "--out",
                    str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == ("usage error: the deviation profile along v = "
                   "[1e+308, 1e+308] is not finite\n"), err
    assert not list(tmp_path.iterdir())


def test_empty_seed_ball_is_usage_error(tmp_path, capsys):
    # both collapse the y cells to height 1, where the ball covers no center
    for flags, message in ((["--window", "1e300"], "the seed ball of radius "
                            "0.15 covers no cell center"),
                           (["--c-est", "-5"], "c_est must be at least 0")):
        assert run(RUNS["factor-rigid"] + flags + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: " + message) and err.count("\n") == 1


def test_config_values_take_the_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for bad in ({"samples": None}, {"v": 5}, {"nmax": 1.5}):
        cfg.write_text(json.dumps(bad))
        _usage_exit(["deviations", "--map", RIGID, "--rho", "0", "--config",
                     str(cfg), "--out", str(tmp_path)], capsys)
    cfg.write_text(json.dumps({"rho": "golden", "v": "0,1", "nmax": 3}))
    assert run(["deviations", "--map", RIGID, "--config", str(cfg),
                "--samples", "2", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "deviations.json").read_text())
    assert doc["config"]["rho"] == (5 ** 0.5 - 1) / 2 and doc["config"]["nmax"] == 3


def test_unbounded_map_values_are_usage_errors(tmp_path, capsys):
    far = ('{"kind":"suspension","base":{"kind":"rigid","alpha":2000},'
           '"fiber":{"kind":"rigid","alpha":0.3}}')
    for bad in ('{"kind":"twist","k":1' + "0" * 400 + "}", far):
        assert run(["deviations", "--map", bad, "--rho", "0", "--nmax", "3",
                    "--samples", "2", "--out", str(tmp_path)]) == 1
        _one_line_usage_error(capsys)
    # a geometric gap schedule cannot reach an order this large
    assert run(["rotnum", "--denjoy", "golden", "--denjoy-order", "1" + "0" * 400,
                "--n", "10", "--out", str(tmp_path)]) == 1
    _one_line_usage_error(capsys)


def test_denjoy_gaps_below_rounding_are_named(tmp_path, capsys):
    # N = 33 keeps gap -33 at width 0 in floats; at N = 50 gap 33 would map
    # onto gap 34, whose width rounds to 0
    circle = ('{"kind":"denjoy-truncated","alpha":0.0078125,"N":%d,'
              '"total_mass":1e-6}')
    assert run(["rotnum", "--circle", circle % 33, "--n", "10",
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["rotnum", "--circle", circle % 50, "--n", "10",
                "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "usage error: gap 34 of length 1.94e-17 is below rounding at its "
        "position, and gap 33 maps onto it; lower N or raise the gap lengths\n")


def test_nmax_zero_is_usage_error(tmp_path, capsys):
    # refused before any work: no out dir, no algebra check, no probe
    out = tmp_path / "out"
    with mock.patch.object(cli, "check_commutation", side_effect=AssertionError), \
            mock.patch.object(cli, "walk_probes", side_effect=AssertionError):
        for example in ("suspension", "unbounded-inessential", "fully-essential"):
            _usage_exit(["gallery", example, "--nmax", "0", "--out", str(out)],
                        capsys)
        _usage_exit(["deviations", "--map", RIGID, "--rho", "0", "--nmax", "0",
                     "--out", str(out)], capsys)
    assert not out.exists()


def _run_bytes(argv, out, capsys):
    """Exit code, stdout, stderr and the output files' bytes of one run."""
    code = run(argv + ["--out", str(out)])
    std = capsys.readouterr()
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    shutil.rmtree(out, ignore_errors=True)
    return code, std.out, std.err, files


@pytest.mark.parametrize("argv,flag,value", [
    (RUNS["deviations-rigid"], "--v", "-1,1"),
    (RUNS["skeworbit-rigid"], "--state", "-0.1,0,0"),
    (RUNS["factor-rigid"], "--seed-point", "-0.5,0"),
    (["skeworbit", "--map", RIGID, "--nmax", "2"], "--rho", "-4e-1"),
], ids=["v", "state", "seed-point", "rho-exponent"])
def test_negative_values_read_as_values(argv, flag, value, tmp_path, capsys):
    # argparse took only -digits and -digits.digits for a negative number,
    # so these read as an unknown option; the flag given last wins over the
    # run's own
    out = tmp_path / "out"
    spaced = _run_bytes(argv + [flag, value], out, capsys)
    joined = _run_bytes(argv + [f"{flag}={value}"], out, capsys)
    assert spaced[0] == 0, spaced[2]
    assert spaced == joined


def test_option_like_value_is_still_refused(tmp_path, capsys):
    _usage_exit(["skeworbit", "--map", RIGID, "--rho", "-x", "--nmax", "2",
                 "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("argv,flag", [
    (RUNS["factor-rigid"] + ["--grid", "0"], "--grid"),
    (RUNS["factor-rigid"] + ["--sladder", "-1"], "--sladder"),
    (RUNS["double-factor-rigid"] + ["--grid", "0"], "--grid"),
    (RUNS["deviations-rigid"] + ["--samples", "0"], "--samples"),
    (RUNS["deviations-rigid"] + ["--samples", "-2"], "--samples"),
    (RUNS["skeworbit-state"] + ["--nmax", "-4"], "--nmax"),
    (["gallery", "surgery-geometry", "--nscan", "-3"], "--nscan"),
    (["rotnum", "--rigid", "0.25", "--n", "0"], "--n"),
    (["rotnum", "--denjoy", "golden", "--n", "-3"], "--n"),
], ids=["factor-grid", "factor-sladder", "double-factor-grid", "samples-0",
        "samples-negative", "skeworbit-nmax", "nscan", "rotnum-n", "denjoy-n"])
def test_count_flag_below_minimum_is_usage_error(argv, flag, tmp_path, capsys):
    # checked before any work: nothing is built and no file is written
    out = tmp_path / "out"
    with mock.patch.object(cli, "build_tau", side_effect=AssertionError):
        _usage_exit(argv + ["--out", str(out)], capsys)
    assert not out.exists()
    run(argv + ["--out", str(out)])
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-0.5"])
def test_nonpositive_tol_is_usage_error(tol, tmp_path, capsys):
    # checked before any work: nothing is built and no file is written
    out = tmp_path / "out"
    with mock.patch.object(cli, "build_tau", side_effect=AssertionError):
        _usage_exit(RUNS["factor-rigid"] + ["--tol", tol, "--out", str(out)], capsys)
    assert not out.exists()
    run(RUNS["factor-rigid"] + ["--tol", tol, "--out", str(out)])
    assert "--tol" in capsys.readouterr().err


RIGID_CIRCLE = '{"kind":"rigid","alpha":0.25}'


@pytest.mark.parametrize("argv,config", [
    (["rotnum", "--rigid", "0.25", "--denjoy", "0.3"], None),
    (["rotnum", "--rigid", "0.25", "--circle", RIGID_CIRCLE], None),
    (["rotnum", "--denjoy", "golden", "--circle", RIGID_CIRCLE], None),
    (["rotnum", "--rigid", "0.25"], {"denjoy": "golden"}),
    (["rotnum", "--rigid", "0.25", "--denjoy-order", "7"], None),
    (["rotnum", "--circle", RIGID_CIRCLE], {"denjoy-order": 7}),
    (["deviations", "--map", RIGID, "--map-file", "MAP", "--rho", "0"], None),
    (["deviations", "--map", RIGID, "--rho", "0"], {"map-file": "MAP"}),
    (["skeworbit", "--map-file", "MAP", "--rho", "0"], {"map": RIGID}),
    (["factor", "--map", RIGID, "--map-file", "MAP", "--rho", "0",
      "--seed-point", "0.5,0", "--resolution", "8,8,16"], None),
    (["double-factor", "--map-file", "MAP", "--resolution", "8,8,16"],
     {"map": RIGID}),
    (["gallery", "surgery-geometry", "--nmax", "5"], None),
    (["gallery", "3.4-geometry", "--seed", "9"], None),
    (["gallery", "surgery-geometry", "--nmax", "10000", "--seed", "0"], None),
    (["gallery", "surgery-geometry"], {"seed": 9}),
    (["rotnum", "--rigid", "0.25", "--x0", "5"], None),
    (["rotnum", "--circle", RIGID_CIRCLE, "--x0", "0"], None),
    (["rotnum", "--rigid", "0.25"], {"x0": 5}),
], ids=["rigid-denjoy", "rigid-circle", "denjoy-circle", "config-denjoy",
        "denjoy-order-alone", "config-denjoy-order", "map-and-map-file",
        "config-map-file", "config-map", "factor-map-and-map-file",
        "double-factor-config-map", "surgery-nmax", "surgery-seed",
        "surgery-defaults-given", "config-surgery-seed", "rigid-x0",
        "rigid-circle-x0-given", "config-rigid-x0"])
def test_ignored_flag_combinations_are_usage_errors(argv, config, tmp_path,
                                                    capsys):
    # each of these used to run, silently dropping one of the flags
    (tmp_path / "map.json").write_text(RIGID)
    argv = [str(tmp_path / "map.json") if a == "MAP" else a for a in argv]
    if config is not None:
        config = {k: str(tmp_path / "map.json") if v == "MAP" else v
                  for k, v in config.items()}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", str(tmp_path / "cfg.json")]
    out = tmp_path / "out"
    with mock.patch.object(cli, "build_tau", side_effect=AssertionError):
        _usage_exit(argv + ["--out", str(out)], capsys)
    assert not out.exists()


@pytest.mark.parametrize("argv", [RUNS["factor-rigid"], RUNS["double-factor-rigid"]],
                         ids=["factor", "double-factor"])
@pytest.mark.parametrize("resolution", ["100000,100000,100000", "512,512,1025"])
def test_resolution_over_the_cell_cap_is_usage_error(argv, resolution, tmp_path,
                                                     capsys):
    # 2^28 cells at most, checked before anything is built or allocated
    out = tmp_path / "out"
    with mock.patch.object(cli, "build_tau", side_effect=AssertionError), \
            mock.patch.object(cli, "estimate_rotation_set",
                              side_effect=AssertionError):
        assert run(argv + ["--resolution", resolution, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1, err
    assert "--resolution" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [RUNS["factor-rigid"], RUNS["double-factor-rigid"]],
                         ids=["factor", "double-factor"])
@pytest.mark.parametrize("flag,value,message", [
    ("--resolution", "0,16,32", "--resolution 0,16,32 has an entry below 1"),
    ("--max-iters", "-1", "--max-iters must be at least 0, not -1")],
    ids=["resolution", "max-iters"])
def test_bad_counts_are_refused_before_any_work(argv, flag, value, message,
                                                tmp_path, capsys):
    # refused before the rotation-set walk or the region build runs, so no
    # --out directory is left behind
    out = tmp_path / "out"
    with mock.patch.object(cli, "build_tau", side_effect=AssertionError), \
            mock.patch.object(cli, "estimate_rotation_set",
                              side_effect=AssertionError):
        assert run(argv + [flag, value, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_rotnum_x0_moves_the_orbit_of_a_moving_lift(tmp_path):
    # --x0 is refused only where the estimate cannot depend on it
    table = '{"kind":"piecewise-affine","breaks":[[0,0.1],[0.5,0.7]]}'
    docs = []
    for x0 in ("0", "0.3"):
        out = tmp_path / x0
        assert run(["rotnum", "--circle", table, "--n", "10", "--x0", x0,
                    "--out", str(out)]) == 0
        docs.append(json.loads((out / "rotnum.json").read_text()))
    assert [d["config"]["x0"] for d in docs] == [0.0, 0.3]
    assert docs[0]["result"]["estimate"] != docs[1]["result"]["estimate"]


def test_out_of_memory_is_a_usage_error(tmp_path, capsys):
    # a count too large to allocate exits 1 on one line, not with a traceback
    with mock.patch.object(cli, "deviation_profile",
                           side_effect=MemoryError("Unable to allocate 7.3 TiB")):
        assert run(RUNS["deviations-rigid"] + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: the input is too large (out of memory)\n"


def test_version_exits_0(capsys):
    assert run(["--version"]) == 0
    assert capsys.readouterr().out.strip() == cli.__version__


def test_gallery_refuses_surgery_flags_elsewhere(tmp_path, capsys):
    assert run(["gallery", "suspension", "--gamma", "5", "--delta", "99",
                "--nscan", "-3", "--out", str(tmp_path)]) == 1
    _one_line_usage_error(capsys)
    assert run(["gallery", "3.4-geometry", "--nscan", "10",
                "--out", str(tmp_path)]) == 0
    assert "through 10 iterates" in capsys.readouterr().out


# -- fuzzed argv and --config contents: exit 0 to 3, never a traceback ---------

NUMBER = _sometimes(st.sampled_from(["nan", "inf", "-inf", "1e400", "", "x"]),
                    st.sampled_from(["0", "0.25", "-0.5", "1.5", "golden"]))
COUNT = _sometimes(st.sampled_from(["-1", "1.5", "nan", "x", ""]),
                   st.sampled_from(["0", "1", "2"]))
CELLS = _sometimes(st.sampled_from(["0", "-1", "1.5", "x"]),
                   st.sampled_from(["1", "2", "4"]))


def _commas(item, count):
    """count items joined by commas, or now and then a wrong number of them."""
    return _sometimes(st.lists(item, max_size=4),
                      st.lists(item, min_size=count, max_size=count)).map(",".join)


# flags with their fuzzed values; factor and double-factor always get a
# --resolution of at most 4 cells per axis, and the required flags are
# always given
REQUIRED = {"deviations": ["--rho"], "skeworbit": ["--rho"],
            "factor": ["--rho", "--seed-point"]}
COMMANDS = {
    "rotnum": {"--rigid": NUMBER, "--denjoy": NUMBER, "--denjoy-order": COUNT,
               "--n": COUNT, "--x0": NUMBER},
    "deviations": {"--rho": NUMBER, "--v": _commas(NUMBER, 2), "--nmax": COUNT,
                   "--samples": COUNT, "--seed": COUNT},
    "skeworbit": {"--rho": NUMBER, "--state": _commas(NUMBER, 3), "--nmax": COUNT},
    "factor": {"--rho": NUMBER, "--seed-point": _commas(NUMBER, 2),
               "--ball-radius": NUMBER, "--window": NUMBER, "--tol": NUMBER,
               "--sladder": COUNT, "--grid": COUNT, "--max-iters": COUNT,
               "--c-est": NUMBER},
    "gallery": {"--nmax": COUNT, "--gamma": NUMBER, "--delta": NUMBER,
                "--nscan": COUNT},
    "double-factor": {"--grid": COUNT, "--max-iters": COUNT},
}
JSON_VALUE = st.sampled_from([None, 2, -1, 1.5, True, "x", "golden", "2,2,2",
                              [1, 2], {"k": 1}])


@st.composite
def argv_and_config(draw):
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[cmd]
    argv = [cmd]
    if cmd == "gallery":
        argv.append(draw(st.sampled_from(["suspension", "3.4-geometry",
                                          "unbounded-inessential", "nope"])))
    elif cmd != "rotnum":
        argv += ["--map", RIGID]
    if cmd in ("factor", "double-factor"):
        argv += ["--resolution", draw(_commas(CELLS, 3))]
    required = REQUIRED.get(cmd, [])
    optional = sorted(set(flags) - set(required))
    for flag in required + draw(st.lists(st.sampled_from(optional), unique=True)):
        argv += [flag, draw(flags[flag])]
    keys = [f[2:] for f in flags] + ["bogus"]
    config = draw(st.none() | st.dictionaries(st.sampled_from(keys), JSON_VALUE,
                                              max_size=3))
    return argv, config


@given(case=argv_and_config())
@settings(max_examples=100, deadline=None)
def test_fuzzed_argv_and_config_exit_cleanly(tmp_path_factory, case):
    argv, config = case
    out = tmp_path_factory.mktemp("fuzz")
    if config is not None:
        (out / "cfg.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(out / "cfg.json")]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv + ["--out", str(out)])
    text = err.getvalue()
    event(f"{argv[0]} exit code {code}")
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in text
    if code == 1:
        assert text.startswith("usage error:") and text.count("\n") == 1, text
