"""Command line front end: suites, convergence studies, demos, exit codes,
and byte-level determinism of reports."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mapforms import mechanics as me
from mapforms.cli import main
from mapforms.forms import ScalarFunc
from mapforms.report import TestRecord
from mapforms.suites import SUITES, SuiteConfig, run_branes

REPO = Path(__file__).resolve().parent.parent


def test_verify_runs_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "fiber-rules", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "checks passed" in text
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["environment"]["seed"] == 7
    assert payload["environment"]["conventions"]
    for record in payload["records"]:
        assert record["statement"]
        assert record["residual"] <= record["tolerance"] or not record["passed"]
        assert record["mesh"]


def test_verify_reports_are_byte_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--suite", "fiber-rules", "--seed", "3",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_all_suites_emits_the_benchmark_record_ids_in_order(tmp_path):
    expected = (REPO / "perfbench" / "expected_ids.txt").read_text().split()
    assert len(expected) == 73
    out = tmp_path / "report.json"
    argv = ["verify", *(a for s in SUITES for a in ("--suite", s)), "--seed", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert [r["test_id"] for r in records] == expected
    assert all(r["passed"] for r in records)


def test_verify_all_suites_passes_at_seed_79(capsys):
    # seed 79 draws the smallest fiber-rule boundary term of seeds 0-87: the
    # flipped-sign residual, 3.5e-4, still fails the identity's tolerance
    # 1e-6, so the sign gate passes
    argv = ["verify", *(a for s in SUITES for a in ("--suite", s)), "--seed", "79"]
    assert main(argv) == 0
    assert "73/73 checks passed" in capsys.readouterr().out


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["verify", "--suite", "branes", "--seed", "5", "--out",
                 str(out), "--format", "csv"]) == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("test_id,statement,residual,tolerance,passed")


@pytest.mark.parametrize("suite, seed", [("hat-calculus", 9), ("boundary", 10)])
def test_verify_passes_at_hard_seeds(suite, seed, capsys):
    # at hat-calculus seed 9 a derivation residual carries an h-independent
    # floor of about 3e-7 that a raw order fit reads as order 1; at boundary
    # seed 10 random data would give a small endpoint term
    assert main(["verify", "--suite", suite, "--seed", str(seed)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_usage_errors():
    assert main(["verify"]) == 2
    assert main(["verify", "--suite", "not-a-suite"]) == 2


def test_verify_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "suites": ["branes"]}))
    assert main(["verify", "--config", str(cfg)]) == 0
    cfg.write_text(json.dumps({"seed": 11, "bogus_key": 1}))
    assert main(["verify", "--config", str(cfg), "--suite", "branes"]) == 2


# bad input is a usage error (exit 2) that names the field, never a failed
# identity or a traceback
def _config_error(tmp_path, capsys, raw, *extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code = main(["verify", "--config", str(cfg), "--suite", "boundary", *extra])
    return code, capsys.readouterr()


def test_config_non_integer_nodes_is_usage_error(tmp_path, capsys):
    code, out = _config_error(tmp_path, capsys, {"nodes": "abc"})
    assert code == 2
    assert "nodes must be a positive integer, got 'abc'" in out.err
    assert "FAIL" not in out.out


def test_zero_nodes_is_usage_error(capsys):
    assert main(["verify", "--suite", "boundary", "--nodes", "0"]) == 2
    assert "nodes must be a positive integer, got 0" in capsys.readouterr().err


def test_converge_zero_level_is_usage_error(capsys):
    assert main(["converge", "--identity", "quadrature-circle", "--levels", "4,0"]) == 2
    assert "--levels needs positive node counts, got '4,0'" in capsys.readouterr().err


# the FD step, the trial count and the ladder steps are constants the
# tolerances were set against, so a config file cannot name them
def test_config_negative_fd_step_is_usage_error(tmp_path, capsys):
    code, out = _config_error(tmp_path, capsys, {"fd_step": -1})
    assert code == 2
    assert "unknown config keys: ['fd_step']" in out.err
    assert "boundary-top-degree" not in out.out


@pytest.mark.parametrize("raw", [{"trials": 0}, {"order_steps": [1e-3, -1e-3]},
                                 {"order_steps": 5}, {"seed": -1}])
def test_other_config_fields_are_validated(tmp_path, capsys, raw):
    key = next(iter(raw))
    code, out = _config_error(tmp_path, capsys, raw)
    assert code == 2
    if key in SuiteConfig.__dataclass_fields__:
        assert f"{key} must be" in out.err
    else:
        assert f"unknown config keys: ['{key}']" in out.err


@pytest.mark.parametrize("raw", [{"fd_step": 0.01}, {"trials": 1},
                                 {"order_steps": [1e-2, 5e-3]}])
def test_method_constants_are_unknown_config_keys(tmp_path, capsys, raw):
    # at a settable step of 0.01 these four suites reported 8 failed identities
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    suites = [a for s in ("hat-calculus", "bar-calculus", "boundary", "momentum")
              for a in ("--suite", s)]
    assert main(["verify", "--config", str(cfg), *suites, "--seed", "3"]) == 2
    out = capsys.readouterr()
    assert f"unknown config keys: ['{next(iter(raw))}']" in out.err
    assert "FAIL" not in out.out
    assert set(SuiteConfig.__dataclass_fields__) == {"seed", "nodes", "torus_side",
                                                     "interval_nodes"}


def test_verify_failure_exit_code(monkeypatch, capsys):
    def failing_suite(config):
        return [TestRecord(test_id="always-fails", statement="x = y",
                           residual=1.0, tolerance=1e-6, passed=False,
                           seed=config.seed, mesh={})]

    monkeypatch.setitem(SUITES, "synthetic-failure", failing_suite)
    code = main(["verify", "--suite", "synthetic-failure"])
    assert code == 1
    text = capsys.readouterr().out
    # a failing record names the identity and the residual/tolerance pair
    assert "always-fails" in text
    assert "1.000e+00" in text and "1.0e-06" in text


def test_converge_fits_second_order(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["converge", "--identity", "derivation-circle",
                 "--levels", "32,64,128,256", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    order = float(text.split("fitted order vs 1/nodes:")[1].splitlines()[0])
    assert order >= 1.9
    rows = out.read_text().splitlines()
    assert rows[0] == "nodes,fd_step,residual"
    assert len(rows) == 5


def test_converge_spectral_floor(capsys):
    assert main(["converge", "--identity", "quadrature-circle",
                 "--levels", "32,64,128", "--seed", "7"]) == 0
    assert "floor" in capsys.readouterr().out


def test_converge_single_level_reports_na(capsys):
    assert main(["converge", "--identity", "derivation-circle",
                 "--levels", "64", "--seed", "7"]) == 0
    assert "n/a" in capsys.readouterr().out


def test_converge_unknown_identity():
    assert main(["converge", "--identity", "nope"]) == 2


def test_demo_mw_links(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["demo", "mw-links", "--seed", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "mw-links.json").read_text())
    assert summary["circle_value"] == pytest.approx(2 * np.pi, abs=1e-8)
    assert summary["passed"] is True
    assert (out / "mw-links.csv").exists()


def test_demo_dualpair(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "dualpair", "--seed", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "dualpair.json").read_text())
    assert summary["commutation_error"] < 1e-12
    assert summary["passed"] is True


def test_demo_branes(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "branes", "--seed", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "branes.json").read_text())
    assert summary["passed"] is True


# grids too coarse for the tolerances: below 26 circle nodes, side 24 and 43
# interval nodes some identity fails at some seed in 0-23 (README)
@pytest.mark.parametrize("raw, message", [
    ({"interval_nodes": 5}, "interval_nodes must be at least 43 for the identities "
                            "to resolve at their tolerances, got 5"),
    ({"torus_side": 1}, "torus_side must be at least 24 for the identities to "
                        "resolve at their tolerances, got 1"),
    ({"torus_side": 16, "interval_nodes": 33}, "torus_side must be at least 24"),
    ({"interval_nodes": 42}, "interval_nodes must be at least 43"),
    ({"nodes": 25}, "nodes must be at least 26 for the identities to resolve at "
                    "their tolerances, got 25"),
])
def test_unresolving_grid_is_usage_error(tmp_path, capsys, raw, message):
    code, out = _config_error(tmp_path, capsys, raw)
    assert code == 2
    assert message in out.err
    assert "checks passed" not in out.out


@pytest.mark.parametrize("seed", ["0", "7"])
def test_minimum_grids_pass_every_suite(tmp_path, capsys, seed):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"torus_side": 24, "interval_nodes": 43,
                               "suites": sorted(SUITES)}))
    assert main(["verify", "--config", str(cfg), "--seed", seed]) == 0
    assert "73/73 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["0", "7"])
def test_minimum_circle_nodes_pass_every_suite(capsys, seed):
    args = ["verify", "--seed", seed, "--nodes", "26"]
    assert main(args + [f"--suite={s}" for s in sorted(SUITES)]) == 0
    assert "73/73 checks passed" in capsys.readouterr().out


def test_suite_that_raises_is_a_failed_record(tmp_path, capsys, monkeypatch):
    # flipping the sign of the hamiltonian field makes the catalog check of
    # the momentum suite raise; branes still runs and the report is written
    real = me.hamiltonian_field_r2

    def flipped(h, name=""):
        neg = ScalarFunc(lambda x: -h.value(x), lambda x: -np.asarray(h.grad(x)),
                         lambda x: -np.asarray(h.hess(x)))
        return replace(real(neg, name), h=h)

    monkeypatch.setattr(me, "hamiltonian_field_r2", flipped)
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "momentum", "--suite", "branes",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "ValueError: catalog residual" in captured.err
    records = json.loads(out.read_text(), parse_constant=pytest.fail)["records"]
    raised, *branes = records
    assert raised["test_id"] == "momentum-raised" and not raised["passed"]
    assert raised["detail"].startswith("ValueError: catalog residual ")
    assert raised["detail"].endswith(" exceeds 1.0e-08")
    assert [r["test_id"] for r in branes] == [r.test_id for r in run_branes(SuiteConfig())]
    assert all(r["passed"] for r in branes)


def test_three_circle_nodes_is_usage_error(capsys):
    assert main(["verify", "--suite", "bar-calculus", "--nodes", "3"]) == 2
    out = capsys.readouterr()
    assert ("nodes must be at least 26 for the identities to resolve at their "
            "tolerances, got 3") in out.err
    assert "checks passed" not in out.out


def test_demo_unknown_name():
    assert main(["demo", "no-such-demo"]) == 2


# config input a command would ignore is a usage error, not a silent pass
def test_unknown_config_suite_is_usage_error_for_every_command(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["no-such-suite"]}))
    for argv in (["verify"], ["demo", "branes", "--out", str(tmp_path / "out")]):
        assert main([*argv, "--config", str(cfg)]) == 2
        out = capsys.readouterr()
        assert "unknown suite ids ['no-such-suite']" in out.err
    assert not (tmp_path / "out").exists()


# an --out that cannot be written is a usage error, not a traceback after the run
@pytest.mark.parametrize("argv, existing", [
    (["verify", "--suite", "bar-calculus"], "directory"),
    (["converge", "--identity", "quadrature-circle", "--levels", "32,64"], "directory"),
    (["demo", "branes"], "file"),
])
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv, existing):
    out = tmp_path / "taken"
    if existing == "directory":
        out.mkdir()
    else:
        out.write_text("")
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err


def test_demo_accepts_a_config_with_known_suites(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "suites": ["branes"]}))
    assert main(["demo", "branes", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_converge_takes_no_config(tmp_path, capsys):
    # converge reads only a seed, which --seed sets
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nodes": 64, "torus_side": 40, "suites": ["no-such-suite"]}))
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--identity", "quadrature-circle", "--levels", "32,64",
              "--config", str(cfg)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_converge_negative_seed_is_usage_error(capsys):
    assert main(["converge", "--identity", "quadrature-circle", "--levels", "32,64",
                 "--seed", "-1"]) == 2
    assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


# a config file is a JSON object of SuiteConfig fields plus "suites", a list
# of suite ids; anything else is a usage error that names the field
@pytest.mark.parametrize("raw, message", [
    ({"suites": 5}, "suites must be a list of suite ids, got 5"),
    ([1, 2], "config file must hold a JSON object, got list"),
    ({"suites": "branes"}, "suites must be a list of suite ids, got 'branes'"),
])
def test_malformed_config_file_is_usage_error(tmp_path, capsys, raw, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", "--config", str(cfg)]) == 2
    out = capsys.readouterr()
    assert message in out.err
    assert "checks passed" not in out.out


# converge runs each level on a SuiteConfig, so verify's grid minimums
# (suites.GRID_MINIMUMS) gate its levels as well
@pytest.mark.parametrize("levels", ["32,64,128,256", "256,257,1024", "576,577,1024"])
def test_converge_torus_rejects_unresolved_or_repeated_sides(capsys, levels):
    # side 16 does not resolve the random data: at seed 3 the residual there
    # is 8.8e-4 at every FD step, against 1.8e-8 at side 24 and step 1e-4;
    # two levels on one side would fit an order to a repeated grid
    assert main(["converge", "--identity", "derivation-torus",
                 "--levels", levels, "--seed", "7"]) == 2
    out = capsys.readouterr()
    first = int(levels.split(",")[0])
    side = round(first ** 0.5)
    if side < 24:
        assert (f"level {first} of --levels, on torus2({side}): torus_side must be at least "
                f"24 for the identities to resolve at their tolerances, got {side}") in out.err
    else:
        assert ("--levels 576,577,1024 repeat a torus2 grid, so no order can be fitted: "
                "shapes [(24, 24), (24, 24), (32, 32)]") in out.err
    assert "fitted order" not in out.out


@pytest.mark.parametrize("identity, levels", [("derivation-circle", "8,16"),
                                              ("quadrature-circle", "1,2"),
                                              ("derivation-circle", "25,64"),
                                              ("quadrature-circle", "64,64")])
def test_converge_circle_rejects_unresolved_or_repeated_levels(capsys, identity, levels):
    # below verify's 26 circle nodes the residual is under-resolution of the
    # random data, and its fitted order means nothing (8,16 would read 14.83)
    assert main(["converge", "--identity", identity, "--levels", levels, "--seed", "7"]) == 2
    out = capsys.readouterr()
    first = int(levels.split(",")[0])
    if first < 26:
        assert (f"level {first} of --levels, on circle({first}): nodes must be at least 26"
                in out.err)
    else:
        assert f"--levels {levels} repeat a circle grid" in out.err
    assert "fitted order" not in out.out


def test_converge_circle_accepts_the_minimum(capsys):
    assert main(["converge", "--identity", "derivation-circle", "--levels", "26,52"]) == 0
    assert "fitted order vs 1/nodes:" in capsys.readouterr().out


def test_converge_runs_each_level_on_its_suite_config(monkeypatch, capsys):
    import mapforms.cli as cli
    grids = []
    domains = SuiteConfig.domains

    def spy(config):
        grids.append((config.seed, config.nodes, config.torus_side))
        return domains(config)

    monkeypatch.setattr(cli.SuiteConfig, "domains", spy)
    assert main(["converge", "--identity", "derivation-circle", "--levels", "32,64",
                 "--seed", "5"]) == 0
    assert grids == [(5, 32, 24), (5, 64, 24)]
    grids.clear()
    # a torus level sets the side make_domain gives its node count
    assert main(["converge", "--identity", "derivation-torus", "--levels", "600,1100"]) == 0
    assert grids == [(7, 48, 24), (7, 48, 33)]
    assert "600,4.000000e-03," in capsys.readouterr().out


def test_converge_torus_fits_second_order_on_resolved_levels(capsys):
    # from verify's side 24 on the fitted order reads 1.98-2.12 at seeds
    # 0-11; the side-16 levels 256,1024,4096 read 2.55-4.76 at these seeds
    for seed in (0, 3, 6, 9):
        assert main(["converge", "--identity", "derivation-torus",
                     "--levels", "576,1024,4096", "--seed", str(seed)]) == 0
        text = capsys.readouterr().out
        order = float(text.split("fitted order vs 1/nodes:")[1].splitlines()[0])
        assert 1.9 <= order <= 2.2, (seed, order)


def test_converge_two_route_reports_floor(capsys):
    assert main(["converge", "--identity", "two-route-circle",
                 "--levels", "32,64,128", "--seed", "7"]) == 0
    assert "fitted order vs 1/nodes: floor" in capsys.readouterr().out
