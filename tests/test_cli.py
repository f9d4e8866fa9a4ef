import dataclasses
import json
import os

import numpy as np
import pytest

from pbalm import cli
from pbalm.cli import build_parser, fixture_path, main, trace_to_csv
from pbalm.outer import TRACE_COLUMNS, IterationRecord, OuterConfig, Variant
from conftest import neg_exp_problem


def _bp_args(tmp_path, fmt="csv", extra=()):
    out = tmp_path / f"trace.{fmt}"
    return [
        "--basis-pursuit", "p=20,n=50,k=5",
        "--variant", "pbalm",
        "--seed", "3",
        "--out", str(out),
        "--format", fmt,
        *extra,
    ], out


class TestParser:
    def test_requires_problem_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--variant", "pbalm"])

    def test_sources_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--qps", "a.qps", "--fixture", "tiny_eq"]
            )

    def test_bad_variant_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--fixture", "tiny_eq", "--variant", "nope"])

    @pytest.mark.parametrize("spec", [",", "pbalm,", "alm,alm", "pbalm, PBALM"])
    def test_empty_or_repeated_variant_is_a_usage_error(self, spec, capsys):
        # Once solved nothing and exited 0, or solved a variant twice and
        # wrote its trace over the first.
        with pytest.raises(SystemExit) as exc:
            main(["--fixture", "tiny_eq", "--variant", spec])
        assert exc.value.code == 2
        assert "--variant" in capsys.readouterr().err

    def test_bad_bp_spec_rejected(self, capsys):
        for spec in ("p=1,n=2", "p=1,n=2,k=x", "p=1;n=2;k=3", "p=1,n=2,k=3,",
                     "p=20,n=50,k=5,seed=3", "p=20,p=30,n=50,k=5"):
            with pytest.raises(SystemExit) as exc:
                main(["--basis-pursuit", spec, "--variant", "pbalm"])
            assert exc.value.code == 2, spec
            assert "--basis-pursuit" in capsys.readouterr().err, spec

    def test_bad_bp_key_named(self, capsys):
        for spec, key in (("p=20,n=50,k=5,seed=3", "seed"),
                          ("p=20,p=30,n=50,k=5", "p")):
            with pytest.raises(SystemExit):
                main(["--basis-pursuit", spec, "--variant", "pbalm"])
            assert f"unknown key {key!r}" in capsys.readouterr().err, spec


# Each SETTINGS flag with a value unlike OuterConfig's default.
_SETTING_VALUES = dict(beta="0.25", rho0="0.5", nu0="2", gamma0="3",
                       stop_tol="1e-6", max_outer="7")


class TestSettings:
    def test_table_covers_the_flags(self):
        assert set(cli.SETTINGS) == set(_SETTING_VALUES)

    def test_flags_default_to_outer_config(self):
        args = build_parser().parse_args(["--fixture", "tiny_eq"])
        defaults = OuterConfig()
        for name in cli.SETTINGS:
            value = getattr(args, name)
            assert value == getattr(defaults, name), name
            assert type(value) is type(getattr(defaults, name)), name

    def test_flags_reach_the_config(self):
        argv = ["--fixture", "tiny_eq"]
        for name, value in _SETTING_VALUES.items():
            argv += ["--" + name.replace("_", "-"), value]
        cfg = cli._make_config(build_parser().parse_args(argv), Variant.PBALM,
                               1.0, 0)
        assert (cfg.beta, cfg.rho0, cfg.nu0, cfg.gamma0, cfg.stop_tol,
                cfg.max_outer) == (0.25, 0.5, 2.0, 3.0, 1e-6, 7)

    def test_json_config_lists_them_and_the_source_as_given(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["--basis-pursuit", "p=20, n=50,k=5", "--beta", "0.25",
                     "--max-outer", "7", "--out", str(out),
                     "--format", "json"]) == 2
        config = json.loads(out.read_text())["config"]
        assert list(config) == ["variant", "alpha", "xi", "delta",
                                *cli.SETTINGS, "seed", "source"]
        assert (config["beta"], config["max_outer"]) == (0.25, 7)
        assert config["rho0"] == OuterConfig().rho0
        assert config["source"] == "p=20, n=50,k=5"


class TestRuns:
    def test_basis_pursuit_csv(self, tmp_path, capsys):
        args, out = _bp_args(tmp_path)
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        grads = [int(ln.split(",")[11]) for ln in lines[1:]]
        assert all(a <= b for a, b in zip(grads, grads[1:]))
        assert "status=eps_kkt" in capsys.readouterr().out

    def test_basis_pursuit_json_round_trips_csv(self, tmp_path):
        args, out = _bp_args(tmp_path, fmt="json")
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "rows", "summary"}
        assert doc["config"]["seed"] == 3
        recs = [IterationRecord(**{k: row[k] for k in TRACE_COLUMNS})
                for row in doc["rows"]]
        args2, out2 = _bp_args(tmp_path, fmt="csv")
        assert main(args2) == 0
        # booleans arrive as 0/1 through the record constructor either way
        assert trace_to_csv(recs) == out2.read_text()

    def test_fixture_alm(self, capsys):
        assert main(["--fixture", "tiny_eq", "--variant", "alm",
                     "--xi", "10"]) == 0
        assert "status=eps_kkt" in capsys.readouterr().out

    def test_alm_xi_at_most_one_exit_1(self, capsys):
        assert main(["--fixture", "tiny_eq", "--variant", "alm",
                     "--xi", "1"]) == 1
        assert "xi1 > 1" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, name", [
        (["--delta", "nan"], "delta"),
        (["--variant", "alm", "--xi", "nan"], "xi1"),
        (["--stop-tol", "nan"], "stop_tol"),
        (["--max-outer", "-1"], "max_outer")],
        ids=["delta-nan", "alm-xi-nan", "stop-tol-nan", "max-outer-negative"])
    def test_nan_or_negative_setting_exit_1(self, extra, name, capsys):
        # The first three solved and exited 2, as if the method had failed;
        # max_outer = -1 gave phase-I no iteration and blamed the problem.
        assert main(["--fixture", "tiny_eq", "--phase1", *extra]) == 1
        assert name in capsys.readouterr().err

    def test_infeasible_start_without_phase1(self, capsys):
        # tiny_box projects the origin into the box, which violates the
        # G row, so the feasible-start requirement fails
        code = main(["--fixture", "tiny_box", "--variant", "pbalm"])
        assert code == 1
        assert "not feasible" in capsys.readouterr().err

    def test_phase1_bootstrap(self, capsys):
        assert main(["--fixture", "tiny_box", "--variant", "pbalm",
                     "--phase1"]) == 0
        assert "status=eps_kkt" in capsys.readouterr().out

    def test_missing_file_exit_1(self, capsys):
        assert main(["--qps", "/nonexistent.qps", "--variant", "pbalm"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_qps_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.qps"
        bad.write_text("NAME X\nROWS\n Q  R1\nENDATA\n")
        assert main(["--qps", str(bad), "--variant", "pbalm"]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_out_in_missing_directory_exit_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "t.csv"
        assert main(["--basis-pursuit", "p=20,n=50,k=5", "--seed", "0",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "No such file" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "missing").exists()

    def test_failed_solve_writes_no_trace(self, tmp_path, capsys):
        # pbalm solves, then alm's xi = 1 is rejected: no file is written.
        assert main(["--basis-pursuit", "p=20,n=50,k=5", "--seed", "0",
                     "--variant", "pbalm,alm", "--xi", "1",
                     "--out", str(tmp_path / "t.csv")]) == 1
        assert "xi1 > 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_numerical_failure_writes_trace_exit_2(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(cli, "_build_problem",
                            lambda args, seed: (neg_exp_problem(), np.array([10.0])))
        out = tmp_path / "t.csv"
        with np.errstate(over="ignore"):
            code = main(["--fixture", "tiny_eq", "--variant", "pbalm",
                         "--out", str(out)])
        assert code == 2
        assert out.read_text() == ",".join(TRACE_COLUMNS) + "\n"
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert fields["status"] == "numerical_failure"
        # The trace has no row, so the summary shows the failing penalties.
        assert float(fields["rho_max"]) == 1e-3
        assert float(fields["nu_max"]) == 1e-3
        assert float(fields["gamma"]) == 0.1
        # Residuals come from the KKT report at the start, not zeros.
        assert float(fields["stationarity"]) > 0
        # The failing inner solve's gradients count too.
        assert fields["grad_evals"] == "5"

    def test_summary_without_rows_reports_E_at_the_start(self, monkeypatch,
                                                         capsys):
        # g(x) = x - 100 holds at x0 = 10, where P-BALM's first subproblem
        # fails; E = min(-g(x0), mu0/nu0) = min(90, 125.7...) there.
        prob = dataclasses.replace(
            neg_exp_problem(), m=1, g=lambda x: x - 100.0,
            jac_g_transpose_apply=lambda x, y: y.copy())
        monkeypatch.setattr(cli, "_build_problem",
                            lambda args, seed: (prob, np.array([10.0])))
        with np.errstate(over="ignore"):
            code = main(["--fixture", "tiny_eq", "--variant", "pbalm"])
        assert code == 2
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert fields["status"] == "numerical_failure"
        assert fields["outer_iterations"] == "0"
        assert float(fields["E_norm"]) == 90.0

    def test_multiple_variants_write_suffixed_traces(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code = main([
            "--basis-pursuit", "p=20,n=50,k=5",
            "--variant", "pbalm,balm",
            "--seed", "0",
            "--out", str(out),
        ])
        assert code == 0
        assert (tmp_path / "t.pbalm.csv").exists()
        assert (tmp_path / "t.balm.csv").exists()
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_problem_built_once_for_all_variants(self, monkeypatch, capsys):
        calls = []
        build = cli._build_problem

        def counting_build(args, seed):
            calls.append(seed)
            return build(args, seed)

        monkeypatch.setattr(cli, "_build_problem", counting_build)
        assert main(["--basis-pursuit", "p=20,n=50,k=5",
                     "--variant", "pbalm,balm,alm", "--seed", "0"]) == 0
        assert calls == [0]
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_suboptimality_gap_reported(self, capsys):
        assert main(["--basis-pursuit", "p=20,n=50,k=5", "--variant", "balm",
                     "--seed", "0", "--f1-star", "50.0"]) == 0
        assert "suboptimality_gap=" in capsys.readouterr().out


def test_fixture_paths_exist():
    assert sorted(cli.FIXTURES) == ["tiny_box", "tiny_eq"]
    for name in cli.FIXTURES:
        assert os.path.exists(fixture_path(name))


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")


@pytest.mark.parametrize("fixture", ["tiny_eq", "tiny_box"])
def test_fixture_traces_match_golden(tmp_path, fixture):
    """The CLI reproduces the checked-in traces byte for byte.  They were
    written on x86-64 with numpy's bundled OpenBLAS by
    ``pbalm --fixture NAME --variant pbalm,balm,alm --phase1 --out
    tests/data/golden/NAME.csv``; a change that alters any iterate shows
    here."""
    out = tmp_path / f"{fixture}.csv"
    assert main(["--fixture", fixture, "--variant", "pbalm,balm,alm",
                 "--phase1", "--out", str(out)]) == 0
    for variant in ("pbalm", "balm", "alm"):
        name = f"{fixture}.{variant}.csv"
        with open(os.path.join(GOLDEN, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
