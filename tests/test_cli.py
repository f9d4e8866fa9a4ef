import json
import os

import numpy as np
import pytest

from pbalm import cli
from pbalm.cli import build_parser, fixture_path, main, trace_to_csv
from pbalm.outer import TRACE_COLUMNS, IterationRecord
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

    def test_bad_bp_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(["--basis-pursuit", "p=1,n=2", "--variant", "pbalm"])


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
    for name in ("tiny_eq", "tiny_box"):
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
