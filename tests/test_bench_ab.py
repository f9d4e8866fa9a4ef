"""tools/bench_ab.py: the ratio summary on made-up timings, its argument
checks, and one round of each warm-up sized workload on one checkout."""

import os
from pathlib import Path

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_ab(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import bench_ab

    return bench_ab


def test_ratio_summary(bench_ab):
    # Ratios 0.9, 1.1, 0.9, 1.0; the tie in round 4 counts for neither.
    rec = bench_ab.ratio_summary([1.0, 2.0, 4.0, 8.0], [0.9, 2.2, 3.6, 8.0])
    assert rec["runs"] == [0.9, 1.1, 0.9, 1.0]
    assert (rec["q1"], rec["median"], rec["q3"]) == (0.9, 0.95, 1.025)
    assert rec["change_lower_in_rounds"] == "2/4"


@pytest.mark.parametrize("flag", [["--rounds", "0"], ["--workload", "nope"]])
def test_bad_arguments_rejected(bench_ab, flag):
    argv = [str(ROOT), str(ROOT), "--workload", "qps-ineq",
            "--commits", "aaa", "bbb"]
    assert bench_ab.parse_args(argv).rounds == 20
    with pytest.raises(SystemExit):
        bench_ab.parse_args(argv + flag)


def test_checkout_without_the_package_rejected(bench_ab, tmp_path, capsys):
    with pytest.raises(SystemExit):
        bench_ab.parse_args([str(tmp_path), str(ROOT), "--workload",
                             "qps-ineq", "--commits", "aaa", "bbb"])
    assert "no src/pbalm" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["bp-dense", "qp-suite", "qps-ineq"])
def test_one_round_on_one_checkout(bench_ab, workload):
    rec = bench_ab.compare(ROOT, ROOT, workload, rounds=1, small=True)
    assert rec["rounds"] == 1 and rec["operations"] > 0
    assert rec["op_digest_identical"]
    assert rec["parent"]["failed"] == rec["change"]["failed"] == 0
    assert len(rec["ratio_change_over_parent"]["runs"]) == 1
