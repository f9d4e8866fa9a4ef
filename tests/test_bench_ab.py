"""tools/bench_ab.py: the ratio summary on made-up timings, its argument
checks, the order of set-ups and solves in a round, and one round of each
warm-up sized workload on one checkout."""

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
    assert len(rec["setup_ratio_change_over_parent"]["runs"]) == 1
    assert rec["parent"]["setup_cpu_s"]["median"] > 0
    assert rec["change"]["setup_cpu_s"]["median"] > 0


def test_each_round_times_one_setup_per_side(bench_ab, monkeypatch):
    # A stand-in worker logs what it is asked for; set-ups take 2 s on the
    # parent and 1 s on the change, solves 1 s each.
    log = []

    class FakeWorker:
        def __init__(self, checkout, workload, small):
            self.side, self.names = checkout.name, ["a", "b"]

        def run(self, i):
            log.append((self.side, i))
            slow = i == "setup" and self.side == "parent"
            return {"s": 2.0 if slow else 1.0, "ok": True, "digest": "d"}

        def close(self):
            pass

    monkeypatch.setattr(bench_ab, "Worker", FakeWorker)
    rec = bench_ab.compare(Path("parent"), Path("change"), "qps-ineq",
                           rounds=3)
    setups = [side for side, i in log if i == "setup"]
    assert setups == ["parent", "change", "change", "parent",
                      "parent", "change"]
    assert len(log) == 3 * (2 + 2 * 2)
    assert rec["setup_ratio_change_over_parent"]["runs"] == [0.5] * 3
    assert rec["ratio_change_over_parent"]["runs"] == [1.0] * 3
