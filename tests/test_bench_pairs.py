"""tools/bench_pairs.py: pair order, seeds and the record's summaries,
with the benchmark runs replaced by canned results."""

import json
import os
import subprocess
from types import SimpleNamespace

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import bench_pairs

    return bench_pairs


def test_pairs_alternate_and_summarise(bench_pairs, monkeypatch):
    calls = []
    solve = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [0.5, 2.5, 1.0, 1.0]}

    def fake_run(checkout, workload, seed, seconds):
        side = str(checkout)
        k = sum(c[0] == side for c in calls)
        calls.append((side, seed))
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            "solve_s": {"value": solve[side][k], "unit": "s"},
            "outer_iters": {"value": 7, "unit": "count"},
            "grad_evals": {"value": 70, "unit": "count"}}}

    monkeypatch.setattr(bench_pairs, "bench_run", fake_run)
    args = SimpleNamespace(parent="parent", change="change", pairs=4,
                           seed_base=100, seconds=1.0)
    rec = bench_pairs.compare(args, "qps-ineq")
    # The side that runs first switches each pair; both use the pair's seed.
    assert calls == [("parent", 101), ("change", 101), ("change", 102),
                     ("parent", 102), ("parent", 103), ("change", 103),
                     ("change", 104), ("parent", 104)]
    assert rec["seeds"] == [101, 102, 103, 104]
    assert rec["parent_first_in_pairs"] == [1, 3]
    assert rec["parent"]["solve_s"] == {
        "median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [1.0, 2.0, 3.0, 4.0]}
    assert rec["change"]["solve_s"]["median"] == 1.0
    assert rec["change_lower_in_pairs"] == {
        "solve_s": "3/4", "outer_iters": "0/4", "grad_evals": "0/4"}
    assert rec["change"]["counts_outer_iters/grad_evals"] == ["7/70"]
    assert rec["change"]["correct_all"] is True
    assert rec["change"]["failed"] == [0, 0, 0, 0]


@pytest.mark.parametrize("flag", [["--pairs", "0"], ["--seconds", "0"],
                                  ["--seed-base", "-1"]])
def test_bad_arguments_rejected(bench_pairs, flag, tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").touch()
    argv = [str(tmp_path), str(tmp_path), "--out", str(tmp_path / "b.json"),
            "--commits", "aaa", "bbb"]
    assert bench_pairs.parse_args(argv).pairs == 10
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(argv + flag)


def _checkout(path, git=False):
    (path / "bench").mkdir(parents=True)
    (path / "bench" / "run.py").touch()
    if git:
        subprocess.run(["git", "init", "-q", str(path)], check=True)
        subprocess.run(["git", "-C", str(path), "-c", "user.name=t", "-c",
                        "user.email=t@t", "commit", "-q", "--allow-empty",
                        "-m", "c"], check=True)
    return str(path)


def test_commits_read_from_work_trees(bench_pairs, tmp_path):
    a = _checkout(tmp_path / "a", git=True)
    b = _checkout(tmp_path / "b", git=True)
    head = [subprocess.run(["git", "-C", d, "rev-parse", "--short", "HEAD"],
                           capture_output=True, text=True).stdout.strip()
            for d in (a, b)]
    args = bench_pairs.parse_args([a, b, "--out", str(tmp_path / "o.json")])
    assert args.commits == head


@pytest.mark.parametrize("where", ["archive", "inside-a-repo"])
def test_checkout_without_its_own_commit_rejected(bench_pairs, tmp_path,
                                                  capsys, where):
    # An archive, alone or unpacked inside another work tree, names no
    # commit, so without --commits the record would carry null or the
    # enclosing repository's HEAD.
    good = _checkout(tmp_path / "good", git=True)
    if where == "archive":
        bad = _checkout(tmp_path / "archive")
    else:
        bad = _checkout(tmp_path / "good" / "archive")
    for argv in ([good, bad], [bad, good]):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(argv + ["--out", str(tmp_path / "o.json")])
        assert "not a git work tree" in capsys.readouterr().err
    args = bench_pairs.parse_args([bad, good, "--out", str(tmp_path / "o.json"),
                                   "--commits", "abc1234", "def5678"])
    assert args.commits == ["abc1234", "def5678"]


def test_record_names_both_commits(bench_pairs, tmp_path, monkeypatch):
    d = _checkout(tmp_path / "c")
    out = tmp_path / "o.json"
    monkeypatch.setattr(bench_pairs, "op_digest", lambda checkout: None)
    monkeypatch.setattr(bench_pairs, "compare", lambda args, w: {"pairs": 1})
    assert bench_pairs.main([d, d, "--out", str(out), "--workloads", "qp-suite",
                             "--commits", "abc1234", "def5678"]) == 0
    rec = json.loads(out.read_text())
    assert (rec["parent_commit"], rec["change_commit"]) == ("abc1234", "def5678")
    assert rec["workloads"] == {"qp-suite": {"pairs": 1}}
