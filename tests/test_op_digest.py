"""tools/op_digest.py: the digest tells apart every difference a
bit-identity claim rests on, and repeats on a repeated solve."""

import dataclasses
import os

import numpy as np
import pytest

from pbalm.outer import OuterConfig, run
from pbalm.problem_gen import make_random_eq_qp, qp_problem

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")


@pytest.fixture
def digest(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import op_digest

    return op_digest.digest


def test_signed_zeros_differ(digest):
    assert digest(0.0) != digest(-0.0)
    assert digest(np.array([0.0])) != digest(np.array([-0.0]))


def test_one_ulp_differs(digest):
    up = np.nextafter(1.0, 2.0)
    assert digest(1.0) != digest(float(up))
    assert digest(np.array([1.0, 2.0])) != digest(np.array([up, 2.0]))


def test_bool_and_int_differ(digest):
    assert digest(True) != digest(1)
    assert digest(np.bool_(False)) != digest(np.int64(0))


def test_renamed_dataclass_field_differs(digest):
    def record(name):
        return dataclasses.make_dataclass("Record", [(name, float)])(1.0)

    assert digest(record("a")) == digest(record("a"))
    assert digest(record("a")) != digest(record("b"))


@pytest.mark.parametrize("obj", [{"a": 1.0}, {1.0}, object()],
                         ids=["dict", "set", "object"])
def test_unsupported_type_raises(digest, obj):
    with pytest.raises(TypeError, match="cannot digest"):
        digest([1.0, obj])


def test_repeated_solve_has_one_digest(digest):
    qp = make_random_eq_qp(6, 2, seed=0)
    prob, x0 = qp_problem(qp), qp.feasible_point(np.random.default_rng(0))
    first, again = (run(prob, x0, OuterConfig()) for _ in range(2))
    assert first.trace and first.diagnostics
    assert digest(first) == digest(again)
    other = run(prob, x0, OuterConfig(seed=1))
    assert digest(first) != digest(other)
