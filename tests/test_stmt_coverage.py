"""tools/stmt_coverage.py: a branch never taken is listed, and the
statements that execute no line of their own are not."""

import importlib.util
import os
import sys
import textwrap

import pytest

TOOLS = os.path.join(os.path.dirname(__file__), "..", "tools")

MODULE = textwrap.dedent('''\
    """Docstring."""
    import math

    COUNT = 0


    def sign(x):
        """Docstring."""
        global COUNT
        COUNT += 1
        if x >= 0:
            return 1.0
        else:
            return math.copysign(1.0, x)


    def counter():
        n = 0

        def bump():
            nonlocal n
            n += 1
            return n

        return bump
''')
UNTAKEN = 14  # the else branch's return


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    import stmt_coverage

    return stmt_coverage


def run_module(tool, tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE)
    with tool.traced(tmp_path) as lines:
        spec = importlib.util.spec_from_file_location("mod", path)
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert mod.sign(2.0) == 1.0
        assert mod.counter()() == 1
    return path, lines


def test_lists_only_the_branch_never_taken(tool, tmp_path):
    path, lines = run_module(tool, tmp_path)
    assert MODULE.splitlines()[UNTAKEN - 1].strip().startswith("return math")
    executed = lines[os.path.realpath(path)]
    assert tool.never_run(MODULE, executed) == [UNTAKEN]


def test_nothing_run_lists_every_executable_statement(tool):
    # Nine statements: the assignments, the if and the returns; no def,
    # import, docstring or declaration among them.
    assert tool.never_run(MODULE, set()) == [4, 10, 11, 12, 14, 18, 22, 23,
                                             25]


def test_report_names_the_module_and_counts(tool, tmp_path):
    path, lines = run_module(tool, tmp_path)
    out = tool.report(tmp_path, lines)
    assert len(out) == 2
    assert out[0].endswith(f"mod.py: {UNTAKEN}")
    assert out[1] == "1 of 9 statements never ran"


def test_previous_trace_function_restored(tool, tmp_path):
    before = sys.gettrace()
    with tool.traced(tmp_path):
        assert sys.gettrace() is not before
    assert sys.gettrace() is before
