"""Round trip QpData -> QPS text -> parse_qps, as a property.

``write_qps`` is a small writer for the tests only. It covers the fixed
layout (fields at the MPS columns 2, 5, 15, 25, 40 and 50) and the free
form, QUADOBJ and QMATRIX, RANGES on L, G and E rows, every bound type
(PL as a redundant record on each column with no upper bound), and
Fortran ``D``/``d`` exponents. The generated QpData are in
the parser's canonical form: A's entries column by column, Q's lower
triangle sorted, and row ranges on a dyadic grid, so that RANGES
arithmetic is exact.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from pbalm.qps import QpData, SparseTriplets, parse_qps

INF = np.inf


def _number(v: float, fixed: bool, exponent: str) -> str:
    if not exponent:
        return repr(float(v))
    if fixed:  # shortest form that reads back exactly, to fit 12 columns
        text = np.format_float_scientific(v, unique=True, exp_digits=2)
    else:
        text = format(v, ".17E")
    return text.upper().replace("E", exponent)


def _line(fields, fixed: bool) -> str:
    if not fixed:
        return " " + " ".join(f for f in fields if f)
    widths = (2, 8, 8, 12, 8, 12)   # fields at columns 2, 5, 15, 25, 40, 50
    gaps = (" ", " ", "  ", "  ", "   ", "  ")
    fields = list(fields) + [""] * (6 - len(fields))
    return "".join(gap + f.ljust(w)
                   for gap, f, w in zip(gaps, fields, widths)).rstrip()


def _row_records(lo: float, up: float, how: int):
    """(sense, rhs, range or None) that give the row bounds [lo, up]."""
    if lo == up:
        return "E", lo, None
    if lo == -INF:
        return "L", up, None
    if up == INF:
        return "G", lo, None
    r = up - lo
    return [("L", up, r), ("G", lo, -r), ("E", lo, r), ("E", up, -r)][how]


def _bound_records(lo: float, up: float):
    if lo == up:
        return [("FX", lo)]
    if (lo, up) == (-INF, INF):
        return [("FR", None)]
    out = []
    if lo == -INF:
        out.append(("MI", None))
    elif lo != 0.0:
        out.append(("LO", lo))
    out.append(("UP", up) if up != INF else ("PL", None))
    return out


def write_qps(qp: QpData, fixed: bool, exponent: str, quad: str,
              range_how) -> str:
    """QPS text of ``qp``. ``exponent`` is "", "D" or "d"; ``quad`` is
    "QUADOBJ" or "QMATRIX"; ``range_how[i]`` picks one of the four
    RANGES encodings of a two-sided row i."""
    num = lambda v: _number(v, fixed, exponent)  # noqa: E731
    line = lambda *fields: _line(fields, fixed)  # noqa: E731
    cols = [f"C{j}" for j in range(qp.n)]
    rows = [f"R{i}" for i in range(qp.m_rows)]
    records = [_row_records(lo, up, how) for lo, up, how
               in zip(qp.row_lower, qp.row_upper, range_how)]

    out = [f"NAME          {qp.name}", "ROWS", line("N", "OBJ")]
    out += [line(sense, name) for name, (sense, _, _) in zip(rows, records)]
    out.append("COLUMNS")
    by_col = [[] for _ in cols]
    for i, j, v in qp.A.entries:
        by_col[j].append((rows[i], v))
    for j, name in enumerate(cols):
        pairs = [("OBJ", qp.q[j])] + by_col[j]
        for k in range(0, len(pairs), 2):  # two (row, value) pairs a line
            fields = ["", name]
            for rname, v in pairs[k:k + 2]:
                fields += [rname, num(v)]
            out.append(line(*fields))
    out.append("RHS")
    rhs = [("OBJ", -qp.c)] if qp.c else []
    rhs += [(name, b) for name, (_, b, _) in zip(rows, records) if b]
    out += [line("", "RHS", rname, num(v)) for rname, v in rhs]
    ranges = [(name, r) for name, (_, _, r) in zip(rows, records)
              if r is not None]
    if ranges:
        out.append("RANGES")
        out += [line("", "RNG", rname, num(r)) for rname, r in ranges]
    bounds = [(kind, name, v) for name, lo, up
              in zip(cols, qp.var_lower, qp.var_upper)
              for kind, v in _bound_records(lo, up)]
    if bounds:
        out.append("BOUNDS")
        out += [line(kind, "BND", name, *([num(v)] if v is not None else []))
                for kind, name, v in bounds]
    if qp.Q.entries:
        out.append(quad)
        for i, j, v in qp.Q.entries:
            out.append(line("", cols[j], cols[i], num(v)))
            if quad == "QMATRIX" and i != j:
                out.append(line("", cols[i], cols[j], num(v)))
    out.append("ENDATA")
    return "\n".join(out) + "\n"


@st.composite
def qps_cases(draw, fixed: bool):
    # The fixed layout holds 12 characters a number; values on the grid
    # i/4 with |i| <= 4000 fit in any of the writer's forms.
    grid = st.integers(-4000, 4000).map(lambda i: i / 4.0)
    if fixed:
        value = grid
    else:
        value = st.floats(-1e300, 1e300, allow_nan=False)
        grid = st.integers(-2**40, 2**40).map(lambda i: i / 64.0)
    n = draw(st.integers(1, 6))
    m = draw(st.integers(0, 5))

    a = draw(st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                             value, max_size=2 * n)) if m else {}
    q = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                             .map(lambda ij: (max(ij), min(ij))),
                             value, max_size=2 * n))

    row_lower, row_upper = [], []
    for _ in range(m):
        lo, up = sorted(draw(st.lists(grid, min_size=2, max_size=2)))
        kind = draw(st.sampled_from(["E", "L", "G", "range"]))
        lo, up = {"E": (lo, lo), "L": (-INF, up), "G": (lo, INF),
                  "range": (lo, up)}[kind]
        row_lower.append(lo)
        row_upper.append(up)

    var_lower, var_upper = [], []
    for _ in range(n):
        lo, up = sorted(draw(st.lists(value, min_size=2, max_size=2)))
        kind = draw(st.sampled_from(
            ["default", "free", "lower", "upper", "both", "fixed", "minus"]))
        lo, up = {"default": (0.0, INF), "free": (-INF, INF),
                  "lower": (lo, INF), "upper": (0.0, abs(up)),
                  "both": (lo, up), "fixed": (lo, lo),
                  "minus": (-INF, up)}[kind]
        var_lower.append(lo)
        var_upper.append(up)

    qp = QpData(
        name=draw(st.text("ABCXYZ0123456789", min_size=1, max_size=8)),
        n=n,
        m_rows=m,
        Q=SparseTriplets(n, n, [(i, j, v) for (i, j), v in sorted(q.items())]),
        q=np.array(draw(st.lists(value, min_size=n, max_size=n))),
        c=draw(value),
        A=SparseTriplets(m, n, [(i, j, v) for (i, j), v
                                in sorted(a.items(), key=lambda e: e[0][::-1])]),
        row_lower=np.array(row_lower),
        row_upper=np.array(row_upper),
        var_lower=np.array(var_lower),
        var_upper=np.array(var_upper),
    )
    writer = dict(
        fixed=fixed,
        exponent=draw(st.sampled_from(["", "D", "d"])),
        quad=draw(st.sampled_from(["QUADOBJ", "QMATRIX"])),
        range_how=draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
    )
    return qp, writer


def assert_same(parsed: QpData, qp: QpData) -> None:
    assert (parsed.name, parsed.n, parsed.m_rows) == (qp.name, qp.n, qp.m_rows)
    for field in ("Q", "A"):
        a, b = getattr(parsed, field), getattr(qp, field)
        assert (a.nrows, a.ncols, a.entries) == (b.nrows, b.ncols, b.entries), field
    assert parsed.c == qp.c
    for field in ("q", "row_lower", "row_upper", "var_lower", "var_upper"):
        np.testing.assert_array_equal(getattr(parsed, field),
                                      getattr(qp, field), err_msg=field)


@settings(deadline=None, max_examples=60)
@given(qps_cases(fixed=True))
def test_fixed_form_round_trip(case):
    qp, writer = case
    assert_same(parse_qps(write_qps(qp, **writer)), qp)


@settings(deadline=None, max_examples=60)
@given(qps_cases(fixed=False))
def test_free_form_round_trip(case):
    qp, writer = case
    assert_same(parse_qps(write_qps(qp, **writer)), qp)


def test_writer_layouts():
    """The writer's output in each form, for one small QP."""
    qp = QpData(
        name="T", n=2, m_rows=1,
        Q=SparseTriplets(2, 2, [(1, 0, 0.5)]), q=np.array([1.0, -2.0]),
        c=3.0, A=SparseTriplets(1, 2, [(0, 1, 4.0)]),
        row_lower=np.array([1.0]), row_upper=np.array([2.5]),
        var_lower=np.array([0.0, -INF]), var_upper=np.array([INF, 8.0]))
    fixed = write_qps(qp, fixed=True, exponent="D", quad="QMATRIX",
                      range_how=[0])
    assert fixed.splitlines()[5:9] == [
        "    C0        OBJ       1.D+00",
        "    C1        OBJ       -2.D+00        R0        4.D+00",
        "RHS",
        "    RHS       OBJ       -3.D+00",
    ]
    free = write_qps(qp, fixed=False, exponent="", quad="QUADOBJ",
                     range_how=[3])
    assert " RNG R0 -1.5" in free.splitlines()
    assert " C0 C1 0.5" in free.splitlines()
    for text in (fixed, free):
        assert_same(parse_qps(text), qp)
