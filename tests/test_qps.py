import dataclasses
import os
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from pbalm.qps import (
    CrossedBoundsError,
    DuplicateFixedBoundConflictError,
    InfeasibleRowError,
    MalformedNumericFieldError,
    MissingSectionError,
    MixedQuadSectionsError,
    QpData,
    QpsParseError,
    SparseTriplets,
    UndeclaredRowOrColumnError,
    UnknownRowSenseError,
    parse_qps,
    parse_qps_file,
    qp_to_problem,
)
from pbalm import problem, qps
from pbalm.outer import OuterConfig, SolveStatus, run
from conftest import fd_grad, rel_err

HERE = os.path.dirname(__file__)
MALFORMED = os.path.join(HERE, "data", "malformed")
FIXTURES = os.path.join(HERE, "..", "src", "pbalm", "fixtures")

INF = np.inf


def fixture(name):
    return os.path.join(FIXTURES, name)


def to_csr(t):
    """``t`` as a scipy.sparse CSR matrix, duplicate (row, col) entries
    summed: the reference the assembled maps are checked against."""
    r, c, v = zip(*t.entries) if t.entries else ((), (), ())
    return sp.coo_matrix((np.array(v, dtype=float),
                          (np.array(r, dtype=np.int64),
                           np.array(c, dtype=np.int64))),
                         shape=(t.nrows, t.ncols)).tocsr()


class TestTinyEqFixture:
    def test_round_trip_objective(self):
        qp = parse_qps_file(fixture("tiny_eq.qps"))
        prob = qp_to_problem(qp)
        # f1(1, 1) = x1^2 + x2^2 = 2
        assert abs(prob.f1(np.array([1.0, 1.0])) - 2.0) <= 1e-12

    def test_equality_row_doubles_by_default(self):
        qp = parse_qps_file(fixture("tiny_eq.qps"))
        prob = qp_to_problem(qp)
        assert prob.p == 0
        assert prob.m == 2
        x = np.array([1.5, 0.5])  # on the constraint
        np.testing.assert_allclose(prob.g(x), [0.0, 0.0], atol=1e-12)


class TestTinyBoxFixture:
    def test_round_trip_objective(self):
        qp = parse_qps_file(fixture("tiny_box.qps"))
        prob = qp_to_problem(qp)
        # Q_full = [[2,1,0],[1,2,1],[0,1,2]], q = (-1,-2,1), c = 3 at
        # x = (1, 0.5, 1): 3.25 - 1 + 3 = 5.25
        assert abs(prob.f1(np.array([1.0, 0.5, 1.0])) - 5.25) <= 1e-12

    def test_assembled_gradient_matches_fd(self):
        qp = parse_qps_file(fixture("tiny_box.qps"))
        prob = qp_to_problem(qp)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3)
        assert rel_err(prob.grad_f1(x), fd_grad(prob.f1, x)) <= 1e-5

    def test_inequality_stacking(self):
        qp = parse_qps_file(fixture("tiny_box.qps"))
        prob = qp_to_problem(qp)
        # one finite upper (R1) and one finite lower (R2)
        assert prob.m == 2
        x = np.array([1.0, 1.0, 1.0])
        # [A_up x - u; l - A_lo x] = [1+2+1-4; 0.5-(1+1)] = [0, -1.5]
        np.testing.assert_allclose(prob.g(x), [0.0, -1.5])


class TestFormatDetails:
    def test_default_bounds_without_bounds_section(self):
        qp = parse_qps(
            "NAME T\n"
            "ROWS\n N  OBJ\n L  R1\n"
            "COLUMNS\n    X1        OBJ       1.0       R1        1.0\n"
            "RHS\n    RHS       R1        3.0\n"
            "ENDATA\n"
        )
        np.testing.assert_array_equal(qp.var_lower, [0.0])
        np.testing.assert_array_equal(qp.var_upper, [INF])

    def test_fortran_exponent(self):
        qp = parse_qps(
            "NAME T\n"
            "ROWS\n N  OBJ\n L  R1\n"
            "COLUMNS\n    X1        OBJ       -2.0D+00  R1        1.5d-01\n"
            "RHS\nENDATA\n"
        )
        np.testing.assert_array_equal(qp.q, [-2.0])
        assert qp.A.entries == [(0, 0, 0.15)]

    def test_ranges_on_l_row(self):
        qp = parse_qps(
            "NAME T\n"
            "ROWS\n N  OBJ\n L  R1\n"
            "COLUMNS\n    X1        OBJ       1.0       R1        1.0\n"
            "RHS\n    RHS       R1        4.0\n"
            "RANGES\n    RNG       R1        1.0\n"
            "ENDATA\n"
        )
        np.testing.assert_array_equal(qp.row_lower, [3.0])
        np.testing.assert_array_equal(qp.row_upper, [4.0])

    def test_ranges_on_g_and_e_rows(self):
        qp = parse_qps(
            "NAME T\n"
            "ROWS\n N  OBJ\n G  R1\n E  R2\n"
            "COLUMNS\n"
            "    X1        OBJ       1.0       R1        1.0\n"
            "    X1        R2        1.0\n"
            "RHS\n    RHS       R1        1.0       R2        2.0\n"
            "RANGES\n    RNG       R1        2.0       R2        0.5\n"
            "ENDATA\n"
        )
        np.testing.assert_array_equal(qp.row_lower, [1.0, 2.0])
        np.testing.assert_array_equal(qp.row_upper, [3.0, 2.5])

    def test_qmatrix_taken_as_given(self):
        qp = parse_qps(
            "NAME T\n"
            "ROWS\n N  OBJ\n"
            "COLUMNS\n"
            "    X1        OBJ       0.0\n"
            "    X2        OBJ       0.0\n"
            "RHS\n"
            "QMATRIX\n"
            "    X1        X1        2.0\n"
            "    X1        X2        1.0\n"
            "    X2        X1        1.0\n"
            "    X2        X2        2.0\n"
            "ENDATA\n"
        )
        # full matrix given; stored lower triangle averages the pair
        assert qp.Q.entries == [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 2.0)]

    def test_qmatrix_entries_in_quadobj_order(self):
        head = (
            "NAME T\n"
            "ROWS\n N  OBJ\n"
            "COLUMNS\n"
            "    X1        OBJ       0.0\n"
            "    X2        OBJ       0.0\n"
            "    X3        OBJ       0.0\n"
        )
        qmatrix = parse_qps(
            head + "QMATRIX\n"
            "    X1        X3        1.0\n"
            "    X2        X2        4.0\n"
            "    X3        X1        3.0\n"
            "ENDATA\n"
        )
        quadobj = parse_qps(
            head + "QUADOBJ\n"
            "    X3        X1        2.0\n"
            "    X2        X2        4.0\n"
            "ENDATA\n"
        )
        assert qmatrix.Q.entries == [(1, 1, 4.0), (2, 0, 2.0)]
        assert qmatrix.Q.entries == quadobj.Q.entries

    def test_quadobj_offdiag_counted_once(self):
        qp = parse_qps(
            "NAME T\n"
            "ROWS\n N  OBJ\n"
            "COLUMNS\n"
            "    X1        OBJ       0.0\n"
            "    X2        OBJ       0.0\n"
            "RHS\n"
            "QUADOBJ\n"
            "    X1        X2        1.0\n"
            "ENDATA\n"
        )
        assert qp.Q.entries == [(1, 0, 1.0)]
        prob = qp_to_problem(qp)
        # Q_full = [[0,1],[1,0]]; f1(1,1) = 1/2 * 2 = 1
        assert prob.f1(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_comment_and_blank_lines_ignored(self):
        qp = parse_qps(
            "* leading comment\n"
            "NAME T\n\n"
            "ROWS\n* inline comment\n N  OBJ\n E  R1\n"
            "COLUMNS\n    X1        OBJ       1.0       R1        1.0\n"
            "RHS\n    RHS       R1        2.0\n"
            "ENDATA\n"
        )
        assert qp.n == 1
        np.testing.assert_array_equal(qp.row_lower, [2.0])

    def test_integer_markers_ignored(self):
        body = ("    X1        OBJ       1.0       R1        1.0\n"
                "    X2        R1        2.0\n")
        markers = ("    M1        'MARKER'                 'INTORG'\n"
                   + body + "    M2        'MARKER'                 'INTEND'\n")
        texts = ["NAME T\nROWS\n N  OBJ\n L  R1\nCOLUMNS\n" + cols
                 + "RHS\n    RHS       R1        4.0\nENDATA\n"
                 for cols in (markers, body)]
        marked, plain = (parse_qps(t) for t in texts)
        assert marked.n == 2
        for f in dataclasses.fields(plain):
            a, b = getattr(marked, f.name), getattr(plain, f.name)
            if isinstance(b, np.ndarray):
                np.testing.assert_array_equal(a, b)
            else:
                assert a == b, f.name

    def test_free_row_contributes_nothing(self):
        qp = parse_qps(
            "NAME T\n"
            "ROWS\n N  OBJ\n N  FREEROW\n L  R1\n"
            "COLUMNS\n"
            "    X1        OBJ       1.0       FREEROW   5.0\n"
            "    X1        R1        1.0\n"
            "RHS\n    RHS       R1        4.0\n"
            "ENDATA\n"
        )
        assert qp.m_rows == 1
        prob = qp_to_problem(qp)
        assert prob.m == 1

    def test_rhs_and_ranges_on_free_row_ignored(self):
        qp = parse_qps(
            "NAME T\n"
            "ROWS\n N  OBJ\n N  FREEROW\n L  R1\n"
            "COLUMNS\n"
            "    X1        OBJ       1.0       FREEROW   5.0\n"
            "    X1        R1        1.0\n"
            "RHS\n    RHS       OBJ       2.0       FREEROW   7.0\n"
            "    RHS       R1        4.0\n"
            "RANGES\n    RNG       FREEROW   1.0       R1        1.0\n"
            "ENDATA\n"
        )
        assert qp.m_rows == 1
        assert qp.c == -2.0
        np.testing.assert_array_equal(qp.row_lower, [3.0])
        np.testing.assert_array_equal(qp.row_upper, [4.0])

    def test_duplicate_row_rejected_at_its_line(self):
        text = ("NAME T\n"
                "ROWS\n E  C1\n L  C1\n G  C2\n"
                "COLUMNS\n    X1        C1        1.0       C2        2.0\n"
                "ENDATA\n")
        with pytest.raises(QpsParseError, match="duplicate row 'C1'") as err:
            parse_qps(text)
        assert err.value.line_no == 4

    def test_sparse_triplets_sum_duplicates(self):
        t = SparseTriplets(nrows=2, ncols=2,
                           entries=[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)])
        m = to_csr(t)
        assert m[0, 0] == 3.0
        assert m[1, 1] == 5.0


def _bounds_qps(records):
    """One column X1 (lines 1-5), then a BOUNDS section whose records start
    on line 7."""
    return ("NAME T\nROWS\n N  OBJ\n"
            "COLUMNS\n    X1        OBJ       1.0\n"
            "BOUNDS\n" + "".join(f" {r}\n" for r in records) + "ENDATA\n")


class TestBounds:
    def test_records_checked_after_the_section(self):
        qp = parse_qps(_bounds_qps(["UP BND X1 -1", "LO BND X1 -2"]))
        np.testing.assert_array_equal(qp.var_lower, [-2.0])
        np.testing.assert_array_equal(qp.var_upper, [-1.0])

    def test_crossed_reported_at_columns_last_record(self):
        with pytest.raises(CrossedBoundsError) as info:
            parse_qps(_bounds_qps(["LO BND X1 2", "UP BND X1 1",
                                   "LO BND X1 3"]))
        assert info.value.line_no == 9

    def test_negative_up_without_lower_record_frees_lower(self):
        with pytest.warns(UserWarning, match="line 7"):
            qp = parse_qps(_bounds_qps(["UP BND X1 -1"]))
        np.testing.assert_array_equal(qp.var_lower, [-INF])
        np.testing.assert_array_equal(qp.var_upper, [-1.0])

    def test_negative_up_keeps_a_recorded_lower(self):
        with pytest.raises(CrossedBoundsError) as info:
            parse_qps(_bounds_qps(["UP BND X1 -1", "LO BND X1 0"]))
        assert info.value.line_no == 8

    @pytest.mark.parametrize("records", [["PL BND X1"],
                                         ["UP BND X1 -1", "PL BND X1"]],
                             ids=["alone", "after-negative-up"])
    def test_pl_sets_only_the_upper_bound(self, records):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qp = parse_qps(_bounds_qps(records))
        np.testing.assert_array_equal(qp.var_lower, [0.0])
        np.testing.assert_array_equal(qp.var_upper, [INF])

    def test_pl_is_not_a_lower_bound_record(self):
        with pytest.warns(UserWarning, match="line 8"):
            qp = parse_qps(_bounds_qps(["PL BND X1", "UP BND X1 -1"]))
        np.testing.assert_array_equal(qp.var_lower, [-INF])
        np.testing.assert_array_equal(qp.var_upper, [-1.0])


def _numeric_qps(col="1.0", rhs="4.0", rng="1.0", bnd="2.0", sense="L"):
    """One row over one column, with one numeric field in each of COLUMNS
    (line 6), RHS (line 8), RANGES (line 10) and BOUNDS (line 12)."""
    return (f"NAME T\nROWS\n N  OBJ\n {sense}  R1\n"
            f"COLUMNS\n    X1        OBJ       1.0       R1        {col}\n"
            f"RHS\n    RHS       R1        {rhs}\n"
            f"RANGES\n    RNG       R1        {rng}\n"
            f"BOUNDS\n UP BND       X1        {bnd}\n"
            "ENDATA\n")


class TestNumericFields:
    @pytest.mark.parametrize("field,line", [("col", 6), ("rhs", 8),
                                            ("rng", 10), ("bnd", 12)])
    @pytest.mark.parametrize("token", ["nan", "NaN", "-nan"])
    def test_nan_rejected_at_its_line(self, field, line, token):
        # A NaN bound would otherwise read as "no bound" and drop the row.
        with pytest.raises(MalformedNumericFieldError) as info:
            parse_qps(_numeric_qps(**{field: token}))
        assert info.value.line_no == line

    @pytest.mark.parametrize("token", ["inf", "1e400", "1D+400"])
    def test_infinite_bound_is_unbounded(self, token):
        # An infinite range frees the L row's lower side.
        qp = parse_qps(_numeric_qps(rng=token, bnd=token))
        np.testing.assert_array_equal(qp.row_lower, [-INF])
        np.testing.assert_array_equal(qp.row_upper, [4.0])
        np.testing.assert_array_equal(qp.var_upper, [INF])
        assert qp_to_problem(qp).m == 1


    @pytest.mark.parametrize("token", ["inf", "-inf", "1e400"])
    def test_infinite_objective_constant_rejected_at_its_line(self, token):
        # Read as the constant -token, it would make f1 infinite everywhere.
        text = ("NAME T\nROWS\n N  OBJ\n L  R1\n"
                "COLUMNS\n    X1        OBJ       1.0       R1        1.0\n"
                f"RHS\n    RHS       R1        4.0       OBJ       {token}\n"
                "ENDATA\n")
        with pytest.raises(MalformedNumericFieldError) as info:
            parse_qps(text)
        assert info.value.line_no == 8

    @pytest.mark.parametrize("token", ["inf", "-inf", "1e400"])
    @pytest.mark.parametrize("row", ["OBJ", "R1"])
    def test_infinite_coefficient_rejected_at_its_line(self, row, token):
        # inf * 0 would make f1(0) (objective entry) or g(0) (constraint
        # entry) NaN.
        text = ("NAME T\nROWS\n N  OBJ\n L  R1\n"
                f"COLUMNS\n    X1        OBJ       1.0\n"
                f"    X1        {row}        {token}\n"
                "RHS\n    RHS       R1        4.0\nENDATA\n")
        with pytest.raises(MalformedNumericFieldError) as info:
            parse_qps(text)
        assert info.value.line_no == 7

    @pytest.mark.parametrize("token", ["inf", "-inf", "1e400"])
    @pytest.mark.parametrize("section", ["QUADOBJ", "QMATRIX"])
    def test_infinite_quadratic_entry_rejected_at_its_line(self, section,
                                                           token):
        # Q = [(0, 0, inf)] would make f1 NaN at the origin.
        text = ("NAME T\nROWS\n N  OBJ\n"
                "COLUMNS\n    X1        OBJ       1.0\n"
                f"{section}\n    X1        X1        {token}\nENDATA\n")
        with pytest.raises(MalformedNumericFieldError) as info:
            parse_qps(text)
        assert info.value.line_no == 7

    @pytest.mark.parametrize("row", ["OBJ", "R1"])
    def test_coefficients_summing_to_inf_rejected_at_the_line(self, row):
        # Each finite, the repeated entries summed to q = [inf] (objective)
        # or A = [(0, 0, inf)] (constraint), so f1(0) or g(0) was NaN.
        text = ("NAME T\nROWS\n N  OBJ\n L  R1\n"
                "COLUMNS\n    X1        OBJ       1.0       R1        1.0\n"
                + f"    X1        {row}        1e308\n" * 2
                + "RHS\n    RHS       R1        4.0\nENDATA\n")
        with pytest.raises(MalformedNumericFieldError) as info:
            parse_qps(text)
        assert info.value.line_no == 8

    @pytest.mark.parametrize("section,pair", [
        ("QUADOBJ", ("X1        X1", "X1        X1")),
        ("QUADOBJ", ("X2        X1", "X1        X2")),
        ("QMATRIX", ("X2        X1", "X2        X1"))],
        ids=["quadobj-diagonal", "quadobj-mirrored", "qmatrix-repeated"])
    def test_quadratic_entries_summing_to_inf_rejected_at_the_line(
            self, section, pair):
        # Each finite, the two entries made Q = [(.., .., inf)], so f1(0)
        # was NaN; QMATRIX's entry is the mean of (i, j) and (j, i), here
        # of inf and 0.
        text = ("NAME T\nROWS\n N  OBJ\n"
                "COLUMNS\n    X1        OBJ       1.0\n    X2        OBJ       1.0\n"
                f"{section}\n    {pair[0]}        1e308\n"
                f"    {pair[1]}        1e308\nENDATA\n")
        with pytest.raises(MalformedNumericFieldError) as info:
            parse_qps(text)
        assert info.value.line_no == 9

    @pytest.mark.parametrize("lines,entry", [
        (["X1        X1"], (0, 0, 1e308)),
        (["X1        X2", "X2        X1"], (1, 0, 1e308))],
        ids=["diagonal", "symmetric-pair"])
    def test_qmatrix_mean_near_the_largest_float_is_kept(self, lines, entry):
        # 0.5 * (Q_ij + Q_ji) overflowed above about 9e307 and raised
        # MalformedNumericFieldError at the last line, though the mean is
        # finite.
        text = ("NAME T\nROWS\n N  OBJ\n"
                "COLUMNS\n    X1        OBJ       1.0\n    X2        OBJ       1.0\n"
                "QMATRIX\n"
                + "".join(f"    {pair}        1e308\n" for pair in lines)
                + "ENDATA\n")
        assert parse_qps(text).Q.entries == [entry]

    def test_repeated_entries_summed_into_one(self):
        # The sum is checked as it runs, not each term's size: 1e308 -
        # 1e308 + 1e308 is finite at every step.
        qp = parse_qps(
            "NAME T\nROWS\n N  OBJ\n L  R1\n"
            "COLUMNS\n    X1        R1        1e308     OBJ       2.0\n"
            "    X2        R1        1.0\n"
            "    X1        R1        -1e308    R1        1e308\n"
            "    X1        OBJ       0.5\n"
            "RHS\n    RHS       R1        4.0\nENDATA\n")
        assert qp.A.entries == [(0, 0, 1e308), (0, 1, 1.0)]
        np.testing.assert_array_equal(qp.q, [2.5, 0.0])


class TestInfeasibleRows:
    @pytest.mark.parametrize("sense,rhs,rng,line", [
        ("G", "inf", "1.0", 8), ("E", "inf", "1.0", 8),
        ("L", "-inf", "1.0", 8), ("L", "inf", "inf", 10),
        ("G", "-inf", "inf", 10)],
        ids=["G-rhs-inf", "E-rhs-inf", "L-rhs-minus-inf", "L-nan-lower",
             "G-nan-upper"])
    def test_rejected_at_its_line(self, sense, rhs, rng, line):
        # Dropped as an unbounded row, it would make an infeasible
        # problem feasible; inf - inf would leave a NaN bound.
        with pytest.raises(InfeasibleRowError) as info:
            parse_qps(_numeric_qps(rhs=rhs, rng=rng, sense=sense))
        assert info.value.line_no == line

    @pytest.mark.parametrize("sense,rhs", [("G", "-inf"), ("L", "inf")])
    def test_vacuous_row_assembles_to_no_row(self, sense, rhs):
        qp = parse_qps(f"NAME T\nROWS\n N  OBJ\n {sense}  R1\n"
                       "COLUMNS\n    X1        OBJ       1.0       R1   1.0\n"
                       f"RHS\n    RHS       R1        {rhs}\nENDATA\n")
        prob = qp_to_problem(qp)
        assert (prob.m, prob.p) == (0, 0)


def _random_qp(n, lower, upper, seed=0):
    """A QpData with a random symmetric Q (lower triangle), q, c and A."""
    rng = np.random.default_rng(seed)
    rows = len(lower)
    Q = sp.tril(sp.random(n, n, density=0.2, random_state=seed), format="coo")
    A = sp.random(rows, n, density=0.3, random_state=seed + 1, format="coo")
    return QpData(
        name="random", n=n, m_rows=rows,
        Q=SparseTriplets(n, n, list(zip(Q.row, Q.col, Q.data))),
        q=rng.standard_normal(n), c=rng.standard_normal(),
        A=SparseTriplets(rows, n, list(zip(A.row, A.col, A.data))),
        row_lower=np.asarray(lower, float), row_upper=np.asarray(upper, float),
        var_lower=np.full(n, -INF), var_upper=np.full(n, INF),
    )


def _row_bounds(case, rows=24, seed=0):
    rng = np.random.default_rng(seed)
    if case == "no-rows":
        return np.zeros(0), np.zeros(0)
    lower = rng.standard_normal(rows)
    upper = lower + rng.uniform(0.1, 2.0, rows)
    if case == "no-lower":
        lower[:] = -INF
        return lower, upper
    if case in ("mixed", "pairs-and-zeros"):
        upper[:6] = lower[:6]      # equality rows
    lower[6:12] = -INF             # upper only
    upper[12:18] = INF             # lower only
    return lower, upper


def _pairs_and_zeros(t, lower, rng):
    """``t`` with every third entry repeated at a new value, one more
    entry repeated at its negation (a pair that sums to 0.0), one value
    set to 0.0, and explicit zeros at five unused positions (in the lower
    triangle if ``lower``), all in shuffled order.  No (row, col) appears
    more than twice, so each sum is of one pair, in either order."""
    entries = list(t.entries)
    taken = {(i, j) for i, j, _ in entries}
    extra = [(i, j, rng.standard_normal()) for i, j, _ in entries[::3]]
    i, j, v = entries[1]
    extra.append((i, j, -v))
    i, j, _ = entries[2]
    entries[2] = (i, j, 0.0)
    free = [(i, j) for i in range(t.nrows)
            for j in range(i + 1 if lower else t.ncols) if (i, j) not in taken]
    extra += [(i, j, 0.0) for i, j in free[:5]]
    entries += extra
    rng.shuffle(entries)
    return SparseTriplets(t.nrows, t.ncols, entries)


class TestAssembly:
    @pytest.mark.parametrize("case", ["mixed", "no-eq", "no-lower", "no-rows",
                                      "pairs-and-zeros"])
    def test_every_map_equals_its_product_form_bitwise(self, case):
        """The maps call scipy's compiled CSR/CSC kernels directly (from
        the _sparsetools extension file, which this test pins) on CSR
        arrays built with numpy; each must equal its form with scipy's
        ``@`` on ``to_csr``'s matrices bit for bit.  g, one stacked
        product, must equal the two-product form [A_up x - u; l - A_lo x],
        and J^T, from G = [A_up; -A_lo]'s two row blocks, must equal
        A_up^T y_up - A_lo^T y_lo.  An equality row is both an upper and
        a lower row, so there is no h.  The pairs-and-zeros case repeats
        (row, col) entries and stores explicit zeros in both Q and A."""
        n = 30
        lower, upper = _row_bounds(case)
        qp = _random_qp(n, lower, upper)
        if case == "pairs-and-zeros":
            rng = np.random.default_rng(2)
            qp.Q = _pairs_and_zeros(qp.Q, True, rng)
            qp.A = _pairs_and_zeros(qp.A, False, rng)
        prob = qp_to_problem(qp)
        Q_low = to_csr(qp.Q)
        Q = Q_low + Q_low.T - sp.diags(Q_low.diagonal())
        A = to_csr(qp.A)
        up = np.flatnonzero(np.isfinite(upper))
        lo = np.flatnonzero(np.isfinite(lower))
        assert (prob.p, prob.m) == (0, len(up) + len(lo))
        A_up, A_lo = A[up], A[lo]
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
            z = rng.standard_normal(prob.m)
            assert prob.f1(x) == (0.5 * float(x @ (Q @ x)) + float(qp.q @ x)
                                  + qp.c)
            assert np.array_equal(prob.grad_f1(x), Q @ x + qp.q)
            # Bytes, so that a zero's sign counts too.
            assert prob.g(x).tobytes() == np.concatenate(
                [A_up @ x - upper[up], lower[lo] - A_lo @ x]).tobytes()
            assert prob.jac_g_transpose_apply(x, z).tobytes() == (
                A_up.T @ z[:len(up)] - A_lo.T @ z[len(up):]).tobytes()

    @pytest.mark.parametrize("field,entry", [("A", (0, 30, 1.0)),
                                             ("A", (1, -1, 1.0)),
                                             ("Q", (30, 0, 1.0)),
                                             ("A", (24, 0, 1.0)),
                                             ("A", (-1, 0, 1.0))])
    def test_entry_outside_the_matrix_raises(self, field, entry):
        # scipy's COO conversion raised ValueError here.  Read as a flat
        # index, A's (0, 30) would be (1, 0) and (1, -1) would be (0, 29);
        # rows -1 and 24 lie outside A's 24 rows, from which G's are taken.
        qp = _random_qp(30, *_row_bounds("mixed"))
        assert qp.m_rows == 24
        getattr(qp, field).entries.append(entry)
        with pytest.raises(ValueError):
            qp_to_problem(qp)

    def test_kernel_loader_names_the_directory_it_searched(self, tmp_path):
        with pytest.raises(ImportError, match="no _sparsetools extension in "
                           + re.escape(str(tmp_path))):
            qps._load_sparsetools(str(tmp_path))

    def test_assembly_without_scipy_names_it(self, monkeypatch):
        find_spec = qps.importlib.util.find_spec
        monkeypatch.setattr(
            qps.importlib.util, "find_spec",
            lambda name, *a: None if name == "scipy" else find_spec(name, *a))
        qps._kernels.cache_clear()
        try:
            with pytest.raises(ImportError, match="needs scipy"):
                qp_to_problem(parse_qps_file(fixture("tiny_box.qps")))
        finally:
            qps._kernels.cache_clear()

    @pytest.mark.parametrize("case", ["mixed", "no-eq", "no-lower", "no-rows"])
    def test_wrong_length_raises(self, case):
        # The compiled kernel does not check lengths; each map must.
        n = 30
        lower, upper = _row_bounds(case)
        prob = qp_to_problem(_random_qp(n, lower, upper))
        x = np.ones(n)
        for bad in (np.ones(n - 1), np.ones(n + 1)):
            for f in (prob.f1, prob.grad_f1, prob.g):
                with pytest.raises(ValueError):
                    f(bad)
        m = prob.m
        for length in [m + 1] + [m - 1] * (m > 0):
            with pytest.raises(ValueError):
                prob.jac_g_transpose_apply(x, np.ones(length))


# max x1 over [0, 1] in the two OBJSENSE forms; the optimum is x1 = 1.
MAX_SECTION = (
    "NAME          MAXONE\n"
    "OBJSENSE\n    MAX\n"
    "ROWS\n N  OBJ\n"
    "COLUMNS\n    X1        OBJ       1.0\n"
    "BOUNDS\n UP BND       X1        1.0\n"
    "ENDATA\n"
)
MAX_ONE_LINE = MAX_SECTION.replace("OBJSENSE\n    MAX", "OBJSENSE MAX")


class TestObjsense:
    @pytest.mark.parametrize("text", [MAX_SECTION, MAX_ONE_LINE],
                             ids=["section", "one-line"])
    def test_max_reaches_upper_bound(self, text):
        prob = qp_to_problem(parse_qps(text))
        x0 = prob.prox_f2(np.zeros(1), 1.0)
        res = run(prob, x0, OuterConfig(delta=1.0))
        assert res.status is SolveStatus.EPS_KKT
        assert abs(res.x[0] - 1.0) <= 1e-6

    def test_max_negates_every_objective_term(self):
        body = (
            "ROWS\n N  OBJ\n L  R1\n"
            "COLUMNS\n    X1        OBJ       2.0       R1        1.0\n"
            "    X2        OBJ       -3.0      R1        1.0\n"
            "RHS\n    RHS       OBJ       5.0       R1        4.0\n"
            "QUADOBJ\n    X1        X1        1.0\n    X2        X1        0.5\n"
            "ENDATA\n"
        )
        base = parse_qps("NAME T\n" + body)
        for sense in ("MAX", "MAXIMIZE", "max"):
            for header in (f"OBJSENSE\n    {sense}\n", f"OBJSENSE {sense}\n"):
                qp = parse_qps("NAME T\n" + header + body)
                np.testing.assert_array_equal(qp.q, -base.q)
                assert qp.Q.entries == [(i, j, -v) for i, j, v in base.Q.entries]
                assert qp.c == -base.c
                assert qp.A.entries == base.A.entries
                np.testing.assert_array_equal(qp.row_upper, base.row_upper)
        for sense in ("MIN", "MINIMIZE"):
            qp = parse_qps(f"NAME T\nOBJSENSE\n    {sense}\n" + body)
            np.testing.assert_array_equal(qp.q, base.q)
            assert qp.Q.entries == base.Q.entries
            assert qp.c == base.c

    @pytest.mark.parametrize("header,line", [("OBJSENSE\n    UP\n", 3),
                                             ("OBJSENSE UP\n", 2)])
    def test_unknown_sense_has_line_number(self, header, line):
        with pytest.raises(QpsParseError) as info:
            parse_qps("NAME T\n" + header + "ROWS\n N  OBJ\nCOLUMNS\nENDATA\n")
        assert info.value.line_no == line


# One column over an objective row and an L row (lines 1-6); each case
# appends its sections from line 7 on.
_HEAD = ("NAME T\nROWS\n N  OBJ\n L  R1\n"
         "COLUMNS\n    X1        OBJ       1.0       R1        1.0\n")
_PAIRS = "needs \\(row, value\\) pairs"


class TestMalformedCorpus:
    CASES = [
        ("missing_endata.qps", MissingSectionError, 9),
        ("unknown_sense.qps", UnknownRowSenseError, 4),
        ("undeclared_column.qps", UndeclaredRowOrColumnError, 10),
        ("bad_number.qps", MalformedNumericFieldError, 6),
        ("crossed_bounds.qps", CrossedBoundsError, 11),
        ("duplicate_fx.qps", DuplicateFixedBoundConflictError, 11),
        ("mixed_quad.qps", MixedQuadSectionsError, 12),
    ]

    @pytest.mark.parametrize("fname,exc,line", CASES)
    def test_designated_error_with_line_number(self, fname, exc, line):
        with pytest.raises(exc) as info:
            parse_qps_file(os.path.join(MALFORMED, fname))
        assert info.value.line_no == line
        assert f"line {line}" in str(info.value)

    def test_all_errors_are_parse_errors(self):
        for fname, exc, _ in self.CASES:
            assert issubclass(exc, QpsParseError)

    def test_crossed_bounds_caught_as_the_problem_error(self):
        # One except clause catches crossed bounds from a QPS file and
        # from box_problem_terms; the reader's error keeps its line.
        with pytest.raises(problem.CrossedBoundsError) as info:
            parse_qps_file(os.path.join(MALFORMED, "crossed_bounds.qps"))
        assert info.value.line_no == 11

    def test_data_before_section_header(self):
        with pytest.raises(QpsParseError):
            parse_qps("    X1        OBJ       1.0\nENDATA\n")

    def test_unknown_section(self):
        with pytest.raises(QpsParseError):
            parse_qps("NAME T\nSOSSECTION\nENDATA\n")

    def test_missing_rows_section(self):
        with pytest.raises(MissingSectionError):
            parse_qps("NAME T\nCOLUMNS\nRHS\nENDATA\n")

    def test_undeclared_row_in_columns(self):
        with pytest.raises(UndeclaredRowOrColumnError):
            parse_qps(
                "NAME T\nROWS\n N  OBJ\n"
                "COLUMNS\n    X1        NOSUCH    1.0\nENDATA\n"
            )

    @pytest.mark.parametrize("text,exc,match,line", [
        ("NAME T\nROWS\n N  OBJ\n L  R1\n"
         "COLUMNS\n    X1        OBJ       1.0       R1\nENDATA\n",
         QpsParseError, "COLUMNS entry " + _PAIRS, 6),
        (_HEAD + "RHS\n    RHS       R1        4.0       OBJ\nENDATA\n",
         QpsParseError, "RHS entry " + _PAIRS, 8),
        (_HEAD + "RANGES\n    RNG       R1\nENDATA\n",
         QpsParseError, "RANGES entry " + _PAIRS, 8),
        ("NAME T\nROWS\n N  OBJ\n L  R1  R2\nENDATA\n",
         QpsParseError, "ROWS entry needs a sense and a name", 4),
        ("NAME T\nROWS\n N  OBJ\n L\nENDATA\n",
         QpsParseError, "ROWS entry needs a sense and a name", 4),
        (_HEAD + "RHS\n    RHS       NOSUCH    4.0\nENDATA\n",
         UndeclaredRowOrColumnError, "undeclared row 'NOSUCH'", 8),
        (_HEAD + "RANGES\n    RNG       NOSUCH    1.0\nENDATA\n",
         UndeclaredRowOrColumnError, "undeclared row 'NOSUCH'", 8),
        (_HEAD + "BOUNDS\n UP BND       X1\nENDATA\n",
         QpsParseError, "BOUNDS entry is truncated", 8),
        (_HEAD + "BOUNDS\n FR BND\nENDATA\n",
         QpsParseError, "BOUNDS entry is truncated", 8),
        (_HEAD + "BOUNDS\n XX BND       X1        1.0\nENDATA\n",
         QpsParseError, "unsupported bound type 'XX'", 8),
        (_HEAD + "QUADOBJ\n    X1        X1\nENDATA\n",
         QpsParseError, "QUADOBJ entry needs two columns and a value", 8),
        (_HEAD + "QMATRIX\n    X1        X1        1.0       2.0\nENDATA\n",
         QpsParseError, "QMATRIX entry needs two columns and a value", 8),
        (_HEAD + "QUADOBJ\n    X1        NOSUCH    1.0\nENDATA\n",
         UndeclaredRowOrColumnError, "undeclared column 'NOSUCH'", 8),
        (_HEAD + "QMATRIX\n    NOSUCH    X1        1.0\nENDATA\n",
         UndeclaredRowOrColumnError, "undeclared column 'NOSUCH'", 8)],
        ids=["columns-even-tokens", "rhs-even-tokens", "ranges-even-tokens",
             "rows-three-fields", "rows-one-field", "rhs-undeclared-row",
             "ranges-undeclared-row", "bounds-truncated-valued",
             "bounds-truncated-free", "bounds-unsupported-type",
             "quadobj-two-fields", "qmatrix-four-fields",
             "quadobj-undeclared-column", "qmatrix-undeclared-column"])
    def test_malformed_entry_rejected_at_its_line(self, text, exc, match,
                                                  line):
        # Each entry is reported by its own check, at its line.
        with pytest.raises(exc, match=f"line {line}: {match}") as info:
            parse_qps(text)
        assert type(info.value) is exc
        assert info.value.line_no == line
