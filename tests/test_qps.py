import os

import numpy as np
import pytest

from pbalm.qps import (
    CrossedBoundsError,
    DuplicateFixedBoundConflictError,
    MalformedNumericFieldError,
    MissingSectionError,
    MixedQuadSectionsError,
    QpsParseError,
    SparseTriplets,
    UndeclaredRowOrColumnError,
    UnknownRowSenseError,
    parse_qps,
    parse_qps_file,
    qp_to_problem,
)
from pbalm.outer import OuterConfig, SolveStatus, run
from conftest import fd_grad, rel_err

HERE = os.path.dirname(__file__)
MALFORMED = os.path.join(HERE, "data", "malformed")
FIXTURES = os.path.join(HERE, "..", "src", "pbalm", "fixtures")

INF = np.inf


def fixture(name):
    return os.path.join(FIXTURES, name)


class TestTinyEqFixture:
    def test_field_exact(self):
        qp = parse_qps_file(fixture("tiny_eq.qps"))
        assert qp.name == "TINYEQ"
        assert qp.n == 2
        assert qp.m_rows == 1
        assert qp.Q.entries == [(0, 0, 2.0), (1, 1, 2.0)]
        np.testing.assert_array_equal(qp.q, [0.0, 0.0])
        assert qp.c == 0.0
        assert qp.A.entries == [(0, 0, 1.0), (0, 1, 1.0)]
        np.testing.assert_array_equal(qp.row_lower, [2.0])
        np.testing.assert_array_equal(qp.row_upper, [2.0])
        np.testing.assert_array_equal(qp.var_lower, [-INF, -INF])
        np.testing.assert_array_equal(qp.var_upper, [INF, INF])

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

    def test_eq_as_h_flag(self):
        qp = parse_qps_file(fixture("tiny_eq.qps"))
        prob = qp_to_problem(qp, eq_as_h=True)
        assert prob.p == 1
        assert prob.m == 0
        np.testing.assert_allclose(prob.h(np.array([0.5, 1.5])), [0.0], atol=1e-12)


class TestTinyBoxFixture:
    def test_field_exact(self):
        qp = parse_qps_file(fixture("tiny_box.qps"))
        assert qp.name == "TINYBOX"
        assert qp.n == 3
        assert qp.m_rows == 2
        assert qp.Q.entries == [
            (0, 0, 2.0), (1, 0, 1.0), (1, 1, 2.0), (2, 1, 1.0), (2, 2, 2.0),
        ]
        np.testing.assert_array_equal(qp.q, [-1.0, -2.0, 1.0])
        assert qp.c == 3.0  # RHS on the objective row is negated
        assert qp.A.entries == [
            (0, 0, 1.0), (1, 0, 1.0), (0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0),
        ]
        np.testing.assert_array_equal(qp.row_lower, [-INF, 0.5])
        np.testing.assert_array_equal(qp.row_upper, [4.0, INF])
        np.testing.assert_array_equal(qp.var_lower, [0.0, 0.1, 0.0])
        np.testing.assert_array_equal(qp.var_upper, [1.0, 0.9, 2.0])

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

    def test_sparse_triplets_sum_duplicates(self):
        t = SparseTriplets(nrows=2, ncols=2,
                           entries=[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)])
        m = t.to_csr()
        assert m[0, 0] == 3.0
        assert m[1, 1] == 5.0


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
