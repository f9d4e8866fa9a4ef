"""QPS/MPS reader for quadratic programs, and conversion to the solver's
problem form.

Accepts both fixed-field and free-form files (tokens split on
whitespace).  Quadratic objectives come from a QUADOBJ section (lower
triangle, off-diagonals counted once and mirrored) or a QMATRIX section
(full matrix, taken as given); mixing the two is rejected.  Fortran-style
exponents (1.0D+01) are accepted in every numeric field.  OBJSENSE MAX,
in the section or the one-line form, negates the objective, so QpData
always describes a minimization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .problem import ProblemSpec, box_problem_terms


class QpsParseError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class MissingSectionError(QpsParseError):
    pass


class UnknownRowSenseError(QpsParseError):
    pass


class UndeclaredRowOrColumnError(QpsParseError):
    pass


class DuplicateFixedBoundConflictError(QpsParseError):
    pass


class MalformedNumericFieldError(QpsParseError):
    pass


class CrossedBoundsError(QpsParseError):
    pass


class MixedQuadSectionsError(QpsParseError):
    pass


@dataclass
class SparseTriplets:
    nrows: int
    ncols: int
    entries: List[Tuple[int, int, float]] = field(default_factory=list)

    def to_csr(self) -> sp.csr_matrix:
        """Finalize; duplicate (row, col) entries are summed."""
        if self.entries:
            r, c, v = zip(*self.entries)
        else:
            r, c, v = (), (), ()
        return sp.coo_matrix((v, (r, c)), shape=(self.nrows, self.ncols)).tocsr()


@dataclass
class QpData:
    name: str
    n: int
    m_rows: int
    Q: SparseTriplets          # lower triangle of the symmetric Q
    q: np.ndarray
    c: float
    A: SparseTriplets
    row_lower: np.ndarray      # -inf marks an unbounded side
    row_upper: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray


_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS",
             "QUADOBJ", "QMATRIX", "OBJSENSE", "ENDATA"}

# OBJSENSE value -> sign that turns the objective into a minimization.
_OBJ_SIGN = {"MIN": 1.0, "MINIMIZE": 1.0, "MAX": -1.0, "MAXIMIZE": -1.0}


def _obj_sign(token: str, line_no: int) -> float:
    try:
        return _OBJ_SIGN[token.upper()]
    except KeyError:
        raise QpsParseError(f"unknown objective sense {token!r}",
                            line_no) from None


def _num(token: str, line_no: int) -> float:
    try:
        return float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MalformedNumericFieldError(
            f"malformed numeric field {token!r}", line_no
        ) from None


def _pairs(tokens: List[str], section: str,
           line_no: int) -> Iterator[Tuple[str, float]]:
    """The (row, value) pairs after the first field of a COLUMNS, RHS or
    RANGES line, each value checked as it is reached."""
    if len(tokens) < 3 or len(tokens) % 2 == 0:
        raise QpsParseError(f"{section} entry needs (row, value) pairs",
                            line_no)
    for rname, vtok in zip(tokens[1::2], tokens[2::2]):
        yield rname, _num(vtok, line_no)


def parse_qps(text: str) -> QpData:
    """Parse a QPS/MPS document."""
    lines = text.splitlines()

    name = ""
    row_sense: dict = {}          # row name -> sense
    row_index: dict = {}          # constraint row name -> index
    obj_row: Optional[str] = None
    col_index: dict = {}
    q_lin: dict = {}              # col -> linear objective coefficient
    a_entries: List[Tuple[int, int, float]] = []
    rhs: dict = {}                # constraint row -> rhs value
    ranges: dict = {}
    obj_const = 0.0
    bounds: List[Tuple[str, str, Optional[float], int]] = []
    quad_full: dict = {}          # QMATRIX accumulation
    quad_lower: dict = {}         # QUADOBJ accumulation
    quad_section_seen: Optional[str] = None
    obj_sign = 1.0

    section = None
    seen_sections = set()
    saw_endata = False
    last_line_no = 0

    for line_no, raw in enumerate(lines, start=1):
        last_line_no = line_no
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        tokens = raw.split()

        if is_header:
            head = tokens[0].upper()
            if head not in _SECTIONS:
                raise QpsParseError(f"unknown section {tokens[0]!r}", line_no)
            if head in ("QUADOBJ", "QMATRIX"):
                if quad_section_seen is not None and quad_section_seen != head:
                    raise MixedQuadSectionsError(
                        "QUADOBJ and QMATRIX sections cannot be mixed", line_no
                    )
                quad_section_seen = head
            if head == "NAME" and len(tokens) > 1:
                name = tokens[1]
            if head == "OBJSENSE" and len(tokens) > 1:
                obj_sign = _obj_sign(tokens[1], line_no)
            if head == "ENDATA":
                saw_endata = True
                break
            section = head
            seen_sections.add(head)
            continue

        if section == "ROWS":
            if len(tokens) != 2:
                raise QpsParseError("ROWS entry needs a sense and a name", line_no)
            sense, rname = tokens[0].upper(), tokens[1]
            if sense not in ("N", "E", "L", "G"):
                raise UnknownRowSenseError(
                    f"unknown row sense {tokens[0]!r}", line_no
                )
            row_sense[rname] = sense
            if sense == "N":
                if obj_row is None:
                    obj_row = rname
            else:
                row_index[rname] = len(row_index)

        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1].upper() == "'MARKER'":
                continue  # integer markers: not applicable to QP data
            cname = tokens[0]
            if cname not in col_index:
                col_index[cname] = len(col_index)
            j = col_index[cname]
            for rname, v in _pairs(tokens, section, line_no):
                if rname == obj_row:
                    q_lin[j] = q_lin.get(j, 0.0) + v
                elif rname in row_index:
                    a_entries.append((row_index[rname], j, v))
                elif rname in row_sense:
                    pass  # extra free row: declared but not a constraint
                else:
                    raise UndeclaredRowOrColumnError(
                        f"undeclared row {rname!r}", line_no
                    )

        elif section == "RHS":
            for rname, v in _pairs(tokens, section, line_no):
                if rname == obj_row:
                    obj_const = -v  # MPS convention for the objective shift
                elif rname in row_index:
                    rhs[rname] = v
                else:
                    raise UndeclaredRowOrColumnError(
                        f"undeclared row {rname!r}", line_no
                    )

        elif section == "RANGES":
            for rname, v in _pairs(tokens, section, line_no):
                if rname not in row_index:
                    raise UndeclaredRowOrColumnError(
                        f"undeclared row {rname!r}", line_no
                    )
                ranges[rname] = v

        elif section == "BOUNDS":
            btype = tokens[0].upper()
            if btype in ("FR", "MI", "PL"):
                if len(tokens) < 3:
                    raise QpsParseError("BOUNDS entry is truncated", line_no)
                cname, val = tokens[2], None
            else:
                if len(tokens) < 4:
                    raise QpsParseError("BOUNDS entry is truncated", line_no)
                cname, val = tokens[2], _num(tokens[3], line_no)
            if btype not in ("UP", "LO", "FX", "FR", "MI", "PL"):
                raise QpsParseError(f"unsupported bound type {tokens[0]!r}",
                                    line_no)
            if cname not in col_index:
                raise UndeclaredRowOrColumnError(
                    f"undeclared column {cname!r}", line_no
                )
            bounds.append((btype, cname, val, line_no))

        elif section in ("QUADOBJ", "QMATRIX"):
            if len(tokens) != 3:
                raise QpsParseError(
                    f"{section} entry needs two columns and a value", line_no
                )
            c1, c2 = tokens[0], tokens[1]
            v = _num(tokens[2], line_no)
            for cname in (c1, c2):
                if cname not in col_index:
                    raise UndeclaredRowOrColumnError(
                        f"undeclared column {cname!r}", line_no
                    )
            i, j = col_index[c1], col_index[c2]
            if section == "QUADOBJ":
                key = (max(i, j), min(i, j))
                quad_lower[key] = quad_lower.get(key, 0.0) + v
            else:
                quad_full[(i, j)] = quad_full.get((i, j), 0.0) + v

        elif section == "OBJSENSE":
            obj_sign = _obj_sign(tokens[0], line_no)
        elif section == "NAME":
            continue
        else:
            raise QpsParseError("data line before any section header", line_no)

    if not saw_endata:
        raise MissingSectionError("missing ENDATA section", last_line_no + 1)
    for required in ("ROWS", "COLUMNS"):
        if required not in seen_sections:
            raise MissingSectionError(f"missing {required} section",
                                      last_line_no + 1)

    n = len(col_index)
    m_rows = len(row_index)

    # Row bounds from sense, RHS and RANGES.
    row_lower = np.full(m_rows, -np.inf)
    row_upper = np.full(m_rows, np.inf)
    for rname, i in row_index.items():
        sense = row_sense[rname]
        b = rhs.get(rname, 0.0)
        if sense == "E":
            row_lower[i] = row_upper[i] = b
        elif sense == "L":
            row_upper[i] = b
        elif sense == "G":
            row_lower[i] = b
        if rname in ranges:
            r = ranges[rname]
            if sense == "L":
                row_lower[i] = b - abs(r)
            elif sense == "G":
                row_upper[i] = b + abs(r)
            elif sense == "E":
                if r >= 0:
                    row_upper[i] = b + r
                else:
                    row_lower[i] = b + r

    # Variable bounds: MPS default [0, +inf), then BOUNDS records on top.
    var_lower = np.zeros(n)
    var_upper = np.full(n, np.inf)
    fixed_at: dict = {}
    for btype, cname, val, line_no in bounds:
        j = col_index[cname]
        if btype == "UP":
            var_upper[j] = val
        elif btype == "LO":
            var_lower[j] = val
        elif btype == "FX":
            if j in fixed_at and fixed_at[j] != val:
                raise DuplicateFixedBoundConflictError(
                    f"column {cname!r} fixed at both {fixed_at[j]} and {val}",
                    line_no,
                )
            fixed_at[j] = val
            var_lower[j] = var_upper[j] = val
        elif btype == "FR":
            var_lower[j], var_upper[j] = -np.inf, np.inf
        elif btype == "MI":
            var_lower[j] = -np.inf
        elif btype == "PL":
            var_upper[j] = np.inf
        if var_lower[j] > var_upper[j]:
            raise CrossedBoundsError(
                f"crossed bounds on column {cname!r}: "
                f"{var_lower[j]} > {var_upper[j]}",
                line_no,
            )

    # Quadratic objective, stored as the lower triangle of symmetric Q.
    q_entries: List[Tuple[int, int, float]] = []
    if quad_section_seen == "QUADOBJ":
        q_entries = [(i, j, v) for (i, j), v in sorted(quad_lower.items())]
    elif quad_section_seen == "QMATRIX":
        # 0.5 * (v + v) == v, so the diagonal needs no special case.
        lower = sorted({(max(i, j), min(i, j)) for i, j in quad_full})
        q_entries = [(i, j, 0.5 * (quad_full.get((i, j), 0.0)
                                   + quad_full.get((j, i), 0.0)))
                     for i, j in lower]

    q_vec = np.zeros(n)
    for j, v in q_lin.items():
        q_vec[j] = v

    if obj_sign < 0:
        q_entries = [(i, j, -v) for i, j, v in q_entries]
        q_vec = -q_vec
        obj_const = -obj_const

    return QpData(
        name=name,
        n=n,
        m_rows=m_rows,
        Q=SparseTriplets(nrows=n, ncols=n, entries=q_entries),
        q=q_vec,
        c=obj_const,
        A=SparseTriplets(nrows=m_rows, ncols=n, entries=a_entries),
        row_lower=row_lower,
        row_upper=row_upper,
        var_lower=var_lower,
        var_upper=var_upper,
    )


def parse_qps_file(path) -> QpData:
    with open(path, "r") as fh:
        return parse_qps(fh.read())


def qp_to_problem(qp: QpData, eq_as_h: bool = False) -> ProblemSpec:
    """Assemble the solver form: quadratic f1, box f2, and inequalities
    stacked as [A x - u; l - A x] over rows with finite bounds.

    Equality rows (l = u) contribute both directions by default; with
    ``eq_as_h`` they become true equality constraints instead, so the
    equality penalty applies to them.
    """
    n = qp.n
    Q_low = qp.Q.to_csr()
    Q_full = Q_low + Q_low.T - sp.diags(Q_low.diagonal())
    q, c = qp.q, qp.c
    A = qp.A.to_csr()

    is_eq = qp.row_lower == qp.row_upper
    if eq_as_h:
        eq_rows = np.flatnonzero(is_eq)
        up_rows = np.flatnonzero(np.isfinite(qp.row_upper) & ~is_eq)
        lo_rows = np.flatnonzero(np.isfinite(qp.row_lower) & ~is_eq)
    else:
        eq_rows = np.zeros(0, dtype=int)
        up_rows = np.flatnonzero(np.isfinite(qp.row_upper))
        lo_rows = np.flatnonzero(np.isfinite(qp.row_lower))

    A_eq = A[eq_rows]
    b_eq = qp.row_lower[eq_rows]
    A_up = A[up_rows]
    u = qp.row_upper[up_rows]
    A_lo = A[lo_rows]
    l = qp.row_lower[lo_rows]
    A_eq_T, A_up_T, A_lo_T = A_eq.T, A_up.T, A_lo.T

    p = len(eq_rows)
    m = len(up_rows) + len(lo_rows)
    n_up = len(up_rows)

    def f1(x):
        return 0.5 * float(x @ (Q_full @ x)) + float(q @ x) + c

    def grad_f1(x):
        return Q_full @ x + q

    def h(x):
        return A_eq @ x - b_eq

    def jac_h_T(x, y):
        return A_eq_T @ y

    def g(x):
        return np.concatenate([A_up @ x - u, l - A_lo @ x])

    def jac_g_T(x, y):
        return A_up_T @ y[:n_up] - A_lo_T @ y[n_up:]

    f2_value, prox_f2 = box_problem_terms(qp.var_lower, qp.var_upper)

    return ProblemSpec(
        n=n, p=p, m=m,
        f1=f1, grad_f1=grad_f1,
        h=h, jac_h_transpose_apply=jac_h_T,
        g=g, jac_g_transpose_apply=jac_g_T,
        f2_value=f2_value, prox_f2=prox_f2,
        name=qp.name or "qps-problem",
    )
