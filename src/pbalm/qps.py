"""QPS/MPS reader for quadratic programs, and conversion to the solver's
problem form.

Accepts both fixed-field and free-form files (tokens split on
whitespace).  Quadratic objectives come from a QUADOBJ section (lower
triangle, off-diagonals counted once and mirrored) or a QMATRIX section
(full matrix, taken as given); mixing the two is rejected.  Fortran-style
exponents (1.0D+01) are accepted in every numeric field, and so is an
infinite value (inf, 1e400), which as a bound leaves that side
unbounded; NaN raises MalformedNumericFieldError at its line, and so
does an infinite RHS on the objective row, whose negation would be the
objective constant and make f1 infinite everywhere.  An infinite
coefficient in COLUMNS, QUADOBJ or QMATRIX raises it too, because inf
times a zero component makes f1, g or h NaN.  OBJSENSE MAX,
in the section or the one-line form, negates the objective, so QpData
always describes a minimization.  A row's sense sets its right-hand
side b as the lower bound (E, G) and the upper bound (E, L); a RANGES
value R then sets the upper bound to b + |R| on a G row, or on an E row
with R >= 0, and otherwise the lower bound to b - |R|.  A row bound no
point meets (lower +inf, upper -inf) or a NaN one (inf - inf) raises
InfeasibleRowError at the line that set it; an infinite bound on the
side a row leaves open (G with -inf, L with +inf) is no bound.  Bounds are
checked after the whole BOUNDS section, so a column's records may come
in any order; as in most MPS readers, a negative UP on a column whose
lower bound no record sets makes that lower bound -inf, with a warning.

A coefficient that repeats a (row, column) pair, in COLUMNS, QUADOBJ or
QMATRIX, is added to the earlier ones, and the running sum (for QMATRIX,
the mean of the (i, j) and (j, i) sums that Q gets) is checked: the line
that makes it infinite raises MalformedNumericFieldError.

Parsing needs numpy alone.  Assembly also needs the compiled CSR/CSC
matrix-vector kernels of the installed scipy (csr_matvec and csc_matvec,
from the extension file scipy/sparse/_sparsetools.*), loaded as a module
of their own so that no scipy module is imported.  qp_to_problem builds
each matrix's canonical CSR arrays from the triplets with numpy, and
applies a transpose as the CSC view of the same arrays, as scipy's M.T
does; each product calls the kernel that ``M @ v`` calls, with the same
arguments, so the results are the same bit for bit, but each skips
2.5-8 us of ``@``'s Python dispatch, about half of a small map's time.
The kernels do not check lengths, so each product checks its vector's
shape.  tests/test_qps.py::TestAssembly pins the extension: the maps must
equal their ``@`` forms on scipy.sparse matrices bit for bit and reject a
wrong-length vector.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import problem
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


class CrossedBoundsError(QpsParseError, problem.CrossedBoundsError):
    """Crossed column bounds, at the line of the column's last BOUNDS
    record; ``except problem.CrossedBoundsError`` catches it too."""


class MixedQuadSectionsError(QpsParseError):
    pass


class InfeasibleRowError(QpsParseError):
    """A row bound no point meets (a lower bound of +inf or an upper bound
    of -inf) or that is NaN (inf - inf from RHS and RANGES), at the line
    of the RHS or RANGES record that set it."""


@dataclass
class SparseTriplets:
    nrows: int
    ncols: int
    entries: List[Tuple[int, int, float]] = field(default_factory=list)


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
_QUAD_SECTIONS = {"QUADOBJ", "QMATRIX"}

# Bound type -> the (lower, upper) pair a record sets: _VALUE is the
# record's value and None leaves that side as it is.  A type that sets
# the lower side is a lower-bound record for the negative-UP rule.
_VALUE = "value"
_BOUNDS = {
    "UP": (None, _VALUE),
    "LO": (_VALUE, None),
    "FX": (_VALUE, _VALUE),
    "FR": (-np.inf, np.inf),
    "MI": (-np.inf, None),
    "PL": (None, np.inf),
}

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
        v = float(token.replace("D", "E").replace("d", "e"))
    except ValueError:
        v = math.nan
    if math.isnan(v):  # NaN would read as "no bound" downstream
        raise MalformedNumericFieldError(
            f"malformed numeric field {token!r}", line_no
        )
    return v


def _mean(a: float, b: float) -> float:
    """0.5 * (a + b), or 0.5 * a + 0.5 * b when the sum overflows: halving
    first would round subnormal terms."""
    mean = 0.5 * (a + b)
    return mean if math.isfinite(mean) else 0.5 * a + 0.5 * b


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
    name = ""
    row_sense: dict = {}          # row name -> sense
    row_index: dict = {}          # constraint row name -> index
    obj_row: Optional[str] = None
    col_index: dict = {}
    q_lin: dict = {}              # col -> linear objective coefficient
    a_sums: dict = {}             # (row, col) -> constraint coefficient
    # section -> row name -> (value, line)
    given: dict = {"RHS": {}, "RANGES": {}}
    bounds: List[Tuple[str, str, Optional[float], int]] = []
    quad: dict = {}               # (i, j) of QMATRIX, (max, min) of QUADOBJ
    obj_sign = 1.0

    section = None
    seen_sections = set()
    line_no = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        tokens = raw.split()

        if not raw[0].isspace():
            section = tokens[0].upper()
            if section not in _SECTIONS:
                raise QpsParseError(f"unknown section {tokens[0]!r}", line_no)
            seen_sections.add(section)
            if _QUAD_SECTIONS <= seen_sections:
                raise MixedQuadSectionsError(
                    "QUADOBJ and QMATRIX sections cannot be mixed", line_no
                )
            if section == "ENDATA":
                break
            if section == "NAME" and len(tokens) > 1:
                name = tokens[1]
            if section == "OBJSENSE" and len(tokens) > 1:
                obj_sign = _obj_sign(tokens[1], line_no)
            continue

        if section == "ROWS":
            if len(tokens) != 2:
                raise QpsParseError("ROWS entry needs a sense and a name", line_no)
            sense, rname = tokens[0].upper(), tokens[1]
            if sense not in ("N", "E", "L", "G"):
                raise UnknownRowSenseError(
                    f"unknown row sense {tokens[0]!r}", line_no
                )
            if rname in row_sense:
                raise QpsParseError(f"duplicate row {rname!r}", line_no)
            row_sense[rname] = sense
            if sense != "N":
                row_index[rname] = len(row_index)
            elif obj_row is None:
                obj_row = rname

        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1].upper() == "'MARKER'":
                continue  # integer markers: not applicable to QP data
            cname = tokens[0]
            if cname not in col_index:
                col_index[cname] = len(col_index)
            j = col_index[cname]
            for rname, v in _pairs(tokens, section, line_no):
                total = v  # an extra free row: declared but not a constraint
                if rname == obj_row:
                    total = q_lin[j] = q_lin.get(j, 0.0) + v
                elif rname in row_index:
                    key = (row_index[rname], j)
                    total = a_sums[key] = a_sums.get(key, 0.0) + v
                elif rname not in row_sense:
                    raise UndeclaredRowOrColumnError(
                        f"undeclared row {rname!r}", line_no
                    )
                if math.isinf(total):
                    raise MalformedNumericFieldError(
                        f"coefficient {v} of column {cname!r} in row "
                        f"{rname!r} makes its entry {total}", line_no
                    )

        elif section in ("RHS", "RANGES"):
            for rname, v in _pairs(tokens, section, line_no):
                if rname not in row_sense:
                    raise UndeclaredRowOrColumnError(
                        f"undeclared row {rname!r}", line_no
                    )
                if section == "RHS" and rname == obj_row and math.isinf(v):
                    raise MalformedNumericFieldError(
                        f"infinite objective constant {-v}", line_no
                    )
                given[section][rname] = (v, line_no)

        elif section == "BOUNDS":
            btype = tokens[0].upper()
            # An unknown type is read as a valued record before it is
            # rejected, so a short or malformed one reports that first.
            valued = _VALUE in _BOUNDS.get(btype, (_VALUE,))
            if len(tokens) < 3 + valued:
                raise QpsParseError("BOUNDS entry is truncated", line_no)
            cname = tokens[2]
            val = _num(tokens[3], line_no) if valued else None
            if btype not in _BOUNDS:
                raise QpsParseError(f"unsupported bound type {tokens[0]!r}",
                                    line_no)
            if cname not in col_index:
                raise UndeclaredRowOrColumnError(
                    f"undeclared column {cname!r}", line_no
                )
            bounds.append((btype, cname, val, line_no))

        elif section in _QUAD_SECTIONS:
            if len(tokens) != 3:
                raise QpsParseError(
                    f"{section} entry needs two columns and a value", line_no
                )
            v = _num(tokens[2], line_no)
            for cname in tokens[:2]:
                if cname not in col_index:
                    raise UndeclaredRowOrColumnError(
                        f"undeclared column {cname!r}", line_no
                    )
            i, j = col_index[tokens[0]], col_index[tokens[1]]
            if section == "QMATRIX":
                quad[i, j] = quad.get((i, j), 0.0) + v
                # The entry Q gets, as the lower triangle is built below.
                total = _mean(quad[i, j], quad.get((j, i), 0.0))
            else:
                key = (max(i, j), min(i, j))
                total = quad[key] = quad.get(key, 0.0) + v
            if math.isinf(total):
                raise MalformedNumericFieldError(
                    f"quadratic coefficient {v} makes its entry {total}",
                    line_no
                )

        elif section == "OBJSENSE":
            obj_sign = _obj_sign(tokens[0], line_no)
        elif section != "NAME":
            raise QpsParseError("data line before any section header", line_no)

    if section != "ENDATA":
        raise MissingSectionError("missing ENDATA section", line_no + 1)
    for required in ("ROWS", "COLUMNS"):
        if required not in seen_sections:
            raise MissingSectionError(f"missing {required} section",
                                      line_no + 1)

    n = len(col_index)
    m_rows = len(row_index)
    rhs, ranges = given["RHS"], given["RANGES"]
    obj_const = -rhs[obj_row][0] if obj_row in rhs else 0.0  # MPS shift

    # Row bounds from sense, RHS and RANGES, by the module docstring's rule,
    # each side with the line of the record that set it.
    row_lower = np.full(m_rows, -np.inf)
    row_upper = np.full(m_rows, np.inf)
    for rname, i in row_index.items():
        sense = row_sense[rname]
        b, line_no = rhs.get(rname, (0.0, None))
        lower_line = upper_line = line_no
        if sense in "EG":
            row_lower[i] = b
        if sense in "EL":
            row_upper[i] = b
        if rname in ranges:
            r, line_no = ranges[rname]
            if sense == "G" or (sense == "E" and r >= 0):
                row_upper[i], upper_line = b + abs(r), line_no
            else:
                row_lower[i], lower_line = b - abs(r), line_no
        if not row_lower[i] < np.inf:
            raise InfeasibleRowError(
                f"row {rname!r} has lower bound {row_lower[i]}", lower_line)
        if not row_upper[i] > -np.inf:
            raise InfeasibleRowError(
                f"row {rname!r} has upper bound {row_upper[i]}", upper_line)

    # Variable bounds: MPS default [0, +inf), then BOUNDS records on top.
    # Bounds are checked once all records are in, so the order of a
    # column's records does not matter.
    var_lower = np.zeros(n)
    var_upper = np.full(n, np.inf)
    fixed_at: dict = {}
    last_record: dict = {}  # column index -> (name, line of last record)
    lower_set = set()       # columns whose lower bound a record set
    for btype, cname, val, line_no in bounds:
        j = col_index[cname]
        last_record[j] = (cname, line_no)
        if btype == "FX":
            if j in fixed_at and fixed_at[j] != val:
                raise DuplicateFixedBoundConflictError(
                    f"column {cname!r} fixed at both {fixed_at[j]} and {val}",
                    line_no,
                )
            fixed_at[j] = val
        lower, upper = _BOUNDS[btype]
        if lower is not None:
            var_lower[j] = val if lower is _VALUE else lower
            lower_set.add(j)
        if upper is not None:
            var_upper[j] = val if upper is _VALUE else upper
    for j, (cname, line_no) in last_record.items():
        if var_upper[j] < 0 and j not in lower_set:
            warnings.warn(
                f"line {line_no}: column {cname!r} has a negative upper "
                "bound and no lower bound record; its lower bound is -inf",
                stacklevel=2,
            )
            var_lower[j] = -np.inf
        if var_lower[j] > var_upper[j]:
            raise CrossedBoundsError(
                f"crossed bounds on column {cname!r}: "
                f"{var_lower[j]} > {var_upper[j]}",
                line_no,
            )

    # Quadratic objective, stored as the lower triangle of symmetric Q.
    if "QMATRIX" in seen_sections:
        # The mean of v and v is v, so the diagonal needs no special case.
        lower_keys = sorted({(max(i, j), min(i, j)) for i, j in quad})
        q_entries = [(i, j, _mean(quad.get((i, j), 0.0),
                                  quad.get((j, i), 0.0)))
                     for i, j in lower_keys]
    else:
        q_entries = [(i, j, v) for (i, j), v in sorted(quad.items())]

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
        A=SparseTriplets(nrows=m_rows, ncols=n,
                         entries=[(i, j, v) for (i, j), v in a_sums.items()]),
        row_lower=row_lower,
        row_upper=row_upper,
        var_lower=var_lower,
        var_upper=var_upper,
    )


def parse_qps_file(path) -> QpData:
    with open(path, "r") as fh:
        return parse_qps(fh.read())


def _load_sparsetools(directory: str):
    """scipy's compiled _sparsetools extension, loaded from its file in
    ``directory`` as a module of its own, so that no scipy package is
    imported."""
    spec = importlib.machinery.PathFinder.find_spec("_sparsetools",
                                                    [directory])
    if spec is None:
        raise ImportError(f"no _sparsetools extension in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=None)
def _kernels():
    """The _sparsetools extension of the installed scipy; find_spec on a
    top-level name locates the package without importing it."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("assembling a QPS problem needs scipy")
    return _load_sparsetools(
        os.path.join(spec.submodule_search_locations[0], "sparse"))


def _triplet_arrays(t: SparseTriplets):
    r, c, v = zip(*t.entries) if t.entries else ((), (), ())
    return (np.array(r, dtype=np.int64), np.array(c, dtype=np.int64),
            np.array(v, dtype=float))


def _csr(nrows, ncols, rows, cols, vals):
    """Canonical CSR arrays (indptr, indices, data) of the triplets: rows,
    then columns within a row, ascending; duplicates summed in input
    order.  Indices are int32 while they fit, as scipy makes them."""
    if len(rows) and not (0 <= rows.min() and rows.max() < nrows
                          and 0 <= cols.min() and cols.max() < ncols):
        raise problem.DimensionMismatchError(
            f"entry index outside a {nrows}x{ncols} matrix")
    keys, slot = np.unique(rows * ncols + cols, return_inverse=True)
    data = np.zeros(len(keys))
    np.add.at(data, slot, vals)
    row, col = np.divmod(keys, ncols)
    itype = np.int32 if max(nrows, ncols, len(keys)) < 2**31 else np.int64
    indptr = np.zeros(nrows + 1, itype)
    np.cumsum(np.bincount(row, minlength=nrows), out=indptr[1:])
    return indptr, col.astype(itype), data


def _csr_rows(csr, rows):
    """The CSR arrays of the given rows of ``csr``, in that order."""
    indptr, indices, data = csr
    start = indptr[rows]
    lengths = indptr[rows + 1] - start
    sub = np.zeros(len(rows) + 1, indptr.dtype)
    np.cumsum(lengths, out=sub[1:])
    at = np.repeat(start - sub[:-1], lengths) + np.arange(sub[-1])
    return sub, indices[at], data[at]


def _matvec(kind, shape, arrays):
    """v -> M @ v for the CSR matrix (kind "csr") or CSC matrix ("csc") of
    ``shape`` stored in ``arrays``, by the compiled kernel that ``@``
    calls (see the module docstring); the kernel does not check lengths,
    so the closure does."""
    kernel = getattr(_kernels(), kind + "_matvec")
    nrows, ncols = shape
    indptr, indices, data = arrays

    def matvec(v):
        if v.shape != (ncols,):
            raise problem.DimensionMismatchError(
                f"expected vector of length {ncols}, got shape {v.shape}")
        out = np.zeros(nrows)
        kernel(nrows, ncols, indptr, indices, data, v, out)
        return out

    return matvec


def qp_to_problem(qp: QpData) -> ProblemSpec:
    """Assemble the solver form: quadratic f1, box f2, and the
    inequalities g(x) = G x + c_g = [A_up x - u; l - A_lo x] over the rows
    with a finite upper bound u and those with a finite lower bound l.  An
    equality row (l = u) contributes both, so the problem has no h (p = 0).

    G = [A_up; -A_lo] is built once, from A's rows.  J^T y is
    G_up^T y_up + G_lo^T y_lo, from the CSC views of G's two row blocks:
    negation is exact, a - b equals a + (-b), and the kernels' sums start
    at +0.0, so this equals A_up^T y_up - A_lo^T y_lo bit for bit.  One
    stacked J^T product would reorder its sums.
    """
    n = qp.n
    q, c = qp.q, qp.c
    # Q in full: the lower triangle with its off-diagonal entries mirrored.
    r, k, v = _triplet_arrays(qp.Q)
    off = r != k
    Q_full = _csr(n, n, np.concatenate([r, k[off]]),
                  np.concatenate([k, r[off]]), np.concatenate([v, v[off]]))

    A = _csr(qp.m_rows, n, *_triplet_arrays(qp.A))
    up_rows = np.flatnonzero(np.isfinite(qp.row_upper))
    lo_rows = np.flatnonzero(np.isfinite(qp.row_lower))
    n_up = len(up_rows)
    m = n_up + len(lo_rows)
    indptr, indices, data = _csr_rows(A, np.concatenate([up_rows, lo_rows]))
    split = indptr[n_up]
    data[split:] *= -1.0
    c_g = np.concatenate([-qp.row_upper[up_rows], qp.row_lower[lo_rows]])
    G_up = indptr[:n_up + 1], indices[:split], data[:split]
    G_lo = indptr[n_up:] - split, indices[split:], data[split:]
    # From here on each matrix is its product v -> M @ v; a transpose is
    # the CSC view of the same arrays, as scipy's M.T is.
    Q_full = _matvec("csr", (n, n), Q_full)
    G = _matvec("csr", (m, n), (indptr, indices, data))
    G_up_T = _matvec("csc", (n, n_up), G_up)
    G_lo_T = _matvec("csc", (n, m - n_up), G_lo)

    def f1(x):
        return 0.5 * float(x.dot(Q_full(x))) + float(q.dot(x)) + c

    def grad_f1(x):
        return Q_full(x) + q

    def g(x):
        out = G(x)
        out += c_g
        return out

    def jac_g_T(x, y):
        return G_up_T(y[:n_up]) + G_lo_T(y[n_up:])

    f2_value, prox_f2 = box_problem_terms(qp.var_lower, qp.var_upper)

    return ProblemSpec(
        n=n, m=m,
        f1=f1, grad_f1=grad_f1,
        g=g, jac_g_transpose_apply=jac_g_T,
        f2_value=f2_value, prox_f2=prox_f2,
        name=qp.name or "qps-problem",
    )
