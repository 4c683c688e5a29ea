"""Matrix realizations of the series operators, with norm bound machinery.

Operators act on coefficient vectors in the monomial basis.  A matrix stores
its columns sparsely (column ``L`` is the image of ``z**L``), so monomial
symbols scale to large truncations while general polynomial symbols stay
within a guarded dense budget.  Norm estimates are certified lower bounds:
truncation can only shrink an operator norm, never inflate it.

Both oracles start from one plain-float front (``_lone_front``): it takes
the norm of every *lone* column (one that shares no row with another column)
exactly, and the oracles iterate only on the *coupled* columns.  Monomial
compositions and shift/stride substitutions have lone columns only, so their
estimate is exact at every p and reports ``iterations=0``, as does every
p = 1 estimate (the largest column sum).

Only the coupled columns at p > 1 run on ``_CSR``, a sparse matrix in numpy
arrays.  numpy is imported inside the functions that use it, so importing
this module (and the exact-arithmetic side of the package), and every
estimate without a coupled column at p > 1, does not load it; the ``np``
annotations are never evaluated.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from typing import Optional

from .combinatorics import PowerTable
from .series import FLOAT, PolynomialSymbol, TruncatedSeries
from .weights import (  # the certificate, its kinds and the size guard: re-exported
    CERTIFICATE_KINDS, DENSE_ENTRY_LIMIT, BoundCertificate, DeltaSequence, ResourceLimitError,
    ValidationError, WeightSequence, _Frozen, _guard, _ReadOnce, _safe_float,
)

__all__ = [
    "BoundCertificate",
    "OperatorMatrix",
    "ResourceLimitError",
    "apply",
    "build_matrix",
    "covering_rows",
    "norm_estimate_l2",
    "norm_lower_search",
]

# Fixed oracle budgets, spent on the coupled columns alone: power iterations and
# tolerance of ``norm_estimate_l2``, evaluations and tolerance of ``norm_lower_search``.
_L2_ITERATIONS = 50_000
_L2_TOL = 1e-12
_SEARCH_BUDGET = 600
_SEARCH_TOL = 1e-9


class OperatorMatrix(_Frozen):
    """Column-sparse operator matrix over rows ``0..n_rows``, cols ``0..n_cols``.

    ``columns[L]`` lists ``(row, value)`` pairs of the image of ``z**L``.
    ``mode`` mirrors the scalar mode of the data that built it.
    """

    _fields = ("kind", "n_rows", "n_cols", "columns", "mode", "warnings")

    def __init__(self, kind: str, n_rows: int, n_cols: int, columns: tuple, mode: str,
                 warnings: tuple = ()):
        self._set(kind, n_rows, n_cols, columns, mode, warnings)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows + 1, self.n_cols + 1)

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self.columns)

    def scaled_array(self, beta: WeightSequence) -> _CSR:
        """Float matrix of the operator in norm-isometric coordinates.

        Entry ``(n, L)`` is ``w(n) * T[n, L] / w(L)``; p-norm ratios of this
        matrix equal weighted-norm ratios of the operator, for every p.
        """
        return _csr(self, _scaled_entries(self, beta))


def _scaled_entries(T: OperatorMatrix, beta: WeightSequence) -> list[float]:
    """The entries of ``T.scaled_array(beta)`` in column order, as floats,
    reading the weights column by column, ``w(L)`` first: a short list fails
    at the first index this order reaches."""
    exact, wf = T.mode != FLOAT, _ReadOnce(beta.as_float)
    return [(_safe_float(value) if exact else value) * wf[row] / inv
            for L, col in enumerate(T.columns) for inv in (wf[L],) for row, value in col]


def _csr(T: OperatorMatrix, data: list[float]) -> _CSR:
    """The ``_CSR`` of ``T`` with the entries ``data``, in ``_scaled_entries``'
    order."""
    import numpy as np

    rows = np.array([row for col in T.columns for row, _ in col], dtype=np.intp)
    cols = [L for L, col in enumerate(T.columns) for _ in col]
    # A stable sort by row keeps each row's entries in column order.
    order = rows.argsort(kind="stable")
    return _CSR(np.array(data, dtype=np.float64)[order],
                np.array(cols, dtype=np.intp)[order], rows[order], T.shape)


class _CSR:
    """A float matrix in compressed sparse row form (Saad, *Iterative Methods
    for Sparse Linear Systems*, 2nd ed., 2003, section 3.4), whose entries,
    zeros included, also keep their row.  Both products are one
    ``np.bincount``, which adds each output entry's terms in storage order
    from 0.0, as the textbook CSR and CSC loops do, so the bits are theirs.
    """

    __slots__ = ("data", "indices", "row", "indptr", "shape", "nnz")

    def __init__(self, data: np.ndarray, indices: np.ndarray, row: np.ndarray,
                 shape: tuple[int, int]):
        self.data, self.indices, self.row, self.shape = data, indices, row, shape
        self.indptr, self.nnz = row.searchsorted(range(shape[0] + 1)), data.size

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        import numpy as np

        return np.bincount(self.row, weights=self.data * x[self.indices], minlength=self.shape[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """The transpose product ``A.T @ y``."""
        import numpy as np

        return np.bincount(self.indices, weights=self.data * y[self.row], minlength=self.shape[1])

    def __mul__(self, scale: float) -> _CSR:
        return _CSR(self.data * scale, self.indices, self.row, self.shape)

    def take_columns(self, keep: np.ndarray) -> _CSR:
        """``A[:, flatnonzero(keep)]`` for a boolean column mask ``keep``."""
        on = keep[self.indices]
        return _CSR(self.data[on], (keep.cumsum() - 1)[self.indices[on]], self.row[on],
                    (self.shape[0], int(keep.sum())))

    def column_power_sums(self, pf: float) -> list[float]:
        """``sum(|A[:, L]|**pf)`` per column, one sum over each column's entries
        in row order (``np.add.reduceat`` differs in the last bit)."""
        order = self.indices.argsort(kind="stable")
        powers = abs(self.data[order]) ** pf
        ends = self.indices[order].searchsorted(range(self.shape[1] + 1))
        return [float(powers[a:b].sum()) for a, b in zip(ends[:-1], ends[1:])]


def covering_rows(u: Optional[TruncatedSeries], phi: Optional[PolynomialSymbol],
                  n_cols: int) -> int:
    """The top row of ``u ◇ C_phi`` on columns ``0..n_cols``: ``deg(phi) *
    n_cols`` plus the top nonzero degree of ``u``, with ``phi = z`` when
    absent (a diamond multiplier) and ``u = 1`` when absent (a composition).
    A matrix with this many rows holds every column whole."""
    u_top = 0 if u is None else max((k for k, c in enumerate(u.coeffs) if c != 0), default=0)
    return (1 if phi is None else phi.degree) * n_cols + u_top


def build_matrix(u: Optional[TruncatedSeries], phi: Optional[PolynomialSymbol],
                 delta: DeltaSequence, n_rows: int, n_cols: int) -> OperatorMatrix:
    """Assemble the truncated matrix of ``u ◇ C_phi``.

    The kind follows from the operands: a ``"composition"`` when ``u`` is
    absent, a ``"diamond-mult"`` when ``phi`` is, a ``"substitution"``
    otherwise.  Column ``L`` holds the coefficients of the operator applied
    to ``z**L``: ``phi**L`` for a composition, and ``u ◇ phi**L`` otherwise,
    with ``phi = z`` for a diamond multiplier.  Monomial symbols build
    sparsely; general polynomial symbols are guarded by an entry-count limit.
    A warning is attached when ``n_rows`` is below :func:`covering_rows`.
    FLOAT entries are floats by construction, so none is converted.
    """
    for name, v in (("N_rows", n_rows), ("N_cols", n_cols)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValidationError(f"{name} must be a nonnegative integer, got {v!r}")
    if u is None and phi is None:
        raise ValidationError("an operator needs the series u, the symbol phi, or both")
    kind = "composition" if u is None else "diamond-mult" if phi is None else "substitution"
    if u is not None and phi is not None and u.mode != phi.mode:
        raise ValidationError("u and phi must share one scalar mode")
    mode = (u if phi is None else phi).mode

    needed = covering_rows(u, phi, n_cols)
    phi = PolynomialSymbol.monomial(1) if phi is None else phi
    support = [] if u is None else [(k, c) for k, c in enumerate(u.coeffs) if c != 0]
    if phi.monomial_degree() is None:
        _guard((n_rows + 1) * (n_cols + 1), f"dense {kind} build")
    elif u is not None:
        _guard(max(len(support), 1) * (n_cols + 1), f"{kind} build")
    powers = PowerTable(phi, degree_bound=n_rows, max_power=n_cols)
    if u is None:
        columns = tuple(tuple(powers.row_nonzeros(L)) for L in range(n_cols + 1))
    else:
        cols = []
        for L in range(n_cols + 1):
            acc: dict[int, object] = {}
            for j, pc in powers.row_nonzeros(L):
                for k, c in support:
                    row = j + k
                    if row > n_rows:
                        break
                    acc[row] = acc.get(row, 0) + delta.kernel(row, k) * c * pc
            cols.append(tuple(sorted((r, v) for r, v in acc.items() if v != 0)))
        columns = tuple(cols)

    warnings = ()
    if n_rows < needed:
        warnings = (f"columns clipped: top column reaches row {needed} but N_rows={n_rows}; "
                    "lower bounds may be deflated",)
    return OperatorMatrix(kind=kind, n_rows=n_rows, n_cols=n_cols, columns=columns,
                          mode=mode, warnings=warnings)


def apply(T: OperatorMatrix, f: TruncatedSeries) -> TruncatedSeries:
    """Matrix-vector product on coefficient vectors."""
    if f.degree_bound > T.n_cols:
        raise ValidationError(
            f"series degree bound {f.degree_bound} exceeds the column range {T.n_cols}"
        )
    float_mode = T.mode == FLOAT or f.mode == FLOAT
    zero = 0.0 if float_mode else 0
    out = [zero] * (T.n_rows + 1)
    for L, c in enumerate(f.coeffs):
        if c == 0:
            continue
        for row, value in T.columns[L]:
            out[row] += value * c
    return TruncatedSeries(tuple(out))


def _lone_front(T: OperatorMatrix, beta: WeightSequence, pf: float
                ) -> tuple[list[float], list[bool], float]:
    """``(data, coupled, lone)``, in plain floats, for both oracles: ``T``'s
    scaled entries (``_scaled_entries``), checked finite; which columns are
    coupled (hold a row that another entry also holds, explicit zeros
    included; none at p = 1, where the largest column sum is the norm); and
    the largest p-norm of the other, lone, columns.

    A one-entry column's norm is ``|v|``.  At p = 1 a column's entries are
    added in row order by ``+=``.  Otherwise the norm is taken as ``_pnorm``
    takes a vector: the largest entry times the norm of the column over it,
    so no sum leaves float range and a root of a sum far from 1 loses no bits
    to the rounded ``1 / pf`` (71 ulps at 1e68); at p = 2 the squares are
    ``r * r`` (libm's ``r ** 2`` rounds otherwise), added in row order by
    ``+=`` (``sum`` compensates since Python 3.12).  A norm past float range
    reads ``sys.float_info.max``, still below the true norm.
    """
    data = _scaled_entries(T, beta)
    if not all(map(math.isfinite, data)):
        raise ValidationError("operator has non-finite scaled entries")
    columns = T.columns
    coupled = [False] * len(columns)
    rows = [row for col in columns for row, _ in col]
    if pf != 1.0 and len(set(rows)) != len(rows):
        counts = Counter(rows)
        coupled = [any(counts[row] > 1 for row, _ in col) for col in columns]
    if all(len(col) <= 1 for col in columns) and not any(coupled):
        return data, coupled, max(map(abs, data), default=0.0)
    best, end = 0.0, 0
    for col, shared in zip(columns, coupled):
        start, end = end, end + len(col)
        if shared or start == end:
            continue
        mags = [abs(v) for _, v in sorted(zip(rows[start:end], data[start:end]),
                                          key=lambda entry: entry[0])]
        top, total = max(mags), 0.0
        for m in mags:
            r = m / max(top, 5e-324)
            total += m if pf == 1.0 else r * r if pf == 2.0 else r ** pf
        best = max(best, total if pf == 1.0 else
                   top * (math.sqrt(total) if pf == 2.0 else total ** (1.0 / pf)))
    return data, coupled, min(best, sys.float_info.max)


def _ldexp(x: float, exp2: int) -> float:
    """``x * 2**exp2``, or ``sys.float_info.max`` past float range: a lower stays one."""
    return math.ldexp(x, exp2) if math.frexp(x)[1] + exp2 <= 1024 else sys.float_info.max


def _power_run(A: _CSR, x: np.ndarray, iter_limit: int, tol: float):
    """Power iteration on the normal matrix from a given start vector.

    Returns ``(sigma, iterations, converged, delta, final_x)``; ``sigma`` is
    a Rayleigh-quotient value, hence a lower bound on the top singular value.
    """
    import numpy as np

    cols = A.shape[1]
    sigma_prev = 0.0
    sigma = 0.0
    delta = math.inf
    converged = False
    iterations = 0
    for k in range(iter_limit):
        iterations = k + 1
        z = A @ x
        rq = float(z @ z) / float(x @ x)
        sigma = math.sqrt(max(rq, 0.0))
        delta = sigma - sigma_prev
        if k > 0 and abs(delta) <= tol:
            converged = True
            break
        sigma_prev = sigma
        w = A.rmatvec(z)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            x = np.zeros(cols)
            x[k % cols] = 1.0
            sigma_prev = 0.0
        else:
            x = w / nw
    return sigma, iterations, converged, delta, x


def _power_top(A: _CSR, iter_limit: int, tol: float):
    """Top singular value of ``A`` by power iteration with probe restarts.

    The primary run starts from the fixed all-ones vector; because that start
    can be orthogonal to the top singular pair (convolution-type matrices
    often oscillate), two fixed probe starts briefly iterate afterwards, and
    whichever probe beats the primary value continues to a full run.
    Returns ``(sigma, iterations, converged, delta, notes)``.

    An iteration squares its entries twice (``norm(A.T @ A @ x)``), so a
    matrix whose entries could take that past float range is first scaled
    by a power of two, which is exact; ``tol`` and the probe margin scale
    with it, and the results are scaled back.  A matrix whose largest entry
    is below 1/2 is scaled up into ``[1/2, 1)`` with ``tol`` and the margin
    kept as they are: the norm is at least the largest entry, so a run stops
    only on a step below ``2 * tol`` times the norm.
    """
    import numpy as np

    cols = A.shape[1]
    margin = max(tol, 1e-13)
    top = float(np.abs(A.data).max(initial=0.0))
    large = top * math.sqrt(A.nnz) > 2.0 ** 250
    exp2 = math.frexp(top)[1] if large or 0.0 < top < 0.5 else 0
    if exp2:
        A = A * math.ldexp(1.0, -exp2)
    if large:
        tol, margin = math.ldexp(tol, -exp2), math.ldexp(margin, -exp2)
    ones = np.full(cols, 1.0 / math.sqrt(cols))
    sigma, iterations, converged, delta, _ = _power_run(A, ones, iter_limit, tol)
    total_iters = iterations
    notes = []

    alternating = ones * np.where(np.arange(cols) % 2 == 0, 1.0, -1.0)
    gaussian = np.random.default_rng(0).standard_normal(cols)
    probe_iters = min(iter_limit, 80)
    for probe in (alternating, gaussian):  # both nonzero: gaussian[0] is 0.1257...
        p_sigma, p_iters, _, _, p_x = _power_run(
            A, probe / float(np.linalg.norm(probe)), probe_iters, tol)
        total_iters += p_iters
        if p_sigma > sigma + margin:
            r_sigma, r_iters, r_conv, r_delta, _ = _power_run(
                A, p_x, iter_limit, tol)
            total_iters += r_iters
            if r_sigma > sigma:
                sigma, converged, delta = r_sigma, r_conv, r_delta
                if "restarted from a dominating probe start" not in notes:
                    notes.append("restarted from a dominating probe start")
    return _ldexp(sigma, exp2), total_iters, converged, _ldexp(delta, exp2), notes


def norm_estimate_l2(T: OperatorMatrix, beta: WeightSequence) -> BoundCertificate:
    """Largest singular value of the scaled matrix.

    Independent of the bound evaluators: works directly on the truncated
    matrix.  A *lone* column shares none of its rows with another column, so
    it is a 1x1 block of the normal matrix and its singular value is its own
    2-norm, which ``_lone_front`` takes exactly, in plain floats.  The
    *coupled* columns (all the others) go through deterministic power
    iteration with probe restarts (``_power_top``); when every column is
    coupled the matrix is passed on whole.  The estimate is the larger of the
    two parts.  Column norms and Rayleigh quotients never exceed the true
    norm, so the estimate is a certified lower bound.

    ``converged`` and ``tail_delta`` come from the power iteration; the note
    ``iterations=0`` means none ran because every column is lone (weighted
    composition and shift/stride substitution by unit monomials, or the zero
    matrix), and the value is then exact and numpy is not imported.
    """
    data, coupled, lone = _lone_front(T, beta, 2.0)
    n_lone = coupled.count(False)
    if n_lone == len(coupled):
        return BoundCertificate(lone, "lower", None, T.n_cols, 0.0, True,
                                ("iterations=0", f"{n_lone} lone columns taken exactly"))
    import numpy as np

    A = _csr(T, data)
    sigma, iterations, converged, delta, notes = _power_top(
        A.take_columns(np.array(coupled)) if n_lone else A, _L2_ITERATIONS, _L2_TOL)
    if n_lone:
        sigma = max(sigma, lone)
        notes.append(f"{n_lone} lone columns taken exactly")
    return BoundCertificate(sigma, "lower", None, T.n_cols, 0.0 if math.isinf(delta) else delta,
                            converged, ("power iteration on the scaled normal matrix",
                                        f"iterations={iterations}", *notes))


def _pnorm(x: np.ndarray, pf: float) -> float:
    import numpy as np

    if pf == 2.0:
        return float(np.linalg.norm(x))
    ax = np.abs(x)
    top = float(ax.max(initial=0.0))
    if top == 0.0:
        return 0.0
    ax /= top
    return top * float((ax ** pf).sum()) ** (1.0 / pf)


def norm_lower_search(T: OperatorMatrix, beta: WeightSequence, p, seed: int = 0
                      ) -> BoundCertificate:
    """Best weighted ratio ``norm(T x) / norm(x)`` found within
    ``_SEARCH_BUDGET`` ratio evaluations.

    At p = 1, and when every column is lone so that ``norm(A x)**p =
    sum_L norm(A[:, L])**p |x_L|**p``, the largest column p-norm
    (``_lone_front``, in plain floats) is the norm (``evaluations=0``), and
    numpy is not imported.  Otherwise the search runs on the coupled columns
    alone and reports the larger of its best and the lone columns.
    Candidates: every monomial column, dual-scaling fixed-point iterations
    from three fixed dense starts, seeded random sparse vectors, and
    coordinate ascent around the incumbent.  Deterministic for a fixed seed;
    up to rounding, the value never falls below the monomial column bound.
    """
    pf = float(p)
    if not math.isfinite(pf) or pf < 1:
        raise ValidationError(f"exponent must satisfy 1 <= p < inf, got {p!r}")
    data, coupled, lone = _lone_front(T, beta, pf)
    if not any(coupled):
        return BoundCertificate(lone, "lower", None, T.n_cols, 0.0, True,
                                ("largest column norm", "evaluations=0"))
    import numpy as np

    # |entries|**p and the dual iterates, up to (top * nnz)**max(p, q), could
    # leave float range: then A is scaled by a power of two, which is exact.
    top = max(map(abs, data))
    exp2 = math.frexp(top)[1] if top * len(data) > 2.0 ** (1000 / max(pf, pf / (pf - 1.0))) else 0
    A = _csr(T, data).take_columns(np.array(coupled))
    A = A * math.ldexp(1.0, -exp2) if exp2 else A
    col_norms = np.array([total ** (1.0 / pf) for total in A.column_power_sums(pf)])
    cols = A.shape[1]
    evals = 0
    product = None  # A @ x of the last ratio evaluated

    def ratio(x: np.ndarray) -> float:
        nonlocal evals, product
        evals += 1
        product = A @ x
        nx = _pnorm(x, pf)
        return 0.0 if nx == 0.0 else _pnorm(product, pf) / nx

    col_best = int(np.argmax(col_norms))
    best = float(col_norms[col_best])
    best_x = np.zeros(cols)
    best_x[col_best] = 1.0
    last_gain = 0.0

    def consider(x: np.ndarray) -> bool:
        nonlocal best, best_x, last_gain
        r = ratio(x)
        if r > best:
            last_gain = r - best
            best, best_x = r, x.copy()
            return True
        return False

    def dual_iterate(x0: np.ndarray, rounds: int) -> None:
        qf = pf / (pf - 1.0)
        x = x0.astype(float)
        nx = _pnorm(x, pf)
        if nx == 0.0:
            return
        x /= nx
        for _ in range(rounds):
            if evals >= _SEARCH_BUDGET:
                return
            consider(x)
            y = product
            s = np.sign(y) * np.abs(y) ** (pf - 1.0)
            z = A.rmatvec(s)
            if not np.any(z):
                return
            x = np.sign(z) * np.abs(z) ** (qf - 1.0)
            nx = _pnorm(x, pf)
            if nx == 0.0 or not np.isfinite(nx):
                return
            x /= nx

    starts = (
        np.ones(cols),
        np.where(np.arange(cols) % 2 == 0, 1.0, -1.0),
        np.random.default_rng(0).standard_normal(cols),
    )
    for x0 in starts:
        dual_iterate(x0, _SEARCH_BUDGET // 6)

    rng = np.random.default_rng(seed)
    trials = 0
    while evals + 2 <= _SEARCH_BUDGET and trials < 32:
        trials += 1
        size = int(rng.integers(1, min(8, cols) + 1))
        idx = rng.choice(cols, size=size, replace=False)
        x = np.zeros(cols)
        x[idx] = rng.uniform(-1.0, 1.0, size=size)
        if consider(x):
            dual_iterate(x, 5)

    step = 0.5
    while evals + 2 <= _SEARCH_BUDGET and step > 1e-6:
        improved = False
        order = rng.permutation(cols)
        for i in order:
            if evals + 2 > _SEARCH_BUDGET:
                break
            for sign in (1.0, -1.0):
                x = best_x.copy()
                x[i] += sign * step
                if consider(x):
                    improved = True
                    break
        if not improved:
            step /= 2.0

    gain = _ldexp(last_gain, exp2)
    return BoundCertificate(
        value=max(_ldexp(best, exp2), lone), kind="lower", attained_at=None,
        truncation_degree=T.n_cols, tail_delta=gain, converged=gain <= _SEARCH_TOL,
        notes=("randomized lower-bound search", f"evaluations={evals}", f"seed={seed}"),
    )
