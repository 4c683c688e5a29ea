"""Matrix realizations of the series operators, with norm bound machinery.

Operators act on coefficient vectors in the monomial basis.  A matrix stores
its columns sparsely (column ``L`` is the image of ``z**L``), so monomial
symbols scale to large truncations while general polynomial symbols stay
within a guarded dense budget.  Norm estimates are certified lower bounds:
truncation can only shrink an operator norm, never inflate it.

The l2 oracle ``norm_estimate_l2`` takes the norm of every *lone* column (one
that shares no row with another column, a 1x1 block of the normal matrix)
exactly and power-iterates only the remaining *coupled* columns.  Monomial
compositions and shift/stride substitutions have lone columns only, so their
estimate is exact and reports ``iterations=0``.

numpy and scipy are imported inside the oracle functions that use them, so
importing this module (and the exact-arithmetic side of the package) does not
load them; the ``np`` / ``sp`` annotations are never evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .combinatorics import PowerTable
from .series import (
    EXACT,
    FLOAT,
    PolynomialSymbol,
    TruncatedSeries,
    _float_pnorm,
)
from .weights import DeltaSequence, ValidationError, WeightSequence, _safe_float

__all__ = [
    "BoundCertificate",
    "MATRIX_KINDS",
    "OperatorMatrix",
    "ResourceLimitError",
    "apply",
    "build_matrix",
    "column_lower_bound",
    "norm_estimate_l2",
    "norm_lower_search",
]

MATRIX_KINDS = ("composition", "diamond-mult", "substitution")

DENSE_ENTRY_LIMIT = 10_000_000

CERTIFICATE_KINDS = ("lower", "upper", "exact")

# Fixed oracle budgets: power iterations and tolerance of ``norm_estimate_l2``,
# ratio evaluations and settling tolerance of ``norm_lower_search``.
_L2_ITERATIONS = 50_000
_L2_TOL = 1e-12
_SEARCH_BUDGET = 600
_SEARCH_TOL = 1e-9


class ResourceLimitError(RuntimeError):
    """A requested build exceeds the configured size guard."""


@dataclass(frozen=True)
class BoundCertificate:
    """A certified bound on an operator norm, with truncation diagnostics.

    ``value`` is the bound (may be ``inf``); ``kind`` says which side it
    certifies.  ``tail_delta`` is how much the running value moved over the
    final stretch of the scan and ``converged`` records whether that movement
    stayed within tolerance.  ``attained_at`` is the smallest index achieving
    the value, when one exists inside the scanned range.
    """

    value: float
    kind: str
    attained_at: Optional[int]
    truncation_degree: int
    tail_delta: float
    converged: bool
    notes: tuple = ()

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise ValidationError(f"certificate kind must be one of {CERTIFICATE_KINDS}")
        value = float(self.value)
        if math.isnan(value) or value < 0:
            raise ValidationError(f"certificate value must be nonnegative, got {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "tail_delta", float(self.tail_delta))
        if self.attained_at is not None and (
            not isinstance(self.attained_at, int) or self.attained_at < 0
        ):
            raise ValidationError("attained_at must be None or a nonnegative index")
        if not isinstance(self.truncation_degree, int) or self.truncation_degree < 0:
            raise ValidationError("truncation_degree must be a nonnegative integer")
        object.__setattr__(self, "converged", bool(self.converged))
        object.__setattr__(self, "notes", tuple(str(n) for n in self.notes))

    def as_report_dict(self) -> dict:
        return {
            "value": "inf" if math.isinf(self.value) else self.value,
            "kind": self.kind,
            "attained_at": self.attained_at,
            "truncation_degree": self.truncation_degree,
            "tail_delta": "inf" if math.isinf(self.tail_delta) else self.tail_delta,
            "converged": self.converged,
            "notes": list(self.notes),
        }


def _top_nonzero(coeffs: Sequence) -> int:
    top = 0
    for i, c in enumerate(coeffs):
        if c != 0:
            top = i
    return top


@dataclass(frozen=True)
class OperatorMatrix:
    """Column-sparse operator matrix over rows ``0..n_rows``, cols ``0..n_cols``.

    ``columns[L]`` lists ``(row, value)`` pairs of the image of ``z**L``.
    ``mode`` mirrors the scalar mode of the data that built it.
    """

    kind: str
    n_rows: int
    n_cols: int
    columns: tuple
    mode: str
    warnings: tuple = ()

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows + 1, self.n_cols + 1)

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self.columns)

    def scaled_array(self, beta: WeightSequence) -> sp.csr_matrix:
        """Float matrix of the operator in norm-isometric coordinates.

        Entry ``(n, L)`` is ``w(n) * T[n, L] / w(L)``; p-norm ratios of this
        matrix equal weighted-norm ratios of the operator, for every p.
        """
        import numpy as np
        import scipy.sparse as sp

        rows, cols, data = [], [], []
        for L, col in enumerate(self.columns):
            inv = beta.as_float(L)
            for row, value in col:
                rows.append(row)
                cols.append(L)
                data.append(_safe_float(value) * beta.as_float(row) / inv)
        return sp.csr_matrix(
            (data, (rows, cols)), shape=self.shape, dtype=np.float64
        )


def _check_dims(n_rows: int, n_cols: int) -> None:
    for name, v in (("N_rows", n_rows), ("N_cols", n_cols)):
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValidationError(f"{name} must be a nonnegative integer, got {v!r}")


def _guard(estimate: int, label: str) -> None:
    if estimate > DENSE_ENTRY_LIMIT:
        raise ResourceLimitError(
            f"{label} needs ~{estimate} entries; the guard allows {DENSE_ENTRY_LIMIT}"
        )


def _u_support(u: TruncatedSeries) -> list[tuple[int, object]]:
    return [(k, c) for k, c in enumerate(u.coeffs) if c != 0]


def build_matrix(kind: str, u: Optional[TruncatedSeries], phi: Optional[PolynomialSymbol],
                 delta: DeltaSequence, n_rows: int, n_cols: int) -> OperatorMatrix:
    """Assemble the truncated matrix of a composition / diamond-mult /
    substitution operator.

    Column ``L`` holds the coefficients of the operator applied to ``z**L``.
    Monomial symbols build sparsely; general polynomial symbols are guarded
    by an entry-count limit.  A warning is attached when ``n_rows`` is too
    small to hold every column untruncated.
    """
    if kind not in MATRIX_KINDS:
        raise ValidationError(f"kind must be one of {MATRIX_KINDS}, got {kind!r}")
    _check_dims(n_rows, n_cols)
    if kind in ("diamond-mult", "substitution") and u is None:
        raise ValidationError(f"{kind} operators require the series u")
    if kind in ("composition", "substitution") and phi is None:
        raise ValidationError(f"{kind} operators require the symbol phi")

    modes = set()
    if u is not None and kind != "composition":
        modes.add(u.mode)
    if phi is not None and kind != "diamond-mult":
        modes.add(phi.mode)
    if len(modes) > 1:
        raise ValidationError("u and phi must share one scalar mode")
    mode = modes.pop() if modes else EXACT

    warnings = []
    u_top = _top_nonzero(u.coeffs) if u is not None else 0
    phi_deg = phi.degree if phi is not None else 0

    if kind == "composition":
        needed = phi_deg * n_cols
        if phi.monomial_degree() is None:
            _guard((n_rows + 1) * (n_cols + 1), "dense composition build")
        powers = PowerTable(phi, degree_bound=n_rows, max_power=n_cols)
        columns = tuple(tuple(powers.row_nonzeros(L)) for L in range(n_cols + 1))
    elif kind == "diamond-mult":
        needed = n_cols + u_top
        support = _u_support(u)
        _guard(max(len(support), 1) * (n_cols + 1), "diamond-mult build")
        cols = []
        for L in range(n_cols + 1):
            col = []
            for k, c in support:
                row = k + L
                if row > n_rows:
                    break
                col.append((row, delta.kernel(row, k) * c))
            cols.append(tuple(col))
        columns = tuple(cols)
    else:
        needed = phi_deg * n_cols + u_top
        support = _u_support(u)
        if phi.monomial_degree() is None:
            _guard((n_rows + 1) * (n_cols + 1), "dense substitution build")
        else:
            _guard(max(len(support), 1) * (n_cols + 1), "substitution build")
        powers = PowerTable(phi, degree_bound=n_rows, max_power=n_cols)
        cols = []
        for L in range(n_cols + 1):
            acc: dict[int, object] = {}
            for j, pc in powers.row_nonzeros(L):
                for k, c in support:
                    row = j + k
                    if row > n_rows:
                        continue
                    term = delta.kernel(row, k) * c * pc
                    acc[row] = acc.get(row, 0) + term
            cols.append(tuple(sorted((r, v) for r, v in acc.items() if v != 0)))
        columns = tuple(cols)

    if n_rows < needed:
        warnings.append(
            f"columns clipped: top column reaches row {needed} but N_rows={n_rows}; "
            "lower bounds may be deflated"
        )

    if mode == FLOAT:
        columns = tuple(
            tuple((r, float(v)) for r, v in col) for col in columns
        )
    return OperatorMatrix(kind=kind, n_rows=n_rows, n_cols=n_cols, columns=columns,
                          mode=mode, warnings=tuple(warnings))


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


def _tail_stats(trajectory: Sequence[float], window: int, tolerance: float
                ) -> tuple[float, bool]:
    hi = trajectory[-1]
    w = min(window, len(trajectory) - 1)
    lo = trajectory[-1 - w] if w >= 1 else hi
    if math.isinf(hi):
        return math.inf, False
    delta = hi - lo
    return delta, abs(delta) <= tolerance


def column_lower_bound(T: OperatorMatrix, beta: WeightSequence, p,
                       tail_window: int = 10, tolerance: float = 1e-7
                       ) -> BoundCertificate:
    """Best ratio ``norm(T z**L) / w(L)`` over all monomial columns.

    Always a valid lower bound on the operator norm; the certificate records
    the first column achieving the maximum.
    """
    pf = float(p)
    if not math.isfinite(pf) or pf < 1:
        raise ValidationError(f"exponent must satisfy 1 <= p < inf, got {p!r}")
    best, attained = -1.0, None
    trajectory = []
    for L in range(T.n_cols + 1):
        column = ((value, beta.as_float(row)) for row, value in T.columns[L])
        ratio = _float_pnorm(column, pf) / beta.as_float(L)
        if ratio > best:
            best, attained = ratio, L
        trajectory.append(best)
    tail_delta, settled = _tail_stats(trajectory, tail_window, tolerance)
    return BoundCertificate(
        value=best, kind="lower", attained_at=attained,
        truncation_degree=T.n_cols, tail_delta=tail_delta,
        converged=settled and math.isfinite(best),
        notes=("monomial column scan",),
    )


def _finite_scaled(T: OperatorMatrix, beta: WeightSequence) -> sp.csr_matrix:
    import numpy as np

    A = T.scaled_array(beta)
    if A.nnz and not np.isfinite(A.data).all():
        raise ValidationError("operator has non-finite scaled entries")
    return A


def _power_run(A: sp.csr_matrix, x: np.ndarray, iter_limit: int, tol: float):
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
        w = A.T @ z
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            x = np.zeros(cols)
            x[k % cols] = 1.0
            sigma_prev = 0.0
        else:
            x = w / nw
    return sigma, iterations, converged, delta, x


def _power_top(A: sp.csr_matrix, iter_limit: int, tol: float):
    """Top singular value of ``A`` by power iteration with probe restarts.

    The primary run starts from the fixed all-ones vector; because that start
    can be orthogonal to the top singular pair (convolution-type matrices
    often oscillate), two fixed probe starts briefly iterate afterwards, and
    whichever probe beats the primary value continues to a full run.
    Returns ``(sigma, iterations, converged, delta, notes)``.

    An iteration squares its entries twice (``norm(A.T @ A @ x)``), so a
    matrix whose entries could take that past float range is first scaled
    by a power of two, which is exact; ``tol`` and the probe margin scale
    with it, and the results are scaled back.
    """
    import numpy as np

    cols = A.shape[1]
    margin = max(tol, 1e-13)
    top = float(np.abs(A.data).max(initial=0.0))
    exp2 = 0
    if top * math.sqrt(A.nnz) > 2.0 ** 250:
        exp2 = math.frexp(top)[1]
        A = A * math.ldexp(1.0, -exp2)
        tol, margin = math.ldexp(tol, -exp2), math.ldexp(margin, -exp2)
    ones = np.full(cols, 1.0 / math.sqrt(cols))
    sigma, iterations, converged, delta, _ = _power_run(A, ones, iter_limit, tol)
    total_iters = iterations
    notes = []

    alternating = ones * np.where(np.arange(cols) % 2 == 0, 1.0, -1.0)
    gaussian = np.random.default_rng(0).standard_normal(cols)
    probe_iters = min(iter_limit, 80)
    for probe in (alternating, gaussian):
        n_probe = float(np.linalg.norm(probe))
        if n_probe == 0.0:
            continue
        p_sigma, p_iters, _, _, p_x = _power_run(
            A, probe / n_probe, probe_iters, tol)
        total_iters += p_iters
        if p_sigma > sigma + margin:
            r_sigma, r_iters, r_conv, r_delta, _ = _power_run(
                A, p_x, iter_limit, tol)
            total_iters += r_iters
            if r_sigma > sigma:
                sigma, converged, delta = r_sigma, r_conv, r_delta
                if "restarted from a dominating probe start" not in notes:
                    notes.append("restarted from a dominating probe start")
    return math.ldexp(sigma, exp2), total_iters, converged, math.ldexp(delta, exp2), notes


def norm_estimate_l2(T: OperatorMatrix, beta: WeightSequence) -> BoundCertificate:
    """Largest singular value of the scaled matrix.

    Independent of the bound evaluators: works directly on the truncated
    matrix.  A *lone* column shares none of its rows with another column, so
    it is a 1x1 block of the normal matrix and its singular value is its own
    2-norm, taken exactly.  The *coupled* columns (all the others) go through
    deterministic power iteration with probe restarts (``_power_top``); when
    every column is coupled the matrix is passed on whole.  The estimate is
    the larger of the two parts.  Column norms and Rayleigh quotients never
    exceed the true norm, so the estimate is a certified lower bound.

    ``converged`` and ``tail_delta`` come from the power iteration; the note
    ``iterations=0`` means none ran because every column is lone (weighted
    composition and shift/stride substitution by unit monomials, or the zero
    matrix), and the value is then exact for the truncated matrix.
    """
    import numpy as np

    A = _finite_scaled(T, beta)
    # A row holding nonzeros of two or more columns couples those columns.
    row_counts = np.diff(A.indptr)
    coupled = np.zeros(A.shape[1], dtype=bool)
    coupled[A.indices[np.repeat(row_counts > 1, row_counts)]] = True
    n_lone = int(A.shape[1] - coupled.sum())
    lone_best = 0.0
    if n_lone:
        # Entries whose squares could sum past float range are scaled by a
        # power of two first, which is exact, and the norm scaled back.
        top = float(np.abs(A.data).max(initial=0.0))
        scale = 1.0
        if top * math.sqrt(A.nnz) > 2.0 ** 500:
            scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
        data = A.data / scale
        sq = np.bincount(A.indices, weights=data * data, minlength=A.shape[1])
        lone_best = float(np.sqrt(sq[~coupled].max())) * scale

    head, notes = [], []
    sigma, iterations, converged, delta = 0.0, 0, True, 0.0
    if n_lone < A.shape[1]:
        B = A[:, np.flatnonzero(coupled)] if n_lone else A
        sigma, iterations, converged, delta, notes = _power_top(B, _L2_ITERATIONS, _L2_TOL)
        head.append("power iteration on the scaled normal matrix")
    if n_lone:
        notes.append(f"{n_lone} lone columns taken exactly")
    return BoundCertificate(
        value=max(sigma, lone_best), kind="lower", attained_at=None,
        truncation_degree=T.n_cols,
        tail_delta=(0.0 if math.isinf(delta) else delta),
        converged=converged,
        notes=tuple(head + [f"iterations={iterations}"] + notes),
    )


def _pnorm(x: np.ndarray, pf: float) -> float:
    import numpy as np

    if pf == 2.0:
        return float(np.linalg.norm(x))
    ax = np.abs(x)
    top = float(ax.max(initial=0.0))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((ax / top) ** pf)) ** (1.0 / pf)


def norm_lower_search(T: OperatorMatrix, beta: WeightSequence, p, seed: int = 0
                      ) -> BoundCertificate:
    """Best weighted ratio ``norm(T x) / norm(x)`` found within
    ``_SEARCH_BUDGET`` ratio evaluations.

    Candidates: every monomial column, dual-scaling fixed-point iterations
    from three fixed dense starts, seeded random sparse vectors, and
    coordinate ascent around the incumbent.  Deterministic for a fixed seed;
    the value never falls below the monomial column bound.
    """
    import numpy as np

    pf = float(p)
    if not math.isfinite(pf) or pf < 1:
        raise ValidationError(f"exponent must satisfy 1 <= p < inf, got {p!r}")
    A = _finite_scaled(T, beta)
    At = A.T.tocsr()
    cols = A.shape[1]
    evals = 0

    def ratio(x: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        nx = _pnorm(x, pf)
        if nx == 0.0:
            return 0.0
        return _pnorm(A @ x, pf) / nx

    csc = A.tocsc()
    col_pows = np.abs(csc.data) ** pf if csc.nnz else np.array([])
    col_norms = np.zeros(cols)
    for L in range(cols):
        seg = col_pows[csc.indptr[L]:csc.indptr[L + 1]]
        col_norms[L] = float(np.sum(seg)) ** (1.0 / pf) if seg.size else 0.0
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
        if pf == 1.0:
            return
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
            y = A @ x
            s = np.sign(y) * np.abs(y) ** (pf - 1.0)
            z = At @ s
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

    value = max(best, float(col_norms[col_best]))
    return BoundCertificate(
        value=value, kind="lower", attained_at=None,
        truncation_degree=T.n_cols, tail_delta=last_gain,
        converged=last_gain <= _SEARCH_TOL,
        notes=("randomized lower-bound search", f"evaluations={evals}",
               f"seed={seed}"),
    )
