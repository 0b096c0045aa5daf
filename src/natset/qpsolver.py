"""Strictly convex quadratic programming by a dual active-set method.

Solves  min 0.5 z'Pz + q'z  subject to  Az <= b  for positive definite P
with the method of Goldfarb and Idnani (Math. Prog. 27, 1983).  It starts
at the unconstrained optimum -P^{-1}q and adds the most violated row to a
working set one step at a time, dropping a working row whenever its
multiplier would turn negative.  Every iterate is dual feasible, so the
first one that violates no row is the optimum.  A violated row that
depends linearly on the working set, and that no working multiplier can
block, proves the program infeasible.

P is given by one m x m block P_b with P = P_b (x) I_c, where c = n / m
follows from the length n of q: z keeps its c components per block index
adjacent, so P z is P_b @ z.reshape(m, c), and a program that passes all
of P has c = 1.  Only P_b is checked and factored.

A is either a dense (k, n) array or a row operator that stores no matrix.
The solver reaches rows only through ``A @ z`` (all k products),
``A[idx]`` (the dense rows idx, one index or an index array),
``A.shape`` and, for an operator, ``A.row_norms()``; it needs a full row
only when that row enters the working set, and the certificate needs
only the working rows.

With P = L L' the Cholesky factor kept by the program and N the m working
rows as columns, the method keeps the thin factor L^{-1} N = Q1 R: Q1 is
n x m with orthonormal columns and R is m x m upper triangular; the rest
of an orthogonal Q is never formed.  For a violated row a and
y = L^{-1} a, the multiplier direction is R^{-1} Q1'y and the primal step
is along L^{-T} (y - Q1 Q1'y), the part of y outside the working span.
A row enters by classical Gram-Schmidt with one reorthogonalization,
which appends the column (Q1'y, |y - Q1 Q1'y|) to R and the normalized
remainder to Q1; it is dependent on the working set when that remainder
is below _DEPENDENT_TOL |y|.  A row leaves by Givens rotations of R's
rows and Q1's columns, after which Q1's last column drops.  Optimal
returns carry a KKT certificate checked against the original problem
data, so callers can trust the status field whatever the rounding of the
factor.  Its four tests have their own scales: stationarity relative to
1 + max|q|, feasibility absolute, the multipliers' sign, and the duality
gap  sum_W lam_i |a_i z - b_i|  relative to the objective's terms
1 + |q'z| + z'Pz, so looser than an absolute bound where those terms are
large, as a huge linear term makes them, and about as strict near 1.

LAPACK's dpotrf makes L, and its dtrtrs makes every solve with L or R.
scipy wraps both and is imported where a program is factored or solved,
not with this module, so a command that solves no QP never loads it.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import geometry


class DimensionMismatch(ValueError):
    """Problem matrices and vectors have inconsistent shapes."""


class SolverStatus(Enum):
    OPTIMAL = "Optimal"
    MAX_ITER = "MaxIter"
    INFEASIBLE = "Infeasible"


def _freeze(arr, ndim):
    """`geometry._freeze` of arr, which must have ``ndim`` dimensions."""
    out = geometry._freeze(arr)
    if out.ndim != ndim:
        raise DimensionMismatch(f"expected {ndim}-d array, got shape {out.shape}")
    return out


# KKT certificate tolerances, checked against the original problem data:
# stationarity within _STAT_TOL (1 + max|q|) plus its terms' rounding,
# _ROUNDINGS eps (||P||_inf max|z| + |q| + |A_W|' |lam_W|) per entry, which
# huge multipliers magnify; max(A z - b) <= _FEAS_TOL; the duality gap within
# _COMP_SLACK_TOL (1 + |q'z| + z'Pz); and every lam_i >= -_DUAL_SIGN_TOL
_STAT_TOL = 1e-7
_FEAS_TOL = 1e-7
_COMP_SLACK_TOL = 1e-6
_DUAL_SIGN_TOL = 1e-9
_ROUNDINGS = 16
# a row enters the working set only when violated by more than this
_VIOL_TOL = 1e-9
# a violated row depends on the working set when the part of L^{-1} a
# outside the working span is this small relative to all of L^{-1} a
_DEPENDENT_TOL = 1e-10
# active-set steps before solve gives up; the method is finite in exact
# arithmetic, so the cap only stops cycling driven by rounding
_MAX_STEPS = 10_000


@dataclass(frozen=True)
class QuadraticProgram:
    """min 0.5 z'(P (x) I_c)z + q'z  s.t.  Az <= b,  with P positive definite.

    P is an m x m block and c = len(q) / m (see the module docstring).  P
    must be symmetric within 1e-10 and have a Cholesky factor, which
    LAPACK's dpotrf makes and which is kept as the lower triangular `L`
    (P = L L') for `solve`'s dtrtrs calls.  A is a dense (k, n) array,
    possibly with zero rows (unconstrained), or a row operator.
    """

    P: np.ndarray
    q: np.ndarray
    A: np.ndarray
    b: np.ndarray
    L: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "P", _freeze(self.P, 2))
        object.__setattr__(self, "q", _freeze(self.q, 1))
        object.__setattr__(self, "b", _freeze(self.b, 1))
        dense = not hasattr(self.A, "row_norms")
        if dense:
            object.__setattr__(self, "A", _freeze(self.A, 2))
        n, m = self.q.shape[0], self.P.shape[0]
        if self.P.shape != (m, m) or not m or n % m:
            raise DimensionMismatch(f"P is {self.P.shape}, q has length {n}")
        if self.A.shape[1] != n or self.A.shape[0] != self.b.shape[0]:
            raise DimensionMismatch(
                f"A is {self.A.shape}, b has length {self.b.shape[0]}, n={n}"
            )
        if not np.all(np.isfinite(self.P)) or not np.all(np.isfinite(self.q)):
            raise ValueError("objective contains non-finite entries")
        if (dense and not np.all(np.isfinite(self.A))) or not np.all(np.isfinite(self.b)):
            raise ValueError("constraints contain non-finite entries")
        if np.max(np.abs(self.P - self.P.T), initial=0.0) > 1e-10:
            raise ValueError("P is not symmetric within 1e-10")
        from scipy.linalg.lapack import dpotrf
        L, info = dpotrf(self.P, lower=1, clean=1)
        if info:
            raise ValueError("P is not positive definite; not strictly convex")
        L.setflags(write=False)
        object.__setattr__(self, "L", L)

    @property
    def n(self):
        return self.q.shape[0]

    @property
    def k(self):
        return self.b.shape[0]

    def blocks(self, z):
        """z as the (m, c) array on which the block P acts."""
        return np.reshape(z, (self.P.shape[0], -1))

    def objective(self, z):
        z = np.asarray(z, dtype=float)
        Z = self.blocks(z)
        return float(0.5 * np.vdot(Z, self.P @ Z) + self.q @ z)


@dataclass(frozen=True)
class QPSolution:
    z: np.ndarray
    objective: float
    status: SolverStatus
    iterations: int
    lam: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "z", _freeze(self.z, 1))
        object.__setattr__(self, "lam", _freeze(self.lam, 1))


def _row_norms(A):
    """Euclidean norms of the rows of a dense array or a row operator."""
    return A.row_norms() if hasattr(A, "row_norms") else np.linalg.norm(A, axis=1)


def _trtrs(dtrtrs, a, b, lower=0, trans=0):
    """a^{-1} b, or a^{-T} b with trans=1, for a Fortran-ordered triangular a.

    LAPACK's dtrtrs reads a's leading n columns, n = a.shape[1], with a's
    row count as its leading dimension, so a column slice of a larger
    factor needs no copy.  ``dtrtrs`` is scipy's wrapper, which `solve`
    imports once.
    """
    x, info = dtrtrs(a, b, lower=lower, trans=trans)
    if info:
        raise np.linalg.LinAlgError(f"dtrtrs returned info={info}")
    return x


def _triangular(dtrtrs, qp, v, trans=0):
    """L^{-1} v, or L^{-T} v with trans=1, for the full factor L (x) I_c."""
    return _trtrs(dtrtrs, qp.L, qp.blocks(v), lower=1, trans=trans).ravel()


def _certificate(qp, z, lam):
    """KKT check of a primal-dual pair against the original problem data.

    Returns (passed, stationarity residual, worst constraint violation).
    """
    eps = np.finfo(float).eps
    # only rows with a multiplier enter A'lam or the duality gap
    w = np.flatnonzero(lam)
    A_w = qp.A[w]
    Pz = (qp.P @ qp.blocks(z)).ravel()
    residual = np.abs(Pz + qp.q + A_w.T @ lam[w])
    size = (np.linalg.norm(qp.P, np.inf) * np.max(np.abs(z), initial=0.0)
            + np.abs(qp.q) + np.abs(A_w).T @ np.abs(lam[w]))
    stat_bound = _STAT_TOL * (1.0 + np.max(np.abs(qp.q), initial=0.0)) + _ROUNDINGS * eps * size
    margins = qp.A @ z - qp.b
    viol = np.max(margins, initial=0.0)
    gap = np.abs(lam[w]) @ np.abs(margins[w])
    passed = bool(
        np.all(residual <= stat_bound)
        and viol <= _FEAS_TOL
        and gap <= _COMP_SLACK_TOL * (1.0 + abs(qp.q @ z) + z @ Pz)
        and np.min(lam, initial=0.0) >= -_DUAL_SIGN_TOL
    )
    return passed, np.max(residual, initial=0.0), viol


def _split(Q1t, y):
    """(Q1'y, y - Q1 Q1'y) for Q1 given by its transpose, the working columns.

    Classical Gram-Schmidt with one reorthogonalization: the second pass
    removes what rounding left of y's working-span part, so the remainder
    is orthogonal to Q1 to working precision even when it is small.
    """
    w = Q1t @ y
    d = y - Q1t.T @ w
    c = Q1t @ d
    return w + c, d - Q1t.T @ c


def _drop(Qt, R, m, j):
    """Remove working column j of the m-column factor in place.

    Shifting R's later columns left leaves one subdiagonal entry per
    column; a Givens rotation of rows (i, i+1) zeroes each, and the same
    rotation of Q1's columns (Qt's rows) keeps L^{-1} N = Q1 R.  Q1's last
    column then lies outside the smaller working span, and is dropped.
    """
    R[:m, j : m - 1] = R[:m, j + 1 : m]
    for i in range(j, m - 1):
        a, b = R[i, i], R[i + 1, i]
        h = np.hypot(a, b)
        G = np.array([[a / h, b / h], [-b / h, a / h]])
        R[i : i + 2, i : m - 1] = G @ R[i : i + 2, i : m - 1]
        R[i + 1, i] = 0.0
        Qt[i : i + 2] = G @ Qt[i : i + 2]


def _grown(Qt, R, m):
    """Qt and R, whose room the m working rows fill, copied with room for 2m."""
    Qt2 = np.empty((2 * m, Qt.shape[1]))
    Qt2[:m] = Qt
    R2 = np.zeros((2 * m, 2 * m), order="F")
    R2[:m, :m] = R
    return Qt2, R2


def solve(qp):
    """Solve a strictly convex program by the Goldfarb-Idnani method.

    `iterations` counts active-set steps; each adds a violated row to the
    working set or drops a working row whose multiplier reached zero.
    Returns INFEASIBLE when a violated row depends linearly on the working
    set and no working multiplier can block it, and MAX_ITER when the
    step cap is reached or the final point fails its certificate.
    """
    from scipy.linalg.lapack import dtrtrs
    n, k = qp.n, qp.k
    z = _triangular(dtrtrs, qp, _triangular(dtrtrs, qp, -qp.q), trans=1)
    working = []  # row indices, in R's column order
    u = np.zeros(0)  # their multipliers
    # L^{-1} N = Q1 R for the working rows N as columns; Q1 is kept as its
    # transpose Qt and R in Fortran order, both with room for more rows
    cap = min(n, 8)
    Qt, R = np.empty((cap, n)), np.zeros((cap, cap), order="F")
    norms = None  # made when the first row is violated
    steps = 0
    status = None
    while status is None:
        margins = qp.A @ z - qp.b
        margins[working] = -np.inf
        violated = np.flatnonzero(margins > _VIOL_TOL)
        if not violated.size:
            status = SolverStatus.OPTIMAL
            break
        if norms is None:
            norms = _row_norms(qp.A)
            norms[norms == 0.0] = 1.0
        p = int(violated[np.argmax(margins[violated] / norms[violated])])
        a = qp.A[p]
        y = _triangular(dtrtrs, qp, a)
        y_norm = np.linalg.norm(y)
        u_p = 0.0
        while True:
            if steps == _MAX_STEPS:
                status = SolverStatus.MAX_ITER
                break
            steps += 1
            m = len(working)
            w, d = _split(Qt[:m], y)
            r = _trtrs(dtrtrs, R[:, :m], w)
            # dual step limit: the first working multiplier to reach zero
            blocking = np.flatnonzero(r > 0.0)
            t1, j = np.inf, -1
            if blocking.size:
                ratios = u[blocking] / r[blocking]
                j = int(blocking[np.argmin(ratios)])
                t1 = float(ratios.min())
            norm2 = float(d @ d)
            if np.sqrt(norm2) <= _DEPENDENT_TOL * y_norm:
                if j < 0:
                    status = SolverStatus.INFEASIBLE
                    break
                t = t1  # dual step only: z stays put
            else:
                # primal step limit: row p becomes tight
                t2 = float(a @ z - qp.b[p]) / norm2
                t = min(t1, t2)
                z = z - t * _triangular(dtrtrs, qp, d, trans=1)
                if t2 <= t1:
                    if m == len(Qt):
                        Qt, R = _grown(Qt, R, m)
                    Qt[m] = d / np.sqrt(norm2)
                    R[:m, m] = w
                    R[m, m] = np.sqrt(norm2)
                    working.append(p)
                    u = np.append(u - t * r, u_p + t)
                    break
            u = np.delete(u - t * r, j)
            u_p += t
            _drop(Qt, R, m, j)
            del working[j]

    lam = np.zeros(k)
    lam[working] = u
    certified, _, _ = _certificate(qp, z, lam)
    if status is SolverStatus.OPTIMAL and not certified:
        status = SolverStatus.MAX_ITER
    return QPSolution(z, qp.objective(z), status, steps, lam)
