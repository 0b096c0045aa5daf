"""Independent brute-force oracles used to check the library implementations.

Nothing here shares code with the package: the hull oracle is a plain O(n*k)
gift-wrapping march, membership is even-odd ray casting, and both work from
first principles on raw coordinate lists.  The per-point margin works one
half-space row at a time in plain floats.  The QP oracle enumerates active
sets and only borrows the package's result type.  The one exception is
the tube reader's reference, which builds hulls one at a time through the
public constructors, the path `read_natset` checks in one batch.
"""

import numpy as np

from natset.geometry import ConvexPolygon, HalfSpaceSet
from natset.natset import NaturalisticSet, TimedHull
from natset.qpsolver import QPSolution, SolverStatus


class NoFeasibleActiveSet(RuntimeError):
    """Active-set enumeration found no feasible candidate point."""


def gift_wrap(points):
    """Convex hull by gift wrapping (Jarvis march); CCW vertex array.

    Starts from the lexicographically smallest point and repeatedly wraps to
    the most counterclockwise remaining point, breaking exact ties by taking
    the farther point so collinear interior points never become vertices.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = np.unique(pts, axis=0)
    n = len(pts)
    start = 0  # np.unique sorts lexicographically
    hull = [start]
    cur = start
    while True:
        nxt = (cur + 1) % n
        for cand in range(n):
            if cand == cur:
                continue
            cross = (pts[nxt, 0] - pts[cur, 0]) * (pts[cand, 1] - pts[cur, 1]) - (
                pts[nxt, 1] - pts[cur, 1]
            ) * (pts[cand, 0] - pts[cur, 0])
            if cross < 0.0:
                nxt = cand
            elif cross == 0.0:
                d_nxt = np.sum((pts[nxt] - pts[cur]) ** 2)
                d_cand = np.sum((pts[cand] - pts[cur]) ** 2)
                if d_cand > d_nxt:
                    nxt = cand
        if nxt == start:
            break
        hull.append(nxt)
        cur = nxt
    return pts[hull]


def in_polygon_raycast(vertices, p, edge_tol=1e-12):
    """Even-odd ray casting membership test for a simple polygon.

    A point within ``edge_tol`` (perpendicular meters) of some edge counts as
    inside, so boundary points do not flip with float noise.
    """
    v = np.asarray(vertices, dtype=float)
    x, y = float(p[0]), float(p[1])
    n = len(v)
    for i in range(n):
        ax, ay = v[i]
        bx, by = v[(i + 1) % n]
        # On-segment check against edge_tol.
        ex, ey = bx - ax, by - ay
        ln = np.hypot(ex, ey)
        if ln > 0.0:
            t = ((x - ax) * ex + (y - ay) * ey) / (ln * ln)
            t = min(1.0, max(0.0, t))
            if np.hypot(x - (ax + t * ex), y - (ay + t * ey)) <= edge_tol:
                return True
    inside = False
    for i in range(n):
        ax, ay = v[i]
        bx, by = v[(i + 1) % n]
        if (ay > y) != (by > y):
            x_cross = ax + (y - ay) * (bx - ax) / (by - ay)
            if x_cross > x:
                inside = not inside
    return inside


def point_margin(halfspaces, p):
    """max_i (G_i . p - h_i) for one point, one row at a time: <= 0 inside.

    ``halfspaces`` is anything with ``G`` and ``h`` attributes.
    """
    x, y = float(p[0]), float(p[1])
    rows = zip(np.asarray(halfspaces.G).tolist(), np.asarray(halfspaces.h).tolist())
    return max(gx * x + gy * y - b for (gx, gy), b in rows)


def enumerate_oracle(qp):
    """Exact solve by brute force over all active sets.

    Exponential in the row count, so it refuses k > 16.  For each subset S
    the equality-constrained problem min 0.5 z'Pz + q'z s.t. A_S z = b_S is
    solved by the null-space method: with A_S' = [Y N] [R; 0] a complete
    QR factorization, z = Y R^{-T} b_S + N y where y minimizes the reduced
    objective, and stationarity P z + q + A_S' lam = 0 gives lam from R.
    Infeasible candidates are discarded and the best remaining objective
    wins.  Intended for test-side verification.

    The method solves for z without the multipliers, so multipliers of
    1e16 on rows of norm 1e-6 cost z no accuracy; LU on the full KKT
    matrix lost 1e-5 in z there, enough to fail the feasibility check.

    P is positive definite, so some optimal active set has linearly
    independent rows; subsets whose rows are numerically dependent are
    skipped, because solving their near-singular systems gives huge points
    that can pass the feasibility check of an infeasible program.
    """
    n, k = qp.n, qp.k
    if k > 16:
        raise ValueError(f"enumeration over 2^{k} active sets refused; need k <= 16")
    # a block program's matrix is its block times the identity
    P = np.kron(qp.P, np.eye(n // qp.P.shape[0]))
    best = None
    for mask in range(1 << k):
        idx = [i for i in range(k) if (mask >> i) & 1]
        m = len(idx)
        rows = np.asarray(qp.A[idx]).reshape(m, n)
        if m and np.linalg.matrix_rank(rows) < m:
            continue
        basis, R = np.linalg.qr(rows.T, mode="complete")
        Y, N, R = basis[:, :m], basis[:, m:], R[:m]
        try:
            z = Y @ np.linalg.solve(R.T, qp.b[idx]) if m else np.zeros(n)
            if n > m:
                z = z + N @ np.linalg.solve(N.T @ P @ N, -N.T @ (P @ z + qp.q))
            lam_S = np.linalg.solve(R, -Y.T @ (P @ z + qp.q)) if m else np.zeros(0)
        except np.linalg.LinAlgError:
            continue
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(lam_S))):
            continue
        if np.max(qp.A @ z - qp.b, initial=0.0) > 1e-9:
            continue
        obj = qp.objective(z)
        if best is None or obj < best[0] - 1e-14:
            lam = np.zeros(k)
            lam[idx] = lam_S
            best = (obj, z, lam)
    if best is None:
        raise NoFeasibleActiveSet("no active set yields a feasible KKT point")
    obj, z, lam = best
    return QPSolution(z, obj, SolverStatus.OPTIMAL, 1 << k, lam)


def read_hulls_one_by_one(doc):
    """A tube document's hulls built one at a time through the public
    constructors: the reference for `read_natset`'s batched check.

    Returns the NaturalisticSet, or raises ValueError with the message
    `read_natset` gives after the file name; polygon and half-space
    faults are prefixed with the hull's time index.
    """
    hulls = []
    for entry in doc["hulls"]:
        try:
            poly = ConvexPolygon(np.array(entry["vertices"], dtype=float))
            hs = HalfSpaceSet(np.array(entry["G"], dtype=float), np.array(entry["h"], dtype=float))
        except ValueError as exc:
            raise ValueError(f"hull at t={entry['t']}: {exc}") from None
        hulls.append(TimedHull(entry["t"], poly, hs, entry["support"]))
    return NaturalisticSet(tuple(hulls), float(doc["dt"]), doc.get("provenance", {}))
