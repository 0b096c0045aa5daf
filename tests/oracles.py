"""Independent brute-force oracles used to check the library implementations.

Nothing here shares code with the package: the hull oracle is a plain O(n*k)
gift-wrapping march, membership is even-odd ray casting, and both work from
first principles on raw coordinate lists.  `recursive_quickhull` is the
package's former one-set quickhull, recursion and all, kept as the bitwise
reference of its batched successor; it borrows only the package's
tolerances and its `DegenerateInput`.  The per-point margin works one
half-space row at a time in plain floats.  The QP oracle enumerates active
sets and only borrows the package's result type.  The exceptions are
the tube reader's reference, which checks the file's shape and then hulls
one at a time through the public constructors and `hull_faults`, the
rules `read_natset` checks in one batch; `stacked_tube`, which stacks
per-hull polygons and half-space sets into a tube through its
constructor; and the writers' references,
which round one value at a time and lay the document out with
`json.dump(indent=2)`.  The dynamics references keep the matrix form of the
double integrator: its planar A and B written out, a condensed map whose every
block is its own matrix product, and a rollout in plain Python floats.
"""

import json
from fractions import Fraction
from math import lcm

import numpy as np

from natset.geometry import (
    COLLINEAR_TOL,
    COORD_BOUND,
    DEDUP_GRID,
    ConvexPolygon,
    DegenerateInput,
    HalfSpaceSet,
)
from natset.natset import NaturalisticSet, hull_faults
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


def _line_dist(p, q, pts):
    """Signed distance of each row of ``pts`` to the line p->q; > 0 is left."""
    d = q - p
    return (d[0] * (pts[:, 1] - p[1]) - d[1] * (pts[:, 0] - p[0])) / np.hypot(d[0], d[1])


def _chain(pts, i, j, cand, dist):
    """Hull chain strictly left of pts[i]->pts[j], endpoints excluded.

    ``cand`` holds ascending original indices and ``dist`` their (positive)
    distances to the line i->j; np.argmax takes the first maximum, so ties go
    to the lowest index.
    """
    if cand.size == 0:
        return []
    k = int(cand[np.argmax(dist)])
    d1 = _line_dist(pts[i], pts[k], pts[cand])
    m1 = d1 > COLLINEAR_TOL
    d2 = _line_dist(pts[k], pts[j], pts[cand])
    m2 = d2 > COLLINEAR_TOL
    return _chain(pts, i, k, cand[m1], d1[m1]) + [k] + _chain(pts, k, j, cand[m2], d2[m2])


def recursive_quickhull(points):
    """The hull vertices of one (n, 2) point set by recursive
    farthest-point splitting, CCW from the lexicographically smallest, not
    yet checked as a polygon; raises DegenerateInput as `quickhull` does."""
    pts = np.asarray(points, dtype=float)
    if not np.all(np.abs(pts) <= COORD_BOUND):
        raise ValueError("input points beyond COORD_BOUND")
    if pts.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 points, got {pts.shape[0]}")
    # exact-match dedup on the DEDUP_GRID lattice; first occurrence wins
    keys = np.round(pts / DEDUP_GRID).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    pts = pts[np.sort(first)]
    if pts.shape[0] < 3:
        raise DegenerateInput("fewer than 3 distinct points after deduplication")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    a, b = int(order[0]), int(order[-1])
    off = _line_dist(pts[a], pts[b], pts)
    if np.max(np.abs(off)) <= COLLINEAR_TOL:
        raise DegenerateInput("all points collinear within tolerance")
    idx = np.arange(pts.shape[0])
    up = off > COLLINEAR_TOL
    lo = off < -COLLINEAR_TOL
    # upper then lower chain gives a CW tour; reverse it for CCW and rotate
    # the lexicographic minimum (a) back to the front
    cw = [a] + _chain(pts, a, b, idx[up], off[up]) + [b] + _chain(pts, b, a, idx[lo], -off[lo])
    ccw = cw[::-1]
    start = ccw.index(a)
    return pts[ccw[start:] + ccw[:start]]


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


def _integer_row(values):
    """Floats as integers: each times the least common denominator of all."""
    exact = [Fraction(v) for v in values]
    scale = lcm(*(v.denominator for v in exact))
    return [int(v * scale) for v in exact]


def exact_solve(M, B):
    """X with M X = B for a nonsingular square M, exactly, as lists of
    Fractions.  Each row of [M | B] is scaled to integers, which leaves X
    as it is, and reduced by fraction-free (Bareiss) Gauss-Jordan
    elimination: every entry stays an integer minor, so each division is
    exact, and M ends as its determinant times the identity."""
    n = len(M)
    rows = [_integer_row([*m, *b]) for m, b in zip(M, B)]
    prev = 1
    for k in range(n):
        pivot = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        head = rows[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                row[k:] = [(head[k] * a - f * h) // prev for a, h in zip(row[k:], head[k:])]
        prev = head[k]
    return [[Fraction(v, prev) for v in row[n:]] for row in rows]


def exact_kkt_point(qp, working):
    """The KKT point of a block program ``qp`` whose rows ``working`` hold
    with equality, solved exactly from the program's floats.

    Stationarity gives z = -P^{-1}(q + A_W' lam), and A_W z = b_W then
    gives (A_W P^{-1} A_W') lam = -b_W - A_W P^{-1} q.  P is its block
    times the identity, so P^{-1} is applied one block column at a time.
    Returns z and lam, lists of Fractions, and the margins A z - b of all
    k rows, as Fractions.  Stationarity is checked exactly before the
    return, so an answer that comes back is exact.
    """
    H, c, m = qp.P.shape[0], qp.n // qp.P.shape[0], len(working)
    rows = np.asarray(qp.A[np.arange(qp.k)], dtype=float)
    A_W = rows[working]
    # the columns q and each working row, as (H, c) blocks side by side
    blocks = np.hstack([qp.q.reshape(H, c), *A_W.reshape(m, H, c)])
    solved = exact_solve(qp.P.tolist(), blocks.tolist())
    inv = [[v for row in solved for v in row[c * j : c * (j + 1)]] for j in range(m + 1)]
    a = [[Fraction(v) for v in row] for row in A_W.tolist()]
    S = [[sum(x * y for x, y in zip(a[i], inv[1 + j])) for j in range(m)] for i in range(m)]
    r = [[-Fraction(qp.b[w]) - sum(x * y for x, y in zip(a[i], inv[0]))]
         for i, w in enumerate(working)]
    lam = [row[0] for row in exact_solve(S, r)]
    z = [-(inv[0][i] + sum(l * inv[1 + j][i] for j, l in enumerate(lam))) for i in range(qp.n)]
    # with z over a common denominator d, the products are of integers and floats
    d = lcm(*(v.denominator for v in z))
    numer = [int(v * d) for v in z]
    P = [[Fraction(v) for v in row] for row in qp.P.tolist()]
    Pz = [sum(p * numer[c * j + i % c] for j, p in enumerate(P[i // c])) for i in range(qp.n)]
    assert all(Pz[i] + d * (Fraction(qp.q[i]) + sum(a[j][i] * l for j, l in enumerate(lam))) == 0
               for i in range(qp.n))
    margins = [(sum(Fraction(x) * y for x, y in zip(row, numer) if x) - d * Fraction(b)) / d
               for row, b in zip(rows.tolist(), qp.b.tolist())]
    return z, lam, margins


def rollout_exact(dt, x0, accelerations):
    """The double integrator in Fractions: v += dt a, then p += dt v_old,
    from the float dt and state x0.  Returns a list of (p_x, v_x, p_y,
    v_y) rows."""
    dt = Fraction(dt)
    px, vx, py, vy = map(Fraction, np.asarray(x0, dtype=float).tolist())
    rows = [[px, vx, py, vy]]
    for ax, ay in zip(accelerations[0::2], accelerations[1::2]):
        px, vx, py, vy = px + dt * vx, vx + dt * ax, py + dt * vy, vy + dt * ay
        rows.append([px, vx, py, vy])
    return rows


def planar_matrices(dt):
    """A and B of the planar double integrator, x' = A x + B a with the
    state (p_x, v_x, p_y, v_y) and the acceleration (a_x, a_y), written out."""
    A = np.array([[1.0, dt, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, dt],
                  [0.0, 0.0, 0.0, 1.0]])
    B = np.array([[0.0, 0.0],
                  [dt, 0.0],
                  [0.0, 0.0],
                  [0.0, dt]])
    return A, B


def condense_blockwise(A, B, horizon):
    """Phi and Gamma of x' = A x + B u over ``horizon`` steps: block t of
    Phi is A^t, and every block (t, k < t) of Gamma is the product
    A^(t-1-k) B, formed once per lag t-1-k and placed along that lag's
    block diagonal."""
    nx, nu = B.shape
    powers = [np.eye(nx)]
    for _ in range(horizon):
        powers.append(A @ powers[-1])
    Phi = np.concatenate(powers)
    Gamma = np.zeros(((horizon + 1) * nx, horizon * nu))
    # block (t, k) of Gamma is blocks[t, :, k, :]
    blocks = Gamma.reshape(horizon + 1, nx, horizon, nu)
    for lag in range(horizon):
        k = np.arange(horizon - lag)
        blocks[k + 1 + lag, :, k, :] = powers[lag] @ B
    return Phi, Gamma


def rollout_scalar(dt, x0, controls):
    """The double-integrator recursion one step and one axis at a time in
    Python floats: v += dt a, then p += dt v_old.  Returns a list of
    (p_x, v_x, p_y, v_y) rows."""
    px, vx, py, vy = map(float, x0)
    rows = [[px, vx, py, vy]]
    for ax, ay in np.asarray(controls, dtype=float).tolist():
        px, vx = px + dt * vx, vx + dt * ax
        py, vy = py + dt * vy, vy + dt * ay
        rows.append([px, vx, py, vy])
    return rows


def read_hulls_one_by_one(doc):
    """A tube document checked in the order `read_natset` checks it, one
    hull at a time: the reference for its batched check.

    First the file's shape: in the first hull whose counts differ, as many
    G rows as h entries and one row per vertex, then time indices 0, 1, ...
    Then each hull through the public constructors, and `hull_faults` as a
    batch of one.  Returns the NaturalisticSet, or raises ValueError with
    the message `read_natset` gives after the file name.
    """
    entries = doc["hulls"]
    for entry in entries:
        n, rows, h = len(entry["vertices"]), len(entry["G"]), len(entry["h"])
        if rows != h:
            raise ValueError(f"hull at t={entry['t']}: inconsistent shapes G ({rows}, 2), "
                             f"h ({h},)")
        if n != rows:
            raise ValueError(f"hull at t={entry['t']}: {rows} half-space rows for {n} vertices; "
                             "need one row per edge")
    if [entry["t"] for entry in entries] != list(range(len(entries))):
        raise ValueError("hull time indices must be contiguous from 0")
    hulls = []
    for t, entry in enumerate(entries):
        try:
            poly = ConvexPolygon(np.array(entry["vertices"], dtype=float))
            hs = HalfSpaceSet(np.array(entry["G"], dtype=float), np.array(entry["h"], dtype=float))
        except ValueError as exc:
            raise ValueError(f"hull at t={t}: {exc}") from None
        fault = hull_faults([entry["support"]], poly.vertices, hs.G, hs.h, [0, len(poly)])
        if fault is not None:
            raise ValueError(f"hull at t={t}: {fault[1]}")
        hulls.append((poly, hs, entry["support"]))
    return stacked_tube(hulls, float(doc["dt"]), doc.get("provenance", {}))


def stacked_tube(hulls, dt, provenance=None):
    """The tube whose hull t is the t-th ``(polygon, halfspaces, support)``
    of ``hulls``: their arrays stacked in order and handed to the
    `NaturalisticSet` constructor, which checks them."""
    polygons, sets, support = zip(*hulls)
    return NaturalisticSet(np.concatenate([poly.vertices for poly in polygons]),
                           np.concatenate([hs.G for hs in sets]),
                           np.concatenate([hs.h for hs in sets]),
                           np.cumsum([0, *map(len, sets)]), support, dt,
                           {} if provenance is None else provenance)


def _round12(x):
    return float(f"{float(x):.11e}")


def _round12_nested(rows):
    return [[_round12(v) for v in row] for row in rows]


def _dump(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def write_natset_reference(natset, path):
    """A tube file as json.dump(indent=2) of values rounded one at a time:
    the reference for `write_natset`'s one-pass renderer."""
    doc = {
        "dt": _round12(natset.dt),
        "hull_dim": 2,
        "transform": [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        "hulls": [
            {
                "t": hull.t,
                "support": hull.support,
                "vertices": _round12_nested(hull.polygon.vertices),
                "G": _round12_nested(hull.halfspaces.G),
                "h": [_round12(v) for v in hull.halfspaces.h],
            }
            for hull in natset.hulls
        ],
    }
    if natset.provenance:
        doc["provenance"] = natset.provenance
    _dump(doc, path)


def write_projection_reference(result, candidate, path):
    """A projection file as json.dump(indent=2) of values rounded one at a
    time: the reference for `write_projection`'s one-pass renderer."""
    doc = {
        "status": result.status.value,
        "objective": _round12(result.objective),
        "states": _round12_nested(result.states),
        "controls": _round12_nested(result.controls),
        "violations_before": [
            None if v is None else _round12(v) for v in result.violation_report
        ],
        "active_constraints": [list(map(int, rows)) for rows in result.active_constraints],
        "candidate_states": _round12_nested(candidate.states),
    }
    _dump(doc, path)
