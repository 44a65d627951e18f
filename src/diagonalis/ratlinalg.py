"""Small exact linear-algebra kernels over the rationals and integers.

These back the exact geometry paths: barycentric coordinates (Cramer's
rule, which serves float points too), the inscribed conic's five-coefficient
linear system, and integer lattice membership for deviation sums.
Everything else is plain Gaussian or Euclidean elimination on
Fractions/ints; sizes never exceed a handful of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _reduce(rows, ncols):
    """Gauss-Jordan elimination in place over the first ``ncols`` columns.

    Returns the pivot columns; pivot k leads reduced row k.
    """
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(rows):
            break
        piv = next((r for r in range(row, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [v * inv for v in rows[row]]
        for r in range(len(rows)):
            if r != row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[row])]
        pivots.append(col)
    return pivots


def solve_exact(a, b):
    """Solve A x = b over the rationals; None if singular/inconsistent.

    ``a`` is a list of rows, ``b`` a list; entries Fraction-coercible.
    """
    m = len(a[0]) if a else 0
    aug = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    pivots = _reduce(aug, m)
    if len(pivots) < m or any(row[m] != 0 for row in aug[m:]):
        return None  # underdetermined or inconsistent
    return [row[m] for row in aug[:m]]


def nullspace_vector(a):
    """A nonzero rational vector in the nullspace of A (rows), or None.

    Intended for systems of corank exactly one; returns the free-variable
    basis vector of the reduced system.
    """
    m = len(a[0]) if a else 0
    mat = [[Fraction(x) for x in row] for row in a]
    pivots = _reduce(mat, m)
    free = [c for c in range(m) if c not in pivots]
    if not free:
        return None
    x = [Fraction(0)] * m
    x[free[0]] = Fraction(1)
    for r, col in enumerate(pivots):
        x[col] = -mat[r][free[0]]
    return x


def barycentric(p, a, b, c):
    """Barycentric coordinates of p in the triangle (a, b, c), or None if flat.

    Cramer's rule on plane points (``QC`` or ``complex``): exact for QC.
    """
    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    den = cross(b - a, c - a)
    if den == 0:
        return None
    return cross(b - p, c - p) / den, cross(c - p, a - p) / den, cross(a - p, b - p) / den


# ---------------------------------------------------------------------------
# integer lattices in the plane


def _lcm(a, b):
    return a * b // gcd(a, b) if a and b else max(abs(a), abs(b), 1)


def _to_integer_columns(gens, target):
    den = 1
    for g in gens:
        den = _lcm(den, g[0].denominator)
        den = _lcm(den, g[1].denominator)
    den = _lcm(den, target[0].denominator)
    den = _lcm(den, target[1].denominator)
    cols = [[int(g[0] * den), int(g[1] * den)] for g in gens]
    t = [int(target[0] * den), int(target[1] * den)]
    return cols, t


def lattice_solve(gens, target):
    """Integer coefficients x with sum_j x_j * gens[j] = target, or None.

    ``gens`` are rational plane vectors (pairs of Fractions); membership is
    decided exactly, so a None is a proof of non-membership.
    """
    m = len(gens)
    if m == 0:
        return [] if target[0] == 0 and target[1] == 0 else None
    cols, t = _to_integer_columns(gens, target)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]  # columns of U

    def colop_sub(j, k, q):
        # col_j -= q * col_k
        cols[j][0] -= q * cols[k][0]
        cols[j][1] -= q * cols[k][1]
        for r in range(m):
            u[r][j] -= q * u[r][k]

    def reduce_row(row, start):
        while True:
            nz = [j for j in range(start, m) if cols[j][row] != 0]
            if len(nz) <= 1:
                return nz[0] if nz else None
            j0 = min(nz, key=lambda j: abs(cols[j][row]))
            done = True
            for j in nz:
                if j == j0:
                    continue
                q = cols[j][row] // cols[j0][row]
                colop_sub(j, j0, q)
                if cols[j][row] != 0:
                    done = False
            if done and all(cols[j][row] == 0 for j in nz if j != j0):
                return j0

    p0 = reduce_row(0, 0)
    if p0 is not None and p0 != 0:
        cols[0], cols[p0] = cols[p0], cols[0]
        for r in range(m):
            u[r][0], u[r][p0] = u[r][p0], u[r][0]
    start1 = 1 if p0 is not None else 0
    p1 = reduce_row(1, start1) if m > start1 else None
    if p1 is not None and p1 != start1:
        cols[start1], cols[p1] = cols[p1], cols[start1]
        for r in range(m):
            u[r][start1], u[r][p1] = u[r][p1], u[r][start1]

    y = [0] * m
    if p0 is not None:
        a0 = cols[0][0]
        if t[0] % a0 != 0:
            return None
        y[0] = t[0] // a0
        rem = t[1] - y[0] * cols[0][1]
    else:
        if t[0] != 0:
            return None
        rem = t[1]
    if p1 is not None:
        b1 = cols[start1][1]
        if rem % b1 != 0:
            return None
        y[start1] = rem // b1
    else:
        if rem != 0:
            return None
    return [sum(u[r][j] * y[j] for j in range(m)) for r in range(m)]


def lattice_search_float(gens, target, bound, tol):
    """Bounded float search: integer combo of up to two generators hitting target.

    Returns coefficient list or None; None proves nothing (search control
    only).
    """
    m = len(gens)
    tx, ty = target
    scale = max(abs(tx), abs(ty), 1.0)
    if abs(tx) <= tol * scale and abs(ty) <= tol * scale:
        return [0] * m
    import itertools
    for i, j in itertools.combinations(range(m), 2):
        (a, b), (c, d) = gens[i], gens[j]
        det = a * d - b * c
        if abs(det) < 1e-14:
            continue
        x = (tx * d - ty * c) / det
        y = (a * ty - b * tx) / det
        xi, yi = round(x), round(y)
        if abs(x - xi) <= 1e-6 and abs(y - yi) <= 1e-6 and abs(xi) <= bound and abs(yi) <= bound:
            rx = xi * a + yi * c - tx
            ry = xi * b + yi * d - ty
            if abs(rx) <= tol * scale and abs(ry) <= tol * scale:
                out = [0] * m
                out[i], out[j] = xi, yi
                return out
    for i in range(m):
        a, b = gens[i]
        nrm = a * a + b * b
        if nrm < 1e-28:
            continue
        x = (tx * a + ty * b) / nrm
        xi = round(x)
        if abs(x - xi) <= 1e-6 and abs(xi) <= bound:
            if abs(xi * a - tx) <= tol * scale and abs(xi * b - ty) <= tol * scale:
                out = [0] * m
                out[i] = xi
                return out
    return None
