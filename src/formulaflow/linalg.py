"""Exact linear algebra over ``fractions.Fraction``.

:func:`solve_grounded_laplacian`, the sparse kernel behind every exact
Laplacian solve (unit currents, the injections and Dirichlet data of the
approximate-witness references), eliminates in minimum-degree order: on
series-parallel networks (treewidth at most two) that adds no fill, so its
cost grows about linearly.  The dense Gauss-Jordan routines below it
(:func:`rref`, :func:`solve_consistent`, :func:`nullspace` and
:func:`lex_min_quadratics`) no longer serve any production route: they are
the tests' oracle for the kernel and for the approximate-witness references.
Exact rationals keep both free of the tolerance questions of the float
routes they cross-check.
"""

from __future__ import annotations

import heapq
from fractions import Fraction


def solve_grounded_laplacian(n, edges, rhs):
    """Exact potentials ``x`` of the grounded Laplacian system ``L x = rhs``.

    Vertices ``0 .. n-1`` are free and vertex ``n`` is the ground, held at
    potential zero; ``edges`` holds ``(i, j, w)`` with positive rational
    conductance ``w`` (parallel edges add), and ``rhs`` the ``n`` injected
    currents (the ground takes up their sum; an edge to the ground with a
    Dirichlet value carries that value's current in ``rhs``).  The graph must
    be connected, so the grounded Laplacian is symmetric positive definite
    and needs no pivot search.  Vertices are eliminated in minimum-degree
    order from a lazy heap; a Schur complement of a grounded Laplacian is
    again one, so off-diagonal entries never cancel.  Returns the ``n``
    potentials.
    """
    diag = [Fraction(0)] * n
    off = [{} for _ in range(n)]
    for i, j, w in edges:
        if i < n:
            diag[i] += w
        if j < n:
            diag[j] += w
        if i < n and j < n:
            off[i][j] = off[i].get(j, 0) - w
            off[j][i] = off[j].get(i, 0) - w
    rhs = list(rhs)
    heap = [(len(row), k) for k, row in enumerate(off)]
    heapq.heapify(heap)
    done = [False] * n
    steps = []
    while heap:
        degree, k = heapq.heappop(heap)
        if done[k] or degree != len(off[k]):
            continue  # stale entry: a fresh one was pushed when the degree changed
        done[k] = True
        pivot, bk = diag[k], rhs[k]
        row = list(off[k].items())
        for a, la in row:
            adj = off[a]
            del adj[k]
            factor = la / pivot
            diag[a] -= factor * la
            if bk:
                rhs[a] -= factor * bk
            for b, lb in row:
                if b != a:
                    adj[b] = adj.get(b, 0) - factor * lb
        for a, _la in row:
            heapq.heappush(heap, (len(off[a]), a))
        steps.append((k, pivot, bk, row))
    x = [Fraction(0)] * n
    for k, pivot, bk, row in reversed(steps):
        x[k] = (bk - sum(lk * x[j] for j, lk in row)) / pivot
    return x


def _clone(matrix):
    return [row[:] for row in matrix]


def rref(matrix):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = _clone(matrix)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def solve_consistent(matrix, rhs):
    """Any exact solution of ``matrix @ x = rhs``, or None if inconsistent."""
    if not matrix:
        return [] if all(b == 0 for b in rhs) else None
    cols = len(matrix[0])
    aug = [row[:] + [b] for row, b in zip(matrix, rhs)]
    m, pivots = rref(aug)
    for row in m:
        if all(x == 0 for x in row[:-1]) and row[-1] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        if c == cols:
            return None
        x[c] = m[r][-1]
    return x


def nullspace(matrix):
    """Basis vectors (as lists) of the kernel of ``matrix``."""
    if not matrix:
        return []
    cols = len(matrix[0])
    m, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -m[r][free]
        basis.append(v)
    return basis


def mat_vec(matrix, vec):
    return [sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in matrix]


def quad_form(q, vec):
    """Exact value of vec^T Q vec for a symmetric rational matrix Q."""
    return sum((vec[i] * sum((q[i][j] * vec[j] for j in range(len(vec))), Fraction(0))
                for i in range(len(vec))), Fraction(0))


def lex_min_quadratics(eq_matrix, eq_rhs, forms):
    """Lexicographic minimization of PSD quadratic forms over an affine set.

    Over ``{v : eq_matrix v = eq_rhs}`` minimize ``v^T forms[0] v`` first,
    then ``v^T forms[1] v`` among the stage-one minimizers, and so on.
    Returns (v, [stage values]).  Raises ValueError if infeasible.
    """
    v0 = solve_consistent(eq_matrix, eq_rhs)
    if v0 is None:
        raise ValueError("equality constraints are infeasible")
    dim = len(v0)
    basis = nullspace(eq_matrix) if eq_matrix else [
        [Fraction(1) if j == i else Fraction(0) for j in range(dim)] for i in range(dim)
    ]
    for q in forms:
        if not basis:
            break
        k = len(basis)
        qv0 = mat_vec(q, v0)
        qb = [mat_vec(q, b) for b in basis]
        normal = [[sum((basis[i][r] * qb[j][r] for r in range(dim)), Fraction(0))
                   for j in range(k)] for i in range(k)]
        rhs = [-sum((basis[i][r] * qv0[r] for r in range(dim)), Fraction(0))
               for i in range(k)]
        z = solve_consistent(normal, rhs)
        v0 = [v0[r] + sum((z[j] * basis[j][r] for j in range(k)), Fraction(0))
              for r in range(dim)]
        kern = nullspace(normal)
        basis = [[sum((w[j] * basis[j][r] for j in range(k)), Fraction(0))
                  for r in range(dim)] for w in kern]
    values = [quad_form(q, v0) for q in forms]
    return v0, values
