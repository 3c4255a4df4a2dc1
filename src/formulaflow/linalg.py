"""Sparse grounded-Laplacian solves, exact and float, and exact dense
linear algebra over the rationals.

:func:`solve_grounded_laplacian`, the sparse kernel behind every exact
Laplacian solve (unit currents, the injections and Dirichlet data of the
approximate-witness references), eliminates in minimum-degree order: on
series-parallel networks (treewidth at most two) that adds no fill, so its
cost grows about linearly.  It takes and returns ``fractions.Fraction``s but
computes on reduced ``(numerator, denominator)`` int pairs, one ``math.gcd``
per operation.  :func:`solve_grounded_laplacian_float`, the one float
Laplacian solver, runs the same elimination in floats; both take their order
from one lazy minimum-degree heap, :func:`_min_degree`.

The dense Gauss-Jordan routines below them (:func:`rref`,
:func:`solve_consistent`, :func:`nullspace` and :func:`lex_min_quadratics`)
work in ``Fraction`` operators and no longer serve any production route:
they are the tests' oracle for the kernel and for the approximate-witness
references.  Exact rationals keep both free of the tolerance questions of
the float routes they cross-check.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction


def _sub_mul(x, f, y) -> tuple:
    """``x - f * y`` for ``(numerator, denominator)`` pairs with positive
    denominators, returned reduced with one ``math.gcd``."""
    (a, b), (c, d), (e, h) = x, f, y
    den = b * d * h
    num = a * d * h - c * e * b
    g = math.gcd(num, den)
    return num // g, den // g


def _min_degree(off):
    """Yield the vertices of the rows ``off`` in minimum-degree order, from a
    lazy heap.  Before asking for the next vertex the caller eliminates the
    one it was given: it deletes ``k`` from each neighbour's row and adds the
    fill among them, leaving ``off[k]`` itself as it was.  A neighbour is
    pushed again only when its degree differs from its last push; an entry
    it already has carries the same key, so the order is the same."""
    pushed = [len(row) for row in off]  # each vertex's degree at its last push
    heap = list(zip(pushed, range(len(off))))
    heapq.heapify(heap)
    done = [False] * len(off)
    while heap:
        degree, k = heapq.heappop(heap)
        if done[k] or degree != len(off[k]):
            continue  # stale entry: a fresh one was pushed when the degree changed
        done[k] = True
        yield k
        for a in off[k]:
            if len(off[a]) != pushed[a]:
                pushed[a] = len(off[a])
                heapq.heappush(heap, (pushed[a], a))


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
    potentials as ``Fraction``s.

    The arithmetic runs on reduced ``(numerator, denominator)`` int pairs.
    Every conductance is first scaled by the lcm of their denominators, so
    the matrix starts out integral; the potentials are scaled back at the end.
    """
    scale = math.lcm(*(w.denominator for _i, _j, w in edges))
    diag = [0] * n
    off = [{} for _ in range(n)]
    for i, j, w in edges:
        c = w.numerator * (scale // w.denominator)
        if i < n:
            diag[i] += c
        if j < n:
            diag[j] += c
        if i < n and j < n:
            off[i][j] = off[i].get(j, 0) - c
            off[j][i] = off[j].get(i, 0) - c
    diag = [(d, 1) for d in diag]
    off = [{j: (c, 1) for j, c in row.items()} for row in off]
    rhs = [(r.numerator, r.denominator) for r in rhs]
    steps = []
    for k in _min_degree(off):
        (pn, pd), bk = diag[k], rhs[k]
        row = list(off[k].items())
        for a, (ln, ld) in row:
            adj = off[a]
            del adj[k]
            fn, fd = ln * pd, ld * pn  # the factor la / pivot
            g = math.gcd(fn, fd)
            factor = fn // g, fd // g
            diag[a] = _sub_mul(diag[a], factor, (ln, ld))
            if bk[0]:
                rhs[a] = _sub_mul(rhs[a], factor, bk)
            for b, lb in row:
                if b != a:
                    adj[b] = _sub_mul(adj.get(b, (0, 1)), factor, lb)
        steps.append((k, pn, pd, bk, row))
    x = [(0, 1)] * n
    for k, pn, pd, bk, row in reversed(steps):
        sn, sd = bk
        for j, lk in row:
            sn, sd = _sub_mul((sn, sd), lk, x[j])
        g = math.gcd(sn * pd, sd * pn)
        x[k] = sn * pd // g, sd * pn // g
    return [Fraction(xn * scale, xd) for xn, xd in x]


def solve_grounded_laplacian_float(n, edges, rhs):
    """Float potentials of the system :func:`solve_grounded_laplacian` solves,
    by the same minimum-degree elimination in floats, with no pivot search
    and no dense fallback.

    ``rhs`` holds the ``n`` currents as floats; each conductance is converted
    once, by the correctly rounded ``w.numerator / w.denominator``.  Each
    vertex carries its conductance to the ground ``g`` in place of its
    diagonal entry: a pivot is ``g_k`` plus its row's magnitudes, and
    eliminating ``k`` adds ``|l_ak| * g_k / pivot`` to ``g_a``.  No diagonal
    is then a difference, so conductances many orders of magnitude apart lose
    nothing to cancellation, as they would on an assembled diagonal.
    """
    ground = [0.0] * n  # each vertex's conductance to the ground
    off = [{} for _ in range(n)]
    for i, j, w in edges:
        c = w.numerator / w.denominator
        if j == n:
            ground[i] += c
        elif i == n:
            ground[j] += c
        else:
            off[i][j] = off[i].get(j, 0.0) - c
            off[j][i] = off[j].get(i, 0.0) - c
    rhs = list(rhs)
    steps = []
    for k in _min_degree(off):
        gk, bk = ground[k], rhs[k]
        row = list(off[k].items())
        pivot = gk - sum(off[k].values())
        for a, la in row:
            adj = off[a]
            del adj[k]
            factor = la / pivot
            ground[a] -= factor * gk
            if bk:
                rhs[a] -= factor * bk
            for b, lb in row:
                if b != a:
                    adj[b] = adj.get(b, 0.0) - factor * lb
        steps.append((k, pivot, bk, row))
    x = [0.0] * n
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
