"""Random inputs shared by the tests: Hypothesis strategies and seeded
helpers."""

from __future__ import annotations

from hypothesis import strategies as st

from knotforms.cobordism import EpsForm
from knotforms.exact import Matrix


def square_matrices(n: int, lo: int = -3, hi: int = 3):
    """n x n integer matrices with entries in [lo, hi]."""
    return st.lists(st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: Matrix(rows, ncols=n))


def matrix_pairs(max_n: int, lo: int = -3, hi: int = 3):
    """(a, b) of equal size 0..max_n."""
    return st.integers(0, max_n).flatmap(
        lambda n: st.tuples(square_matrices(n, lo, hi), square_matrices(n, lo, hi)))


def random_unimodular(rng, n, steps=6):
    """Product of `steps` random elementary integer matrices (det 1)."""
    p = Matrix.identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n >= 2 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        e = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        e[i][j] = c
        p = p @ Matrix(e, ncols=n)
    return p


@st.composite
def eps_forms(draw, max_genus: int, eps: int | None = None):
    """Eps-forms of rank 2g, 1 <= g <= max_genus, congruent by a random
    unimodular P to one of two base forms A0 with entries in [-1, 1]:

    * generic: A0 - eps A0^T is the standard symplectic (eps = -1) or
      hyperbolic (eps = +1) form, the rest of A0 random;
    * metabolic: A0 = [[0, I - eps Y^T], [Y, Z]] with Y, Z random, which
      vanishes on the first g coordinates (det A0 = 0 whenever Y is
      singular).
    """
    g = draw(st.integers(1, max_genus))
    if eps is None:
        eps = draw(st.sampled_from((-1, 1)))
    n = 2 * g
    entries = st.integers(-1, 1)
    a = [[0] * n for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i, n):
                x = draw(entries)
                if eps == -1:
                    a[i][j] = a[j][i] = x
                elif i != j:
                    a[i][j], a[j][i] = x, -x
        for i in range(g):
            a[i][g + i] += 1
    else:
        for i in range(g):
            for j in range(g):
                a[g + i][j] = draw(entries)
                a[g + i][g + j] = draw(entries)
        for i in range(g):
            for j in range(g):
                a[i][g + j] = int(i == j) - eps * a[g + j][i]
    p = random_unimodular(draw(st.randoms(use_true_random=False)), n)
    return EpsForm(p.transpose() @ Matrix(a, ncols=n) @ p, eps)
