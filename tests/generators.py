"""Random inputs shared by the tests: Hypothesis strategies and seeded
helpers."""

from __future__ import annotations

from hypothesis import strategies as st

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
