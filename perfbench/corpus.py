"""Seeded inputs for the three perfbench workloads.

Everything here is plain Python on lists of ints; nothing imports
knotforms.  The library only ever sees the argv lists and the matrix files
written from these structures.

Random unimodular Seifert matrices are built as a congruence P^T A0 P with
P a random unimodular matrix, so no candidate is ever rejected:

* odd q:  A0 = S + U with S random symmetric, so A0 - A0^T = U - U^T = J,
  the standard symplectic form;
* even q: A0 = K + U with K random antisymmetric, so A0 + A0^T = U + U^T = H,
  the hyperbolic form.

U is the g x g identity block in the upper right corner (rank 2g).  The
intersection form of A is then P^T (+-J or H) P, unimodular by construction.
"""

from __future__ import annotations

import random

# germ-ladder: the Milnor spheres Sigma(6k-1,3,2,2,2) (mu = 12k - 4) and the
# Kervaire spheres Sigma(d,2,2,2,2,2) (mu = d - 1).
MILNOR_KS = tuple(range(1, 5))
KERVAIRE_DS = tuple(range(3, 33, 2))

# matrix-files: number of files per rank, weighted toward small ranks.
MATRIX_RANK_COUNTS = {2: 40, 4: 40, 6: 30, 8: 24, 10: 16}
MATRIX_QS = (1, 2, 3)

# cobordance: pairs per (genus, q, kind) stratum, genus g meaning rank 2g
# per form and kind either an independent pair or a form against a
# congruent copy of itself.
COBORDANCE_PAIRS_PER_STRATUM = {1: 24, 2: 6, 3: 3}
COBORDANCE_QS = (1, 2)
COBORDANCE_BOUND = 2

# Entries of the random symmetric/antisymmetric part lie in
# [-ENTRY_BOUND, ENTRY_BOUND]; P is a signed permutation times a unit upper
# triangular matrix with rank // 2 off-diagonal entries +-1.
ENTRY_BOUND = 1


def _rng(seed: int, workload: str) -> random.Random:
    # one independent stream per workload, so adding a workload never
    # changes another workload's inputs
    return random.Random(f"{workload}:{seed}")


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def base_form(rng: random.Random, rank: int, q: int):
    """A0 with A0 - A0^T = J (odd q) or A0 + A0^T = H (even q)."""
    if rank % 2:
        raise ValueError("unimodular Seifert matrices have even rank")
    g = rank // 2
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            x = rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
            if q % 2:
                a[i][j] = a[j][i] = x
            elif i != j:
                a[i][j], a[j][i] = x, -x
    for i in range(g):
        a[i][g + i] += 1
    return a


def random_unimodular(rng: random.Random, n: int):
    """A signed permutation times a unit upper triangular matrix (det +-1)."""
    perm = list(range(n))
    rng.shuffle(perm)
    signed = [[(rng.choice((1, -1)) if perm[i] == j else 0) for j in range(n)]
              for i in range(n)]
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(cells, n // 2):
        upper[i][j] = rng.choice((1, -1))
    return matmul(signed, upper)


def congruent(a, p):
    return matmul(matmul(transpose(p), a), p)


def seifert_matrix(rng: random.Random, rank: int, q: int):
    return congruent(base_form(rng, rank, q), random_unimodular(rng, rank))


def serialize(matrix, q: int) -> str:
    lines = [f"q={q} rank={len(matrix)}"]
    lines.extend(" ".join(str(x) for x in row) for row in matrix)
    return "\n".join(lines) + "\n"


def germ_ladder(seed: int) -> list[dict]:
    """The germ list in a seeded order; the germs themselves are fixed."""
    ops = [{"name": f"milnor-k{k}", "family": "milnor", "k": k,
            "exponents": (6 * k - 1, 3, 2, 2, 2)} for k in MILNOR_KS]
    ops += [{"name": f"kervaire-d{d}", "family": "kervaire", "d": d,
             "exponents": (d, 2, 2, 2, 2, 2)} for d in KERVAIRE_DS]
    _rng(seed, "germ-ladder").shuffle(ops)
    return ops


def matrix_files(seed: int) -> list[dict]:
    rng = _rng(seed, "matrix-files")
    ops = []
    for rank, count in MATRIX_RANK_COUNTS.items():
        for _ in range(count):
            q = rng.choice(MATRIX_QS)
            ops.append({"q": q, "matrix": seifert_matrix(rng, rank, q)})
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["name"] = f"m{i:03d}.mat"
    return ops


def cobordance_pairs(seed: int) -> list[dict]:
    """Pairs whose congruence classes come from a fixed pool; the seed picks
    the representatives and the order.

    Congruence keeps the Alexander polynomial, so the factoring each pair
    needs is the same for every seed, while the matrices the obstruction
    battery and the metaboliser search see change with it.  (With the
    classes drawn per seed as well, how many pairs reach the factoring
    overrun swings by a third from seed to seed.)
    """
    pool = random.Random("cobordance-pool")
    rng = _rng(seed, "cobordance")
    ops = []
    for genus, count in COBORDANCE_PAIRS_PER_STRATUM.items():
        rank = 2 * genus
        for q in COBORDANCE_QS:
            for self_congruent in (False, True):
                for _ in range(count):
                    a = seifert_matrix(pool, rank, q)
                    b = a if self_congruent else seifert_matrix(pool, rank, q)
                    ops.append({"name": f"p{len(ops):03d}", "q": q, "genus": genus,
                                "a": congruent(a, random_unimodular(rng, rank)),
                                "b": congruent(b, random_unimodular(rng, rank)),
                                "self_congruent": self_congruent})
    rng.shuffle(ops)
    return ops
