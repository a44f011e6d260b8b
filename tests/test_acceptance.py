"""Acceptance suite: one test per top-level criterion.

Each test prints a single PASS line on success (run with -s or look at the
-v listing); all comparisons are exact integer/rational equality, with
float eigenvalue cross-checks used only as independent test-time oracles.
"""

import random
import time

from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert, germ_report
from knotforms.cobordism import (EpsForm, algebraically_cobordant, eps_form_of,
                                 is_metaboliser, null_cobordance_obstructions,
                                 search_metaboliser)
from knotforms.exact import Matrix, det, smith_normal_form
from knotforms.invariants import Invariants
from knotforms.laurent import conway_normalize
from knotforms.quadratic import arf, is_even, karl, signature, QuadraticFormF2
from knotforms.seifert import (SeifertMatrix, alexander_polynomial,
                               intersection_form, is_quasi_unipotent, monodromy)
from knotforms.spheres import bp4k_order, bp_class, embeddable_spheres_group, im_j_order

from oracles import bernoulli_akiyama_tanigawa, float_signature, quadratic_suspension_seifert

A1 = Matrix([[-1, 0], [1, -1]])
H1 = Matrix([[0, 1], [-1, 1]])
I1 = Matrix([[0, 1], [-1, 0]])
A2 = Matrix([[-1, 0], [1, -1]])
H2 = Matrix([[0, -1], [1, -1]])
I2 = Matrix([[-2, 1], [1, -2]])


def test_criterion_1_golden_matrices():
    start = time.monotonic()
    s1 = brieskorn_seifert(BrieskornGerm((2, 3)))
    assert s1.matrix == A1
    assert monodromy(s1) == H1
    assert intersection_form(s1) == I1
    s2 = brieskorn_seifert(BrieskornGerm((2, 2, 3)))
    assert s2.matrix == A2
    assert monodromy(s2) == H2
    assert intersection_form(s2) == I2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden low-rank matrices exact ({elapsed:.3f}s)")


def test_criterion_2_quadratic_suspension_pattern():
    for n in range(0, 17):
        expected = Matrix([[1]]) if n % 4 in (0, 3) else Matrix([[-1]])
        assert quadratic_suspension_seifert(n) == expected
    print("PASS criterion 2: quadratic-suspension parity pattern for n <= 16")


def test_criterion_3_e8_germ():
    start = time.monotonic()
    rep = germ_report(BrieskornGerm((2, 3, 5)))
    assert rep.rank == 8
    assert rep.unimodular
    assert is_even(rep.intersection)
    assert abs(rep.form_signature) == 8
    assert float_signature(rep.intersection) == rep.form_signature
    # the same form in the dimension where its boundary is a 7-sphere:
    # class is a generator of the cyclic group of order 28
    cls = bp_class(Invariants(brieskorn_seifert(BrieskornGerm((2, 2, 2, 3, 5)))))
    assert cls.group.order == 28
    assert cls.sigma_over_8 in (1, -1)
    assert cls.class_residue in (1 % 28, -1 % 28)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 3: E8 germ rank/evenness/|signature|=8, "
          f"class +-1 mod 28 ({elapsed:.3f}s)")


def test_criterion_4_kervaire_sphere():
    rep = germ_report(BrieskornGerm((2, 2, 2, 2, 2, 3)))
    assert rep.seifert.q == 5
    assert rep.arf == 1
    group = embeddable_spheres_group(9)
    assert group.describe() == "Z/2"
    assert rep.bp.is_exotic
    print("PASS criterion 4: Kervaire germ gives an exotic 9-sphere (KARL = 1)")


def test_criterion_5_bernoulli_formulas():
    # recompute every golden with the independent Akiyama-Tanigawa oracle
    def oracle_bp(k):
        b = abs(bernoulli_akiyama_tanigawa(2 * k))
        return 2 ** (2 * k - 2) * (2 ** (2 * k - 1) - 1) * (4 * b / k).numerator

    def oracle_imj(k):
        b = abs(bernoulli_akiyama_tanigawa(2 * k))
        return (b / (4 * k)).denominator

    bp_golden = [28, 992, 8128, 261632]
    imj_golden = [24, 240, 504, 480]
    assert [oracle_bp(k) for k in (2, 3, 4, 5)] == bp_golden
    assert [bp4k_order(k) for k in (2, 3, 4, 5)] == bp_golden
    assert [oracle_imj(k) for k in (1, 2, 3, 4)] == imj_golden
    assert [im_j_order(k) for k in (1, 2, 3, 4)] == imj_golden
    print("PASS criterion 5: Bernoulli group orders match the recurrence oracle")


def test_criterion_6_levine_congruence_fuzz():
    start = time.monotonic()
    rng = random.Random(0x5E1F)
    ranks = [0, 2, 2, 4, 4, 6, 8]
    checked = 0
    while checked < 500:
        n = rng.choice(ranks)
        a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                   ncols=n)
        s = SeifertMatrix(a, q=rng.choice([1, 3, 5]))
        if not Invariants(s).unimodular:
            continue
        checked += 1
        delta = conway_normalize(alexander_polynomial(s))
        assert (delta(-1) - 1 - 4 * karl(s)) % 8 == 0, a.rows
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 6: Levine congruence on {checked} random "
          f"unimodular matrices ({elapsed:.1f}s)")


def test_criterion_7_cobordism():
    start = time.monotonic()
    trefoil = eps_form_of(brieskorn_seifert(BrieskornGerm((2, 3))))
    unknot = EpsForm(Matrix([], ncols=0), -1)
    hyperbolic = EpsForm(Matrix([[0, 1], [0, 0]]), -1)

    same = algebraically_cobordant(trefoil, trefoil, bound=2)
    assert same.status == "cobordant"
    assert is_metaboliser(_difference(trefoil, trefoil), same.witness.basis)
    # the diagonal sublattice is itself a certified witness
    assert is_metaboliser(_difference(trefoil, trefoil),
                          [(1, 0, 1, 0), (0, 1, 0, 1)])

    different = algebraically_cobordant(trefoil, unknot, bound=2)
    assert different.status == "not-cobordant"
    assert different.obstruction.name == "fox-milnor"

    null = search_metaboliser(hyperbolic, 1)
    assert null.found
    assert null_cobordance_obstructions(hyperbolic).all_pass
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 7: cobordance verdicts exact ({elapsed:.2f}s)")


def _difference(f1, f2):
    from knotforms.cobordism import negate, orthogonal_sum
    return orthogonal_sum(f1, negate(f2))


def test_criterion_8_monodromy_theorem():
    rng = random.Random(0xA15E)
    germs = [BrieskornGerm((65,)), BrieskornGerm((5, 17)), BrieskornGerm((2, 3, 5))]
    while len(germs) < 50:
        n_vars = rng.randint(1, 6)
        g = BrieskornGerm(tuple(rng.randint(2, 9) for _ in range(n_vars)))
        if g.milnor_number <= 64:
            germs.append(g)
    for g in germs:
        assert g.milnor_number <= 64
        h = monodromy(brieskorn_seifert(g))
        assert is_quasi_unipotent(h), g
    print(f"PASS criterion 8: monodromy quasi-unipotent for {len(germs)} germs")


def test_criterion_9_invariant_suites():
    rng = random.Random(0xC0FFEE)

    # symmetrization identity
    for _ in range(100):
        n = rng.randint(0, 4)
        a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                   ncols=n)
        s = SeifertMatrix(a, q=rng.randint(1, 4))
        assert intersection_form(s).scale(s.epsilon) == \
            a + a.transpose().scale(s.epsilon)

    # Arf basis-independence on the standard rank-4 symplectic form
    b = Matrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    for _ in range(30):
        values = tuple(rng.randint(0, 1) for _ in range(4))
        q = QuadraticFormF2(values=values, bilinear=b)
        reference = arf(q)
        p = Matrix.identity(4)
        for _ in range(5):
            i, j = rng.sample(range(4), 2)
            e = [[1 if x == y else 0 for y in range(4)] for x in range(4)]
            e[i][j] = 1
            p = p @ Matrix(e, ncols=4)
        cols = [tuple(p.rows[i][j] % 2 for i in range(4)) for j in range(4)]
        q2 = QuadraticFormF2(values=tuple(q(c) for c in cols),
                             bilinear=(p.transpose() @ b @ p).entries_mod(2))
        assert arf(q2) == reference

    # signature congruence-invariance
    for _ in range(40):
        n = rng.randint(1, 4)
        entries = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                entries[i][j] = entries[j][i] = rng.randint(-4, 4)
        m = Matrix(entries, ncols=n)
        p = Matrix.identity(n)
        for _ in range(4):
            if n < 2:
                break
            i, j = rng.sample(range(n), 2)
            e = [[1 if x == y else 0 for y in range(n)] for x in range(n)]
            e[i][j] = rng.randint(-2, 2)
            p = p @ Matrix(e, ncols=n)
        assert signature(p.transpose() @ m @ p) == signature(m)

    # signature of unimodular even forms is divisible by 8 (pipeline forms)
    for exponents in [(2, 3, 5), (2, 2, 3, 3), (2, 2, 2, 3, 5), (3, 5, 2)]:
        s = brieskorn_seifert(BrieskornGerm(exponents))
        if s.q % 2 == 0 and Invariants(s).unimodular:
            inter = intersection_form(s)
            assert is_even(inter)
            assert signature(inter) % 8 == 0

    # Smith normal form divisibility chains
    for _ in range(60):
        n, c = rng.randint(1, 4), rng.randint(1, 4)
        m = Matrix([[rng.randint(-5, 5) for _ in range(c)] for _ in range(n)])
        factors = smith_normal_form(m)
        for x, y in zip(factors, factors[1:]):
            if y != 0:
                assert x != 0 and y % x == 0

    # metaboliser witnesses re-verify
    found = 0
    while found < 10:
        n = rng.choice([2, 4])
        a = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)],
                   ncols=n)
        if det(a + a.transpose().scale(-1)) not in (1, -1):
            continue
        form = EpsForm(a, -1)
        result = search_metaboliser(form, 2)
        if result.found:
            found += 1
            assert is_metaboliser(form, result.witness.basis)
            assert null_cobordance_obstructions(form).all_pass
    print("PASS criterion 9: randomized module invariant suites hold")
