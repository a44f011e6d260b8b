import random
from itertools import permutations

import pytest

from knotforms.brieskorn import (BrieskornGerm, brieskorn_seifert, germ_report,
                                 pham_matrix, quadratic_suspension_seifert,
                                 sakamoto_product)
from knotforms.exact import Matrix, det
from knotforms.invariants import Invariants
from knotforms.laurent import Laurent, det_pencil
from knotforms.quadratic import is_even, karl, signature
from knotforms.seifert import (alexander_polynomial, characteristic_polynomial,
                               intersection_form, is_quasi_unipotent, monodromy)

from oracles import brieskorn_char_poly_numeric

A1 = Matrix([[-1, 0], [1, -1]])


def random_germs(rng, count, max_milnor=64):
    germs = []
    while len(germs) < count:
        n_vars = rng.randint(1, 6)
        exponents = tuple(rng.randint(2, 7) for _ in range(n_vars))
        g = BrieskornGerm(exponents)
        if g.milnor_number <= max_milnor:
            germs.append(g)
    return germs


class TestPhamMatrix:
    def test_a2(self):
        assert pham_matrix(2) == Matrix([[1]])

    def test_a3(self):
        assert pham_matrix(3) == Matrix([[1, 0], [-1, 1]])

    def test_a4_alexander_is_cyclotomic_product(self):
        p = pham_matrix(4)
        assert det(p) == 1
        # det(t P + P^T) must be 1 + t + t^2 + t^3 up to a unit
        poly = det_pencil(p, p.transpose())
        assert poly.unit_normalize() == Laurent({0: 1, 1: 1, 2: 1, 3: 1})

    def test_general_shape(self):
        for a in range(2, 9):
            p = pham_matrix(a)
            assert p.shape == (a - 1, a - 1)
            poly = det_pencil(p, p.transpose())
            assert poly.unit_normalize() == Laurent({e: 1 for e in range(a)})

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            pham_matrix(1)


class TestSakamoto:
    def test_join_square_with_cube(self):
        out = sakamoto_product(Matrix([[1]]), pham_matrix(3), n=0, m=0)
        assert out == A1

    def test_join_two_squares_with_cube(self):
        out = sakamoto_product(Matrix([[-1]]), pham_matrix(3), n=1, m=0)
        assert out == A1

    def test_empty_factor(self):
        out = sakamoto_product(A1, Matrix([], ncols=0), n=1, m=0)
        assert out.shape == (0, 0)


class TestBrieskornSeifert:
    def test_trefoil(self):
        s = brieskorn_seifert(BrieskornGerm((2, 3)))
        assert s.matrix == A1 and s.q == 1

    def test_suspended_trefoil(self):
        s = brieskorn_seifert(BrieskornGerm((2, 2, 3)))
        assert s.matrix == A1 and s.q == 2

    def test_kervaire_sphere_germ(self):
        s = brieskorn_seifert(BrieskornGerm((2, 2, 2, 2, 2, 3)))
        assert s.q == 5 and s.rank == 2
        assert karl(s) == 1

    def test_rank_is_milnor_number(self):
        rng = random.Random(42)
        for g in random_germs(rng, 25):
            assert brieskorn_seifert(g).rank == g.milnor_number

    def test_quadratic_suspension_parity_pattern(self):
        for n in range(0, 17):
            expected = Matrix([[1]]) if n % 4 in (0, 3) else Matrix([[-1]])
            assert quadratic_suspension_seifert(n) == expected

    def test_bad_exponents(self):
        with pytest.raises(ValueError):
            BrieskornGerm((1, 3))
        with pytest.raises(ValueError):
            BrieskornGerm(())


class TestMonodromyTheorem:
    def test_quasi_unipotent_sample(self):
        rng = random.Random(43)
        for g in random_germs(rng, 12, max_milnor=24):
            h = monodromy(brieskorn_seifert(g))
            assert is_quasi_unipotent(h)

    def test_char_poly_matches_root_of_unity_product(self):
        for exponents in [(2,), (3,), (2, 3), (2, 2), (3, 3), (2, 3, 4), (2, 2, 5)]:
            s = brieskorn_seifert(BrieskornGerm(exponents))
            chi = characteristic_polynomial(monodromy(s))
            coeffs = [chi.coefficient(e) for e in range(s.rank + 1)]
            assert brieskorn_char_poly_numeric(exponents, coeffs), exponents


class TestPermutationCovariance:
    def test_invariants_are_order_independent(self):
        rng = random.Random(44)
        for base in [(2, 3, 4), (2, 2, 3), (3, 3, 2), (2, 2, 2, 3)]:
            reports = []
            for perm in set(permutations(base)):
                s = brieskorn_seifert(BrieskornGerm(perm))
                delta = alexander_polynomial(s).unit_normalize()
                inter = intersection_form(s)
                unimod = Invariants(s).unimodular
                extra = None
                if unimod:
                    if s.q % 2 == 0:
                        extra = signature(inter)
                    else:
                        extra = karl(s)
                reports.append((delta, unimod, extra))
            first = reports[0]
            assert all(r == first for r in reports[1:])


class TestGermReport:
    def test_e8_germ(self):
        rep = germ_report(BrieskornGerm((2, 3, 5)))
        assert rep.seifert.q == 2
        assert rep.rank == 8
        assert rep.fibered and rep.quasi_unipotent
        assert rep.unimodular
        assert is_even(rep.intersection)
        assert abs(rep.signature) == 8
        assert rep.bp.sigma_over_8 in (1, -1)
        # boundary is 3-dimensional here: no exotic-sphere content
        assert rep.bp.boundary_dim == 3
        assert rep.bp.group.kind == "trivial"
        assert rep.anomalies == ()

    def test_e8_germ_in_milnor_dimension(self):
        rep = germ_report(BrieskornGerm((2, 2, 2, 3, 5)))
        assert rep.seifert.q == 4 and rep.rank == 8
        assert abs(rep.signature) == 8
        assert rep.bp.boundary_dim == 7
        assert rep.bp.group.describe() == "Z/28"
        assert rep.bp.class_residue in (1, 27)
        assert rep.bp.is_exotic

    def test_kervaire_sphere(self):
        rep = germ_report(BrieskornGerm((2, 2, 2, 2, 2, 3)))
        assert rep.seifert.q == 5
        assert rep.karl_value == 1
        assert rep.bp.boundary_dim == 9
        assert rep.bp.group.describe() == "Z/2"
        assert rep.bp.is_exotic

    def test_hopf_link_germ(self):
        # two variables, both squares: the boundary is not a homology sphere
        rep = germ_report(BrieskornGerm((2, 2)))
        assert rep.seifert.matrix == Matrix([[-1]])
        assert rep.fibered
        assert rep.monodromy == Matrix([[1]])
        assert rep.quasi_unipotent
        assert rep.intersection == Matrix([[0]])
        assert not rep.unimodular
        assert rep.alexander_raw.unit_normalize() == Laurent({0: -1, 1: 1})
        assert rep.alexander_conway is None
        assert rep.bp is None

    def test_trefoil_report(self):
        rep = germ_report(BrieskornGerm((2, 3)))
        assert rep.unimodular and rep.karl_value == 1
        assert rep.alexander_conway == Laurent({-1: 1, 0: -1, 1: 1})
