import random

import pytest

from knotforms.brieskorn import BrieskornGerm, brieskorn_seifert
from knotforms.exact import Matrix
from knotforms.invariants import Invariants
from knotforms.quadratic import is_even, signature
from knotforms.seifert import SeifertMatrix, intersection_form
from knotforms.spheres import (bp4k2_group, bp4k_order, bp_class,
                               embeddable_spheres_group, im_j_order)

from oracles import bernoulli_akiyama_tanigawa


def oracle_im_j(k):
    b = abs(bernoulli_akiyama_tanigawa(2 * k))
    return (b / (4 * k)).denominator


def oracle_bp4k(k):
    b = abs(bernoulli_akiyama_tanigawa(2 * k))
    return 2 ** (2 * k - 2) * (2 ** (2 * k - 1) - 1) * (4 * b / k).numerator


class TestImJOrder:
    def test_golden_values(self):
        assert [im_j_order(k) for k in (1, 2, 3, 4)] == [24, 240, 504, 480]

    def test_oracle_agreement(self):
        for k in range(1, 12):
            assert im_j_order(k) == oracle_im_j(k)

    def test_von_staudt_prime_divisibility(self):
        # every prime p with (p-1) | 2k divides the order
        for k in range(1, 12):
            order = im_j_order(k)
            for p in range(2, 2 * k + 2):
                if all(p % f for f in range(2, p)) and (2 * k) % (p - 1) == 0:
                    assert order % p == 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            im_j_order(0)


class TestBp4kOrder:
    def test_golden_values(self):
        assert [bp4k_order(k) for k in (2, 3, 4)] == [28, 992, 8128]

    def test_oracle_agreement(self):
        for k in range(2, 10):
            assert bp4k_order(k) == oracle_bp4k(k)

    def test_divisible_by_four(self):
        for k in range(2, 10):
            assert bp4k_order(k) % 4 == 0

    def test_k1_rejected(self):
        with pytest.raises(ValueError):
            bp4k_order(1)


class TestBp4k2Group:
    def test_dimension_6_trivial(self):
        assert bp4k2_group(1).kind == "trivial"

    def test_dimension_10_z2(self):
        assert bp4k2_group(2).describe() == "Z/2"

    def test_dimension_126_unknown(self):
        assert bp4k2_group(31).kind == "unknown"

    def test_all_exceptionals(self):
        for dim in (2, 6, 14, 30, 62):
            assert bp4k2_group((dim - 2) // 4).kind == "trivial"


class TestEmbeddableSpheresGroup:
    def test_dimension_7(self):
        v = embeddable_spheres_group(7)
        assert v.describe() == "Z/28"
        assert "E8" in v.generator

    def test_dimension_5_exceptional(self):
        assert embeddable_spheres_group(5).kind == "trivial"

    def test_dimension_9(self):
        assert embeddable_spheres_group(9).describe() == "Z/2"

    def test_even_always_trivial(self):
        for n in range(2, 40, 2):
            assert embeddable_spheres_group(n).kind == "trivial"

    def test_low_dimensions(self):
        for n in (1, 2, 3, 4):
            assert embeddable_spheres_group(n).kind == "trivial"

    def test_exceptional_list(self):
        for n in (5, 13, 29, 61):
            assert embeddable_spheres_group(n).kind == "trivial"
        assert embeddable_spheres_group(125).kind == "unknown"
        assert embeddable_spheres_group(11).describe() == "Z/992"
        assert embeddable_spheres_group(15).describe() == "Z/8128"


class TestBpClass:
    def test_standard_sphere(self):
        cls = bp_class(Invariants(SeifertMatrix(Matrix([], ncols=0), q=2)))
        assert cls.sigma_over_8 == 0
        assert not cls.is_exotic

    def test_milnor_sphere(self):
        cls = bp_class(Invariants(brieskorn_seifert(BrieskornGerm((2, 2, 2, 3, 5)))))
        assert cls.boundary_dim == 7
        assert cls.group.order == 28
        assert cls.sigma_over_8 in (1, -1)
        assert cls.is_exotic

    def test_kervaire_sphere(self):
        inv = Invariants(brieskorn_seifert(BrieskornGerm((2, 2, 2, 2, 2, 3))))
        cls = bp_class(inv)
        assert cls.boundary_dim == 9
        assert inv.arf == 1
        assert cls.group.describe() == "Z/2"
        assert cls.is_exotic

    def test_arf_caveat_in_trivial_dimension(self):
        # q = 3: boundary dimension 5 is exceptional, group trivial
        s = brieskorn_seifert(BrieskornGerm((2, 2, 2, 3)))
        cls = bp_class(Invariants(s))
        assert cls.boundary_dim == 5
        assert cls.group.kind == "trivial"
        assert not cls.is_exotic
        assert any("Arf" in note for note in cls.notes)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            bp_class(Invariants(SeifertMatrix(Matrix([[0]]), q=2)))

    def test_sigma_mod8_pipeline(self):
        # every unimodular even-q Seifert matrix from the germ pipeline has
        # an even intersection form with signature divisible by 8
        rng = random.Random(7000)
        seen = 0
        while seen < 10:
            exponents = tuple(rng.randint(2, 5)
                              for _ in range(rng.choice([3, 5])))
            g = BrieskornGerm(exponents)
            if g.milnor_number > 40:
                continue
            s = brieskorn_seifert(g)
            if not Invariants(s).unimodular:
                continue
            seen += 1
            inter = intersection_form(s)
            assert is_even(inter)
            assert signature(inter) % 8 == 0
