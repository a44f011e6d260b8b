import random

from knotforms.exact import Matrix
from knotforms.links import handle_data
from knotforms.seifert import SeifertMatrix, intersection_form

A1 = Matrix([[-1, 0], [1, -1]])


class TestHandleData:
    def test_trefoil(self):
        data = handle_data(SeifertMatrix(A1, q=1))
        assert data.linking == {(0, 1): 1}
        assert data.framing_kind == "none"
        assert data.framings is None

    def test_even_q_framings(self):
        data = handle_data(SeifertMatrix(A1, q=2))
        assert data.linking == {(0, 1): 1}
        assert data.framing_kind == "integer"
        assert data.framings == (-2, -2)

    def test_empty(self):
        data = handle_data(SeifertMatrix(Matrix([], ncols=0), q=1))
        assert data.linking == {} and data.rank == 0

    def test_mod2_framings(self):
        data = handle_data(SeifertMatrix(A1, q=5))
        assert data.framing_kind == "mod2"
        assert data.framings == (1, 1)

    def test_framing_group_vanishes_at_137(self):
        for q in (1, 3, 7):
            assert handle_data(SeifertMatrix(A1, q=q)).framing_kind == "none"

    def test_linking_equals_offdiagonal_intersection(self):
        rng = random.Random(55)
        for _ in range(60):
            n = rng.randint(0, 4)
            a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                       ncols=n)
            s = SeifertMatrix(a, q=rng.randint(1, 5))
            data = handle_data(s)
            inter = intersection_form(s)
            for (i, j), lk in data.linking.items():
                assert lk == inter.rows[i][j]

    def test_mod2_framing_matches_karl_quadratic(self):
        # for odd q outside 1,3,7 the framing of handle j is the value of
        # the mod-2 Seifert quadratic form on the j-th basis vector
        rng = random.Random(56)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)],
                       ncols=n)
            s = SeifertMatrix(a, q=5)
            data = handle_data(s)
            assert data.framings == tuple(a.rows[i][i] % 2 for i in range(n))
