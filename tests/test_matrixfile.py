import pytest

from knotforms.exact import Matrix
from knotforms.matrixfile import (MatrixFileError, parse_matrix_file,
                                  serialize_matrix_file)
from knotforms.seifert import SeifertMatrix

TREFOIL_TEXT = """\
# the (2,3) torus knot
q=1 rank=2
-1 0
1 -1
"""


class TestParse:
    def test_basic(self):
        s = parse_matrix_file(TREFOIL_TEXT)
        assert s.q == 1
        assert s.matrix == Matrix([[-1, 0], [1, -1]])

    def test_empty_matrix(self):
        s = parse_matrix_file("q=1 rank=0\n")
        assert s.rank == 0

    def test_comments_and_blanks(self):
        text = "\n# c\n\nq=2 rank=1\n# mid\n5\n"
        assert parse_matrix_file(text).matrix == Matrix([[5]])

    def test_missing_header(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("1 0\n0 1\n")

    def test_bad_entry_reports_line(self):
        text = "q=1 rank=2\n-1 0\n1 x\n"
        with pytest.raises(MatrixFileError) as exc:
            parse_matrix_file(text)
        assert exc.value.line == 3

    def test_short_row_reports_line(self):
        text = "q=1 rank=2\n-1\n"
        with pytest.raises(MatrixFileError) as exc:
            parse_matrix_file(text)
        assert exc.value.line == 2

    def test_too_many_rows(self):
        text = "q=1 rank=1\n1\n2\n"
        with pytest.raises(MatrixFileError) as exc:
            parse_matrix_file(text)
        assert exc.value.line == 3

    def test_missing_rows(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("q=1 rank=2\n1 0\n")

    def test_q_zero_rejected(self):
        with pytest.raises(MatrixFileError):
            parse_matrix_file("q=0 rank=0\n")

    @pytest.mark.parametrize("header", ["q=1 q=2 rank=2", "q=2 rank=2 rank=2",
                                        "rank=2 q=1 rank=3"])
    def test_repeated_header_field_reports_line(self, header):
        with pytest.raises(MatrixFileError, match="repeated header field") as exc:
            parse_matrix_file(f"# c\n{header}\n-1 0\n1 -1\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "\uff11", "\u00b2", "+-1", "--1",
                                       "+", "-", "0x1", "1e2", "1.0", "\u0661\u0660"])
    def test_non_ascii_integer_entry_reports_line(self, token):
        with pytest.raises(MatrixFileError, match="non-integer matrix entry") as exc:
            parse_matrix_file(f"q=1 rank=2\n-1 0\n1 {token}\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("header", ["q=1_0 rank=0", "q=1 rank=\u0660", "q= rank=0",
                                        "q=+-1 rank=0"])
    def test_non_ascii_integer_header_reports_line(self, header):
        with pytest.raises(MatrixFileError, match="non-integer header") as exc:
            parse_matrix_file(f"\n{header}\n")
        assert exc.value.line == 2

    def test_signed_ascii_integers_accepted(self):
        s = parse_matrix_file("q=+1 rank=+2\n-1 +0\n+1 -01\n")
        assert s.q == 1
        assert s.matrix == Matrix([[-1, 0], [1, -1]])


class TestRoundTrip:
    def test_round_trip(self):
        s = parse_matrix_file(TREFOIL_TEXT)
        text = serialize_matrix_file(s)
        again = parse_matrix_file(text)
        assert again == s
        assert serialize_matrix_file(again) == text

    def test_serialize_empty(self):
        s = SeifertMatrix(Matrix([], ncols=0), q=3)
        assert serialize_matrix_file(s) == "q=3 rank=0\n"
