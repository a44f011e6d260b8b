"""The on-disk Seifert-matrix format.

A matrix file is plain text: optional comment lines starting with '#', a
header "q=<int> rank=<int>", each field once, then exactly `rank` rows of
`rank` whitespace-separated integers.  An integer is an optional sign and
ASCII digits.  Serialization and parsing round-trip bit-exactly.
"""

from __future__ import annotations

from .exact import Matrix
from .seifert import SeifertMatrix


class MatrixFileError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _integer(token: str) -> int:
    """int(token) for an optional sign and ASCII digits; ValueError for any
    other token, such as '1_0' or non-ASCII digits, which int() takes."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_matrix_file(text: str) -> SeifertMatrix:
    header = None
    header_line = 0
    rows: list[list[int]] = []
    q = rank = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line
            header_line = lineno
            parts = line.split()
            fields = {}
            for part in parts:
                if "=" not in part:
                    raise MatrixFileError(lineno, f"malformed header field {part!r}")
                key, _, value = part.partition("=")
                if key in fields:
                    raise MatrixFileError(lineno, f"repeated header field {key!r}")
                fields[key] = value
            if set(fields) != {"q", "rank"}:
                raise MatrixFileError(
                    lineno, f"header must be 'q=<int> rank=<int>', got {line!r}")
            try:
                q = _integer(fields["q"])
                rank = _integer(fields["rank"])
            except ValueError:
                raise MatrixFileError(lineno, f"non-integer header values in {line!r}")
            if q < 1:
                raise MatrixFileError(lineno, f"q must be >= 1, got {q}")
            if rank < 0:
                raise MatrixFileError(lineno, f"rank must be >= 0, got {rank}")
            continue
        try:
            row = [_integer(tok) for tok in line.split()]
        except ValueError:
            raise MatrixFileError(lineno, f"non-integer matrix entry in {line!r}")
        if len(row) != rank:
            raise MatrixFileError(
                lineno, f"expected {rank} entries per row, got {len(row)}")
        if len(rows) >= rank:
            raise MatrixFileError(lineno, f"more than {rank} matrix rows")
        rows.append(row)
    if header is None:
        raise MatrixFileError(1, "missing header 'q=<int> rank=<int>'")
    if len(rows) != rank:
        raise MatrixFileError(
            header_line, f"expected {rank} matrix rows, found {len(rows)}")
    return SeifertMatrix(Matrix(rows, ncols=rank), q=q)


def serialize_matrix_file(s: SeifertMatrix) -> str:
    lines = [f"q={s.q} rank={s.rank}"]
    for row in s.matrix.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
