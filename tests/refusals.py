"""The CLI's refusals: one case per place where a command refuses its
input, each with exit code 2, empty stdout and one line on stderr.

A case is (id, argv, environment, stderr line).  Its paths are relative
to a directory that `write_files` fills, so that the lines do not name
that directory.  `tests/test_cli.py` runs every case in-process, and the
`refusals` workload of `tools/cli_diff.py` runs them against two trees.
"""

from __future__ import annotations

from pathlib import Path

FILES = {
    "trefoil.mat": "q=1 rank=2\n-1 0\n1 -1\n",
    "suspended.mat": "q=2 rank=2\n-1 0\n1 -1\n",
    "bad_header.mat": "q=1 rnk=2\n-1 0\n1 -1\n",
    # even q, unimodular, n = 2q - 1 = 3311 past the printable bP orders
    "q1656.mat": "q=1656 rank=2\n0 1\n0 0\n",
    # B = A - A^T = 0: not an eps-form
    "singular.mat": "q=1 rank=1\n1\n",
}
DIRECTORY = "dir"

MISSING = "error: [Errno 2] No such file or directory: 'missing.mat'"
BAD_HEADER = "error: line 1: header must be 'q=<int> rank=<int>', got 'q=1 rnk=2'"
IS_DIRECTORY = "error: [Errno 21] Is a directory: 'dir'"
PAST_DIGIT_LIMIT = ("error: |bP^(n+1)| at n = 3311 has more than 4300 digits, the limit on "
                    "integer string conversion; n = 3 (mod 4) must be <= 3307")

REFUSALS = [
    *[case for command in ("invariants", "handles") for case in (
        (f"{command}-missing", [command, "missing.mat"], {}, MISSING),
        (f"{command}-bad-header", [command, "bad_header.mat"], {}, BAD_HEADER),
        (f"{command}-directory", [command, DIRECTORY], {}, IS_DIRECTORY))],
    ("cobordant-missing", ["cobordant", "missing.mat", "trefoil.mat"], {}, MISSING),
    ("cobordant-bad-header", ["cobordant", "trefoil.mat", "bad_header.mat"], {}, BAD_HEADER),
    ("cobordant-directory", ["cobordant", DIRECTORY, "trefoil.mat"], {}, IS_DIRECTORY),
    ("invariants-past-digit-limit", ["invariants", "q1656.mat"], {}, PAST_DIGIT_LIMIT),
    ("brieskorn-past-digit-limit", ["brieskorn", "3", "5", *["2"] * 1655], {},
     PAST_DIGIT_LIMIT),
    ("brieskorn-exponent-1", ["brieskorn", "1"], {},
     "error: all exponents must be >= 2, got (1,)"),
    ("rank-limit-not-an-integer", ["brieskorn", "2", "3"], {"KNOTFORMS_RANK_LIMIT": "abc"},
     "error: KNOTFORMS_RANK_LIMIT must be an integer, got 'abc'"),
    ("milnor-number-over-limit", ["brieskorn", "770"], {"KNOTFORMS_RANK_LIMIT": "768"},
     "error: Milnor number 769 exceeds the rank limit 768 "
     "(override with KNOTFORMS_RANK_LIMIT)"),
    ("emit-matrix-one-exponent", ["brieskorn", "5", "--emit-matrix", "out.mat"], {},
     "error: --emit-matrix needs at least two exponents: matrix files require q >= 1, "
     "and this germ has q = 0"),
    ("emit-matrix-directory", ["brieskorn", "2", "3", "--emit-matrix", DIRECTORY], {},
     IS_DIRECTORY),
    ("cobordant-parity", ["cobordant", "trefoil.mat", "suspended.mat"], {},
     "error: parity mismatch: q=1 vs q=2"),
    ("cobordant-not-unimodular", ["cobordant", "trefoil.mat", "singular.mat"], {},
     "error: symmetrization has determinant 0, not +-1: not an eps-form"),
    ("groups-empty-range", ["groups", "5", "3"], {}, "error: need 1 <= N_MIN <= N_MAX"),
    ("groups-past-digit-limit", ["groups", "3300", "3320"], {}, PAST_DIGIT_LIMIT),
]


def write_files(root: Path) -> None:
    """Write the cases' files and their directory into root."""
    for name, text in FILES.items():
        (root / name).write_text(text)
    (root / DIRECTORY).mkdir()
