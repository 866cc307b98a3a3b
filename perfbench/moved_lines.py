"""Custom-lines inputs: the 48 Fermat-quartic lines moved by a seeded matrix.

The lines of x^4 + y^4 + z^4 + w^4 = 0 are written here from their
classical description, without linesurf: with a, b running over the
fourth roots of -1 (the odd powers of zeta_8),

    A: through (a,1,0,0) and (0,0,b,1)
    B: through (a,0,1,0) and (0,b,0,1)
    C: through (a,0,0,1) and (0,b,1,0)

Both base points of every line are multiplied by one random invertible
4x4 integer matrix M with entries in ENTRY_RANGE.  The moved lines lie on
the smooth quartic F(M^-1 x) = 0, which is projectively equivalent to the
Fermat quartic, so the paper's hypotheses hold and every incidence
number is Fermat's; only the coordinates become generic.

Coordinates are integer vectors in Z[zeta_8] = Z[z]/(z^4 + 1), constant
term first.  Regenerate the files of one round with

    python3 perfbench/moved_lines.py --seed 1 --round 0 --out /tmp/moved
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction
from pathlib import Path

ENTRY_RANGE = (-9, 9)
FILES_PER_ROUND = 5

# The fourth roots of -1 in Z[zeta_8]: zeta_8, zeta_8^3, zeta_8^5 = -zeta_8, zeta_8^7 = -zeta_8^3.
ROOTS = ([0, 1, 0, 0], [0, 0, 0, 1], [0, -1, 0, 0], [0, 0, 0, -1])
ZERO = [0, 0, 0, 0]
ONE = [1, 0, 0, 0]


def fermat_quartic_lines() -> list[tuple[list, list]]:
    """The 48 lines as pairs of base points, each point four Z[zeta_8] vectors."""
    lines = []
    for a in ROOTS:
        for b in ROOTS:
            lines.append(([a, ONE, ZERO, ZERO], [ZERO, ZERO, b, ONE]))
    for a in ROOTS:
        for b in ROOTS:
            lines.append(([a, ZERO, ONE, ZERO], [ZERO, b, ZERO, ONE]))
    for a in ROOTS:
        for b in ROOTS:
            lines.append(([a, ZERO, ZERO, ONE], [ZERO, b, ONE, ZERO]))
    return lines


def _det(matrix) -> Fraction:
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(4):
        pivot = next((r for r in range(col, 4) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, 4):
            f = rows[r][col] / rows[col][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return det


def random_matrix(rng: random.Random) -> list[list[int]]:
    lo, hi = ENTRY_RANGE
    while True:
        matrix = [[rng.randint(lo, hi) for _ in range(4)] for _ in range(4)]
        if _det(matrix):
            return matrix


def _move(matrix, point):
    return [
        [sum(matrix[i][j] * point[j][c] for j in range(4)) for c in range(4)]
        for i in range(4)
    ]


def moved_lines(seed: int, round_index: int, slot: int):
    """The matrix and moved lines for one file; the same arguments give the same file."""
    rng = random.Random(f"moved-lines:{seed}:{round_index}:{slot}")
    matrix = random_matrix(rng)
    lines = [(_move(matrix, p), _move(matrix, q)) for p, q in fermat_quartic_lines()]
    return matrix, lines


def lines_json(lines) -> dict:
    """The custom-lines schema: ``{n, lines: [[point, point], ...]}`` over conductor 8."""
    return {
        "n": 4,
        "lines": [
            [[{"m": 8, "coeffs": [str(c) for c in coord]} for coord in pt] for pt in pair]
            for pair in lines
        ],
    }


def write_round(seed: int, round_index: int, out_dir: Path):
    """Write the FILES_PER_ROUND inputs of one round; return (path, lines) per file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    for slot in range(FILES_PER_ROUND):
        _, lines = moved_lines(seed, round_index, slot)
        path = out_dir / f"moved-s{seed}-r{round_index}-{slot}.json"
        path.write_text(json.dumps(lines_json(lines)), encoding="utf-8")
        files.append((path, lines))
    return files


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for path, _ in write_round(args.seed, args.round, args.out):
        print(path)


if __name__ == "__main__":
    main()
