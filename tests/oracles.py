"""Independent reference implementations used only by the tests.

These deliberately avoid the library's solution paths: the mesh solver uses
fundamental-loop currents instead of nodal analysis, the scaling oracle
uses exact rational arithmetic, the digit-dump oracles write and read one
line at a time instead of one array at a time, the encoder oracle works one
digit position at a time instead of five-digit groups, the output oracle
multiplies digit indicators by weights instead of looking up group tables, and
the CSV oracle formats one row at a time instead of one column at a time.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction

import numpy as np

from ternadac.errors import FileFormatError


def scale_oracle(sample: int, n_digits: int) -> tuple[int, bool]:
    """Exact-rational round-to-nearest (ties away from zero) with clamping."""
    m = (3**n_digits - 1) // 2
    q = Fraction(sample * m, 2**31 - 1)
    floor_q = math.floor(q)
    frac = q - floor_q
    if frac > Fraction(1, 2):
        t = floor_q + 1
    elif frac < Fraction(1, 2):
        t = floor_q
    else:
        t = floor_q + 1 if q > 0 else floor_q
    clamped = t < -m or t > m
    return max(-m, min(m, t)), clamped


def loop_current_solve(net, source_levels):
    """Solve a network by fundamental-loop (mesh) analysis.

    Branch convention: a branch (tail, head, R, emf) satisfies
    v_tail - v_head + emf = R * i with i flowing tail -> head. Source branches
    run ground -> node with emf = level, so a positive branch current is
    current out of the source's positive terminal, matching the library.

    Returns (node_voltages, source_currents). Dense; small networks only.
    """
    levels = [float(v) for v in source_levels]
    n_nodes = net.n_nodes

    branches: list[tuple[int, int, float, float]] = []
    for r in net.resistors:
        branches.append((r.node_a, r.node_b, r.ohms, 0.0))
    source_branch = []
    for src, level in zip(net.sources, levels):
        source_branch.append(len(branches))
        branches.append((0, src.node, src.series_ohms, level))

    adjacency: list[list[tuple[int, int, int]]] = [[] for _ in range(n_nodes)]
    for b, (tail, head, _, _) in enumerate(branches):
        adjacency[tail].append((head, b, +1))  # traversing tail -> head
        adjacency[head].append((tail, b, -1))  # traversing head -> tail

    # Spanning tree by BFS from ground. For each node remember the tree branch
    # and the traversal sign that leads back to its parent.
    parent: list[tuple[int, int, int] | None] = [None] * n_nodes
    seen = [False] * n_nodes
    seen[0] = True
    order = [0]
    tree = set()
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for other, b, sign in adjacency[node]:
            if not seen[other]:
                seen[other] = True
                # Walking other -> node traverses branch b with sign -sign.
                parent[other] = (b, -sign, node)
                tree.add(b)
                order.append(other)
                queue.append(other)
    assert all(seen), "oracle requires a connected network"

    def path_to_ground(node: int) -> dict[int, int]:
        # {branch: +1 if walked tail->head, -1 if head->tail} on node -> ground.
        path: dict[int, int] = {}
        while node != 0:
            b, sign, up = parent[node]
            path[b] = path.get(b, 0) + sign
            node = up
        return path

    chords = [b for b in range(len(branches)) if b not in tree]
    loops = np.zeros((len(chords), len(branches)))
    for c, b in enumerate(chords):
        tail, head, _, _ = branches[b]
        loops[c, b] = 1.0
        for tb, sign in path_to_ground(head).items():
            loops[c, tb] += sign
        for tb, sign in path_to_ground(tail).items():
            loops[c, tb] -= sign

    resistances = np.array([br[2] for br in branches])
    emfs = np.array([br[3] for br in branches])
    if chords:
        z = loops * resistances @ loops.T
        rhs = loops @ emfs
        branch_currents = loops.T @ np.linalg.solve(z, rhs)
    else:
        branch_currents = np.zeros(len(branches))

    # Node voltages by walking the tree outward from ground.
    voltages = np.zeros(n_nodes)
    for node in order[1:]:
        b, sign, up = parent[node]
        tail, head, ohms, emf = branches[b]
        drop = ohms * branch_currents[b] - emf  # v_tail - v_head
        # sign +1: node -> up walks tail -> head, so node is the tail.
        voltages[node] = voltages[up] + drop if sign == +1 else voltages[up] - drop
    source_currents = np.array([branch_currents[b] for b in source_branch])
    return voltages, source_currents


_DUMP_CHAR_TO_DIGIT = {"+": 1, "0": 0, "-": -1}


def write_digit_dump_oracle(path, digits, header_lines=()) -> None:
    """Digit dump written row by row, one character per digit."""
    digits = np.asarray(digits)
    lut = np.array(["-", "0", "+"])
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(line if line.endswith("\n") else line + "\n")
        for row in digits:
            fh.write("".join(lut[row + 1]) + "\n")


def read_digit_dump_oracle(path, n_digits=None) -> np.ndarray:
    """Digit dump read line by line, raising at the first malformed line."""
    rows: list[list[int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [_DUMP_CHAR_TO_DIGIT[c] for c in line]
            except KeyError as exc:
                raise FileFormatError(
                    f"{path}:{lineno}: invalid digit character {exc.args[0]!r}"
                ) from None
            if n_digits is not None and len(row) != n_digits:
                raise FileFormatError(
                    f"{path}:{lineno}: expected {n_digits} digits, found {len(row)}"
                )
            if rows and len(row) != len(rows[0]):
                raise FileFormatError(
                    f"{path}:{lineno}: inconsistent digit count {len(row)} != {len(rows[0])}"
                )
            rows.append(row)
    if not rows:
        width = n_digits if n_digits is not None else 0
        return np.empty((0, width), dtype=np.int8)
    return np.array(rows, dtype=np.int8)


def to_balanced_ternary_array_oracle(values, n_digits: int) -> np.ndarray:
    """Digit words built one digit position at a time: remainder 2 is digit -1 plus a carry."""
    t = np.asarray(values, dtype=np.int64).copy()
    digits = np.empty((t.size, n_digits), dtype=np.int8)
    for k in range(n_digits - 1, -1, -1):
        r = t % 3
        d = np.where(r == 2, -1, r)
        digits[:, k] = d
        t = (t - d) // 3
    return digits


def indicator_output_oracle(digits, w_pos, w_neg) -> np.ndarray:
    """Output volts of digit words as two indicator GEMVs: +1 digits times w_pos, less -1 digits times w_neg."""
    digits = np.asarray(digits)
    return (digits == 1).astype(float) @ w_pos - (digits == -1).astype(float) @ w_neg


def csv_rows_oracle(rows) -> str:
    """CSV data lines written one row at a time, every cell as ``str(cell)``."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)
