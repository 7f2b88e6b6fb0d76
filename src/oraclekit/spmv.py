"""COO sparse matrices and sequential vector-matrix multiplication.

A sparse matrix is three parallel arrays of row indices, column indices
and nonzero values, strictly (row, column)-sorted: the COO format of
Saad, *Iterative Methods for Sparse Linear Systems* (2nd ed., 2003,
§3.4). Indices are 1-based at the construction and file boundary,
0-based internally. Canonical files (single spaces and newlines) parse
through the stdlib JSON scanner, others token by token, with the same
results and errors. Whole-array passes validate input; a per-triplet
scan runs only to name the first invalid triplet. The product
``y[c] = sum over rows r of x[r] * m[r][c]`` touches only stored entries.

All arithmetic is exact 64-bit signed: any intermediate product or sum
outside [-2^63, 2^63 - 1] raises OverflowError instead of wrapping.
Exact integers keep every evaluation order bit-identical, which is what
makes the parallel equivalence checks in ``parallel`` decidable.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NoReturn, Optional, Sequence

from .errors import BoundsError, DimensionError, OrderError, ZeroEntryError

__all__ = [
    "DECIMAL_RE",
    "INT64_MAX",
    "INT64_MIN",
    "CooMatrix",
    "accumulate",
    "coo_from_text",
    "coo_from_triplets",
    "coo_to_text",
    "dense_from_rows",
    "from_dense",
    "multiply_seq",
    "oracle_multiply_dense",
    "to_dense",
]

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# The one token grammar of both file formats (sequence and COO matrix).
DECIMAL_RE = re.compile(r"[+-]?[0-9]+")
# A canonical file's alphabet, in which JSON reads every token as an int.
_CANONICAL_RE = re.compile(r"[0-9 \n-]*")


def _decimals(text: str, what: str) -> list[int]:
    """The whitespace-separated ``DECIMAL_RE`` tokens of ``text`` as ints.
    Canonical text (single spaces and newlines) goes through the stdlib JSON
    scanner, with no string per token; JSON takes no "+", leading zero, "_"
    or empty element. Any other text, or one the scanner refuses, takes the
    per-token pass and ``_reject_first_bad``: same results, same errors.
    A late refusal reads a text twice; a pre-scan for doubled separators
    would cost every canonical file 7.6 of a 17.5 ms parse (10^5 integers)
    and 26.7 of 89 ms (2*10^5 triplets) on 2 vCPUs, so there is none."""
    if not text.isascii():
        raise OrderError(f"{what} text is not ASCII")
    if _CANONICAL_RE.fullmatch(text):
        import json  # not at module level: only parsing pays for the import
        array = "[" + text.strip().replace("\n", ",").replace(" ", ",") + "]"
        try:
            return json.loads(array)
        except ValueError:  # double spaces, inner blank lines, "007", "-", long tokens
            pass
    tokens = text.split()
    try:
        if "_" not in text:  # int() alone would also read "1_0" as 10
            return list(map(int, tokens))
    except ValueError:
        pass
    _reject_first_bad(tokens, what)


def _reject_first_bad(tokens: Iterable[str], what: str) -> NoReturn:
    """Raise for the first token in file order that is not a decimal, has
    more digits than ``int()`` converts (leading zeros count), or is
    outside int64: the error path of both file formats' bulk parse."""
    for tok in tokens:
        if not DECIMAL_RE.fullmatch(tok):
            raise OrderError(f"{what} token {tok!r} is not a signed decimal integer")
        try:
            v = int(tok)
        except ValueError:  # over int()'s digit limit; never print the token
            n = len(tok.lstrip("+-"))
            raise OrderError(f"{what} token of {n} digits is too long") from None
        _check64(v, f"{what} value")
    raise AssertionError("unreachable: every token is a 64-bit decimal")


def _check64(v: int, what: str) -> int:
    if not INT64_MIN <= v <= INT64_MAX:
        raise OverflowError(f"{what} {v} does not fit in 64 bits")
    return v


def _fits64(values: Sequence[int]) -> bool:
    """The bulk form of ``_check64``: every value is in int64."""
    return not values or (INT64_MIN <= min(values) and max(values) <= INT64_MAX)


@dataclass(frozen=True)
class CooMatrix:
    """Validated sparse matrix in three-array COO form (Saad §3.4): entry k
    is ``vals[k]`` at 0-based row ``row_idx[k]`` and column ``col_idx[k]``."""

    rows: int
    cols: int
    row_idx: tuple[int, ...]
    col_idx: tuple[int, ...]
    vals: tuple[int, ...]

    def to_triplets(self) -> list[tuple[int, int, int]]:
        """Entries as (r, c, v) in the 1-based boundary convention."""
        entries = zip(self.row_idx, self.col_idx, self.vals)
        return [(r + 1, c + 1, v) for r, c, v in entries]


def coo_from_triplets(
    rows: int, cols: int, triplets: Iterable[tuple[int, int, int]]
) -> CooMatrix:
    """Validate 1-based triplets and build a CooMatrix.

    Triplets must be strictly sorted by (row, column), which also rules
    out duplicates, with in-range indices and nonzero 64-bit values.
    """
    ts = list(triplets)  # unpacking keeps non-triplets a ValueError
    rs, cs, vs = [r for r, _, _ in ts], [c for _, c, _ in ts], [v for _, _, v in ts]
    return _coo(rows, cols, rs, cs, vs)


def _coo(
    rows: int, cols: int, rs: Sequence[int], cs: Sequence[int], vs: Sequence[int]
) -> CooMatrix:
    """Build a CooMatrix from parallel 1-based rows, columns and values after
    whole-array checks; ``_reject_first_bad_triplet`` runs only if one fails."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if vs and not (
        1 <= min(cs) <= max(cs) <= cols and 0 not in vs and _fits64(vs)
        and all(map(operator.lt, zip(rs, cs), islice(zip(rs, cs), 1, None)))
        and 1 <= rs[0] and rs[-1] <= rows  # bounds every row once the order holds
    ):
        _reject_first_bad_triplet(rows, cols, zip(rs, cs, vs))
    r0, c0 = tuple([r - 1 for r in rs]), tuple([c - 1 for c in cs])
    return CooMatrix(rows, cols, r0, c0, tuple(vs))


def _reject_first_bad_triplet(rows: int, cols: int, triplets: Iterable) -> NoReturn:
    """Raise for the first triplet, in order, that is out of bounds, zero,
    outside int64 or not strictly after its predecessor: ``_coo``'s error path."""
    prev: Optional[tuple[int, int]] = None
    for r, c, v in triplets:
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise BoundsError(f"triplet ({r},{c}) outside 1..{rows} x 1..{cols}")
        if v == 0:
            raise ZeroEntryError(f"triplet ({r},{c}) stores an explicit zero")
        _check64(v, "triplet value")
        if prev is not None and (r, c) <= prev:
            raise OrderError(
                f"triplet ({r},{c}) not strictly after ({prev[0]},{prev[1]})"
            )
        prev = (r, c)
    raise AssertionError("unreachable: every triplet is valid")


def dense_from_rows(
    rows_of_values: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Check a nonempty rectangular grid of int64 cells; return it as a dense
    matrix, the tuple of its row tuples."""
    if not rows_of_values:
        raise DimensionError("dense matrix needs at least one row")
    c = len(rows_of_values[0])
    if c < 1:
        raise DimensionError("dense matrix needs at least one column")
    for row in rows_of_values:
        if len(row) != c:
            raise DimensionError("dense matrix rows must have equal length")
        for v in row:
            _check64(v, "dense cell")
    return tuple(map(tuple, rows_of_values))


def to_dense(m: CooMatrix) -> tuple[tuple[int, ...], ...]:
    """Expand a sparse matrix to its explicit grid."""
    grid = [[0] * m.cols for _ in range(m.rows)]
    for r, c, v in zip(m.row_idx, m.col_idx, m.vals):
        grid[r][c] = v
    return tuple(map(tuple, grid))


def from_dense(d: Sequence[Sequence[int]]) -> CooMatrix:
    """Collect nonzero cells of a grid; inverse of ``to_dense``."""
    nonzeros = [(r, c, v) for r, row in enumerate(d) for c, v in enumerate(row) if v]
    return CooMatrix(len(d), len(d[0]), *(tuple(zip(*nonzeros)) or ((), (), ())))


def multiply_seq(x: Sequence[int], m: CooMatrix) -> list[int]:
    """Multiply vector ``x`` (length R) with ``m``; returns y of length C.

    One accumulation per stored triplet, so the work is
    ``nnz + C`` element steps.
    """
    if len(x) != m.rows:
        raise DimensionError(f"vector length {len(x)} != matrix rows {m.rows}")
    y = [0] * m.cols
    accumulate(y, x, zip(m.row_idx, m.col_idx, m.vals))
    return y


def accumulate(
    y: list[int], x: Sequence[int], triplets: Iterable[tuple[int, int, int]]
) -> None:
    """Add ``x[r] * v`` into ``y[c]`` for each 0-based triplet, in order.

    The product kernel shared by ``multiply_seq`` and every worker of
    ``parallel.multiply_parallel``. Raises OverflowError when a product
    or a running sum leaves the signed 64-bit range.
    """
    for r, c, v in triplets:
        p = x[r] * v
        if not INT64_MIN <= p <= INT64_MAX:
            raise OverflowError(f"product at ({r + 1},{c + 1}) overflows 64 bits")
        t = y[c] + p
        if not INT64_MIN <= t <= INT64_MAX:
            raise OverflowError(f"sum at column {c + 1} overflows 64 bits")
        y[c] = t


def oracle_multiply_dense(x: Sequence[int], d: Sequence[Sequence[int]]) -> list[int]:
    """Textbook reference product: y_i = sum_k x[k] * d[k][i].

    Iterates the full grid including zeros; shares nothing with the
    sparse code path.
    """
    if len(x) != len(d):
        raise DimensionError(f"vector length {len(x)} != matrix rows {len(d)}")
    y = []
    for i in range(len(d[0])):
        acc = 0
        for k in range(len(d)):
            p = x[k] * d[k][i]
            if not INT64_MIN <= p <= INT64_MAX:
                raise OverflowError(f"product at ({k + 1},{i + 1}) overflows 64 bits")
            acc += p
            if not INT64_MIN <= acc <= INT64_MAX:
                raise OverflowError(f"sum at column {i + 1} overflows 64 bits")
        y.append(acc)
    return y


def coo_from_text(text: str) -> CooMatrix:
    """Parse the COO file format: header ``R C NNZ``, then NNZ ``r c v`` lines.

    Tokens are ASCII signed decimals (``DECIMAL_RE``) separated by any
    whitespace, read by ``_decimals`` (a canonical file by the JSON scanner,
    with the same results and errors as token by token); the header values
    must fit in 64 bits and the triplets must already be sorted. Raises kit
    errors naming the violated rule.
    """
    # Rule order: ASCII, then a three-token header, then each token.
    if text.isascii() and len(text.split(maxsplit=2)) < 3:
        raise OrderError("header must be three integers: R C NNZ")
    numbers = _decimals(text, "matrix")
    rows, cols, nnz = numbers[:3]
    if not _fits64(numbers[:3]):  # name the first bad token or value in file order
        _reject_first_bad(text.split(), "matrix")
    if nnz < 0:
        raise OrderError(f"declared triplet count {nnz} is negative")
    if len(numbers) - 3 != 3 * nnz:
        raise OrderError(
            f"expected {3 * nnz} integers after the header, found {len(numbers) - 3}"
        )
    rs, cs, vs = numbers[3::3], numbers[4::3], numbers[5::3]
    del numbers  # the flat list need not outlive the three slices
    return _coo(rows, cols, rs, cs, vs)


def coo_to_text(m: CooMatrix) -> str:
    """Serialize to the COO file format; inverse of ``coo_from_text``."""
    lines = [f"{m.rows} {m.cols} {len(m.vals)}"]
    lines.extend(f"{r} {c} {v}" for r, c, v in m.to_triplets())
    return "\n".join(lines) + "\n"
