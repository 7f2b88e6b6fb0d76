import random

import pytest

from oraclekit import spmv
from oraclekit.errors import (
    BoundsError,
    DimensionError,
    OracleKitError,
    OrderError,
    ZeroEntryError,
)
from oraclekit.propcheck import GenConfig, gen_coo
from oraclekit.spmv import (
    INT64_MAX,
    INT64_MIN,
    CooMatrix,
    coo_from_text,
    coo_from_triplets,
    coo_to_text,
    dense_from_rows,
    from_dense,
    multiply_seq,
    oracle_multiply_dense,
    to_dense,
)

PINNED_TRIPLETS = [(1, 3, 1), (2, 1, 5), (2, 2, 8), (4, 2, 3)]
PINNED_ROWS = [
    [0, 0, 1, 0],
    [5, 8, 0, 0],
    [0, 0, 0, 0],
    [0, 3, 0, 0],
]


def pinned_matrix():
    return coo_from_triplets(4, 4, PINNED_TRIPLETS)


def test_pinned_decode_encode():
    m = pinned_matrix()
    d = dense_from_rows(PINNED_ROWS)
    assert to_dense(m) == d
    assert from_dense(d) == m
    assert m.to_triplets() == PINNED_TRIPLETS


def test_pinned_products():
    m = pinned_matrix()
    assert multiply_seq([1, 1, 1, 1], m) == [5, 11, 1, 0]
    assert multiply_seq([1, 0, 0, 0], m) == [0, 0, 1, 0]


def test_empty_matrix_multiplies_to_zero():
    m = coo_from_triplets(3, 2, [])
    assert multiply_seq([7, 8, 9], m) == [0, 0]


def test_construction_validation():
    with pytest.raises(DimensionError):
        coo_from_triplets(0, 1, [])
    with pytest.raises(BoundsError):
        coo_from_triplets(2, 2, [(3, 1, 5)])
    with pytest.raises(BoundsError):
        coo_from_triplets(2, 2, [(1, 0, 5)])
    with pytest.raises(ZeroEntryError):
        coo_from_triplets(2, 2, [(1, 1, 0)])
    with pytest.raises(OrderError):
        coo_from_triplets(2, 2, [(1, 2, 1), (1, 1, 1)])
    with pytest.raises(OrderError):
        coo_from_triplets(2, 2, [(1, 1, 1), (1, 1, 2)])  # duplicate cell
    with pytest.raises(OverflowError):
        coo_from_triplets(1, 1, [(1, 1, 1 << 63)])
    with pytest.raises(ValueError):
        coo_from_triplets(2, 2, [(1, 1, 5), (2, 2, 7, 9)])  # not a triplet
    with pytest.raises(ValueError):
        coo_from_triplets(2, 2, [(1, 1)])


def test_constructors_agree_on_the_three_arrays():
    m = pinned_matrix()
    assert (m.row_idx, m.col_idx, m.vals) == ((1, 2, 2, 4), (3, 1, 2, 2), (1, 5, 8, 3))
    for same in (from_dense(to_dense(m)), coo_from_text(coo_to_text(m))):
        assert same == m and hash(same) == hash(m)
    empty = coo_from_triplets(2, 3, [])
    assert (empty.row_idx, empty.col_idx, empty.vals) == ((), (), ())
    assert from_dense(to_dense(empty)) == empty == coo_from_text("2 3 0\n")


def test_multiply_validation():
    m = pinned_matrix()
    with pytest.raises(DimensionError):
        multiply_seq([1, 1], m)
    big = coo_from_triplets(1, 1, [(1, 1, INT64_MAX)])
    with pytest.raises(OverflowError):
        multiply_seq([2], big)
    # a single in-range product is fine
    assert multiply_seq([1], big) == [INT64_MAX]
    two = coo_from_triplets(2, 1, [(1, 1, INT64_MAX), (2, 1, 1)])
    with pytest.raises(OverflowError):
        multiply_seq([1, 1], two)  # the accumulated sum overflows
    assert multiply_seq([1, 0], two) == [INT64_MAX]


def test_dense_validation():
    with pytest.raises(DimensionError):
        dense_from_rows([])
    with pytest.raises(DimensionError):
        dense_from_rows([[1, 2], [3]])
    with pytest.raises(OverflowError):
        dense_from_rows([[INT64_MIN - 1]])


def test_from_dense_applies_the_triplet_checks():
    # The first row sets the width, so a longer later row stores a cell outside it.
    with pytest.raises(BoundsError, match=r"^triplet \(2,2\) outside 1\.\.2 x 1\.\.1$"):
        from_dense(((1,), (1, 2)))
    with pytest.raises(OverflowError, match=r"^triplet value 18446744073709551616 "):
        from_dense(((1, 2**64),))


def test_text_round_trip():
    m = pinned_matrix()
    text = coo_to_text(m)
    assert text == "4 4 4\n1 3 1\n2 1 5\n2 2 8\n4 2 3\n"
    assert coo_from_text(text) == m
    # arbitrary whitespace is fine
    assert coo_from_text("4  4 4\n\n 1 3 1\n2 1 5\n2 2 8\n\t4 2 3\n") == m
    # larger than gen_coo's 8x8, values near both ends of the 64-bit range
    cells = [(r, c) for r in range(1, 41) for c in range(1, 51, 2)]
    big = coo_from_triplets(40, 50, [(r, c, (-1) ** r * (2**62 + c)) for r, c in cells])
    assert len(big.vals) == 1000
    assert coo_from_text(coo_to_text(big)) == big


def test_text_parse_errors():
    with pytest.raises(OrderError):
        coo_from_text("")
    with pytest.raises(OrderError):
        coo_from_text("2 2")
    with pytest.raises(OrderError):
        coo_from_text("2 2 one\n")
    with pytest.raises(OrderError):
        coo_from_text("2 2 -1\n")
    with pytest.raises(OrderError, match="expected 6 integers after the header, found 3$"):
        coo_from_text("2 2 2\n1 1 5\n")  # body shorter than header claims
    with pytest.raises(OrderError, match="expected 3 integers after the header, found 6$"):
        coo_from_text("2 2 1\n1 1 5\n2 2 7\n")  # body longer than header claims
    with pytest.raises(OrderError):
        coo_from_text("2 2 1\n1 1 5 9\n")
    # int() alone reads these as 10 and 1; the file format does not
    with pytest.raises(OrderError, match="'1_0'"):
        coo_from_text("1 1 1\n1 1 1_0\n")
    with pytest.raises(OrderError):
        coo_from_text("1 1 1\n1 1 \u0661\n")  # ARABIC-INDIC DIGIT ONE
    # triplet 2 is out of bounds and triplet 3 out of order: the first is named
    with pytest.raises(BoundsError, match=r"^triplet \(3,1\) outside 1\.\.2 x 1\.\.2$"):
        coo_from_text("2 2 3\n1 2 1\n3 1 1\n1 1 1\n")


def test_text_errors_name_the_first_bad_token_or_value():
    # an out-of-range value before a bad token is named first, as in sequence files
    with pytest.raises(OverflowError, match=f"^matrix value {10**20} does not fit in 64 bits$"):
        coo_from_text(f"2 2 2\n1 1 {10**20}\n2 2 x\n")
    with pytest.raises(OrderError, match="^matrix token 'x' is not a signed decimal integer$"):
        coo_from_text(f"2 2 2\n1 1 x\n2 2 {10**20}\n")
    with pytest.raises(OverflowError, match=f"^triplet value {10**20} does not fit in 64 bits$"):
        coo_from_text(f"1 1 1\n1 1 {10**20}\n")


@pytest.mark.parametrize("digits", ["9" * 5000, "0" * 5000], ids=["nines", "zeros"])
def test_over_long_tokens_are_kit_errors(digits):
    for text in (f"1 1 1\n1 1 {digits}\n", f"{digits} 1 0\n"):
        with pytest.raises((OverflowError, OracleKitError)) as info:
            coo_from_text(text)
        assert not isinstance(info.value, ValueError)
        assert str(info.value) == "matrix token of 5000 digits is too long"


def test_matches_dense_oracle_on_generated_cases():
    cfg = GenConfig(seed=11, max_len=30, cases=300)
    for i in range(cfg.cases):
        x, m = gen_coo(cfg, i)
        assert multiply_seq(x, m) == oracle_multiply_dense(x, to_dense(m))


def test_triplets_survive_text_round_trip_generated():
    cfg = GenConfig(seed=12, max_len=30, cases=100)
    for i in range(cfg.cases):
        _, m = gen_coo(cfg, i)
        assert coo_from_text(coo_to_text(m)) == m


def reference_coo_from_triplets(rows, cols, triplets):
    """The ordered per-triplet loop that validated COO input before the
    bulk checks: the reference outcome for the differential test."""
    if rows < 1 or cols < 1:
        raise DimensionError(f"matrix dimensions must be positive, got {rows}x{cols}")
    entries = []
    prev = None
    for r, c, v in triplets:
        if not (1 <= r <= rows and 1 <= c <= cols):
            raise BoundsError(f"triplet ({r},{c}) outside 1..{rows} x 1..{cols}")
        if v == 0:
            raise ZeroEntryError(f"triplet ({r},{c}) stores an explicit zero")
        if not INT64_MIN <= v <= INT64_MAX:
            raise OverflowError(f"triplet value {v} does not fit in 64 bits")
        if prev is not None and (r, c) <= prev:
            raise OrderError(f"triplet ({r},{c}) not strictly after ({prev[0]},{prev[1]})")
        prev = (r, c)
        entries.append((r, c, v))
    rs, cs, vs = tuple(zip(*entries)) or ((), (), ())
    return CooMatrix(rows, cols, rs, cs, vs)


def outcome(build, *args):
    try:
        return build(*args)
    except (OracleKitError, OverflowError) as e:
        return type(e), str(e)


def random_triplets(rng):
    """Sorted in-bounds triplets on up to 64x64 with values that include both
    int64 ends, then 0-2 defects injected at random positions."""
    rows, cols = rng.randint(1, 64), rng.randint(1, 64)
    cells = sorted(rng.sample(range(rows * cols), rng.randint(0, min(rows * cols, 48))))
    values = (INT64_MIN, INT64_MAX, -1, 1, 2, -(2**40))
    trips = [[cell // cols + 1, cell % cols + 1, rng.choice(values)] for cell in cells]
    for _ in range(rng.randint(0, 2) if trips else 0):
        i = rng.randrange(len(trips))
        kind = rng.choice(("bounds", "zero", "overflow", "order", "duplicate"))
        if kind == "bounds":
            axis, limit = rng.choice(((0, rows), (1, cols)))
            trips[i][axis] = rng.choice((0, -1, limit + 1))
        elif kind == "zero":
            trips[i][2] = 0
        elif kind == "overflow":
            trips[i][2] = rng.choice((INT64_MIN - 1, INT64_MAX + 1))
        elif kind == "order":
            j = rng.randrange(len(trips))
            trips[i], trips[j] = trips[j], trips[i]
        elif i > 0:
            trips[i][:2] = trips[i - 1][:2]  # duplicate cell
    return rows, cols, [tuple(t) for t in trips]


def test_bulk_validation_matches_the_ordered_loop():
    rng = random.Random(2019)
    kinds = set()
    for _ in range(3000):
        rows, cols, trips = random_triplets(rng)
        want = outcome(reference_coo_from_triplets, rows, cols, trips)
        assert outcome(coo_from_triplets, rows, cols, trips) == want
        lines = [f"{rows} {cols} {len(trips)}"] + [f"{r} {c} {v}" for r, c, v in trips]
        assert outcome(coo_from_text, "\n".join(lines) + "\n") == want
        kinds.add(want[0] if isinstance(want, tuple) else CooMatrix)
    assert kinds == {CooMatrix, BoundsError, ZeroEntryError, OverflowError, OrderError}


class TripletScanReached(Exception):
    pass


def exploding_scan(rows, cols, triplets):
    raise TripletScanReached


def test_valid_matrices_skip_the_ordered_scan(monkeypatch):
    """Only invalid input may pay for the per-triplet error scan."""
    monkeypatch.setattr(spmv, "_reject_first_bad_triplet", exploding_scan)
    assert coo_from_text(coo_to_text(pinned_matrix())) == pinned_matrix()
    for rows, cols, trips in ((4, 4, PINNED_TRIPLETS), (1, 1, [(1, 1, INT64_MIN)]), (3, 2, [])):
        coo_from_triplets(rows, cols, trips)
    with pytest.raises(TripletScanReached):
        coo_from_text("2 2 2\n1 2 1\n1 1 1\n")
    with pytest.raises(TripletScanReached):
        coo_from_triplets(2, 2, [(1, 1, 0)])


def test_first_bad_triplet_wins_over_a_later_kind_checked_first():
    # the bulk checks test order last, but triplet 2 is named before the zero at 3
    trips = [(1, 2, 1), (1, 1, 1), (2, 1, 0)]
    message = r"^triplet \(1,1\) not strictly after \(1,2\)$"
    with pytest.raises(OrderError, match=message):
        coo_from_triplets(2, 2, trips)
    with pytest.raises(OrderError, match=message):
        coo_from_text("2 2 3\n1 2 1\n1 1 1\n2 1 0\n")
