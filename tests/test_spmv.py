import pytest

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
    assert len(big.entries) == 1000
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
