"""The bulk integer parser behind both file formats, against the per-token
parser it replaced on canonical files."""

import json
import random
import tracemalloc
from typing import NoReturn

import pytest

from oraclekit import cli, spmv
from oraclekit.cli import run_cli
from oraclekit.errors import OrderError
from oraclekit.propcheck import GenConfig, gen_coo
from oraclekit.spmv import INT64_MAX, INT64_MIN, coo_from_text, coo_from_triplets, coo_to_text


def reference_reject_first_bad(tokens, what) -> NoReturn:
    for tok in tokens:
        if not spmv.DECIMAL_RE.fullmatch(tok):
            raise OrderError(f"{what} token {tok!r} is not a signed decimal integer")
        try:
            v = int(tok)
        except ValueError:
            n = len(tok.lstrip("+-"))
            raise OrderError(f"{what} token of {n} digits is too long") from None
        if not INT64_MIN <= v <= INT64_MAX:
            raise OverflowError(f"{what} value {v} does not fit in 64 bits")
    raise AssertionError("unreachable: every token is a 64-bit decimal")


def reference_decimals(text, what):
    """The split / ``map(int)`` / first-bad-token parser that read every file
    before canonical files went through the JSON scanner."""
    if not text.isascii():
        raise OrderError(f"{what} text is not ASCII")
    tokens = text.split()
    try:
        if "_" not in text:
            return list(map(int, tokens))
    except ValueError:
        pass
    reference_reject_first_bad(tokens, what)


def outcome(parse, *args):
    """The parse result, or the type and message of what it raised; every
    parsed value must be exactly an ``int`` (no ``bool``, no ``float``)."""
    try:
        result = parse(*args)
    except Exception as e:
        return type(e), str(e)
    values = result if isinstance(result, list) else result.vals
    assert all(type(v) is int for v in values), result
    return result


def outcomes(text, path):
    """What ``_decimals``, ``cli._load_sequence`` and ``coo_from_text`` make
    of ``text``; each reaches the parser through ``spmv._decimals``."""
    path.write_text(text, encoding="utf-8")
    return (
        outcome(spmv._decimals, text, "sequence"),
        outcome(cli._load_sequence, str(path)),
        outcome(coo_from_text, text),
    )


def reference_outcomes(text, path, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spmv, "_decimals", reference_decimals)
        return outcomes(text, path)


@pytest.fixture
def scanner_calls(monkeypatch):
    """Each ``json.loads`` call ``_decimals`` makes, as (text, succeeded)."""
    calls = []
    loads = json.loads

    def recorder(s, *args, **kwargs):
        try:
            result = loads(s, *args, **kwargs)
        except ValueError:
            calls.append((s, False))
            raise
        calls.append((s, True))
        return result

    monkeypatch.setattr(json, "loads", recorder)
    return calls


NINES, ZEROS = "9" * 5000, "0" * 5000
HAND_WRITTEN = [
    "", " ", "\n", " \n\t\n", "\r\n",
    "-0", "00", "+5", "-", "--1", "1-2", "- 1", "0 -0 +0", "-00", "007 8",
    "1  2", "1\t2", "1\r\n2\r\n", "\n\n1 2\n", "1 2\n\n\n", " 1 2 ", "1\n\n2", "1 \n2",
    "1_0", "1 1 1\n1 1 1_0\n",
    "1,2", "[1]", '"1"', "1.5", "1e5", "true", "null", "NaN", "Infinity", "-Infinity",
    "[1, 2]", "1 2,", ",1",
    "\u0661", "1 \u0662\n",
    NINES, ZEROS, "-" + NINES, f"1 {NINES} x", f"x {NINES}", "9" * 4300, "9" * 4301,
    f"1 1 1\n1 1 -{NINES}\n", f"{ZEROS} 1 0\n",
    f"{INT64_MAX} {INT64_MIN}\n", f"{INT64_MAX + 1}\n", f"{INT64_MIN - 1}\n",
    f"1 1 1\n1 1 {INT64_MAX + 1}\n", f"1 1 1\n1 1 {INT64_MIN}\n", f"1 {10**20} x\n",
    "4 4 4\n1 3 1\n2 1 5\n2 2 8\n4 2 3\n", "4  4 4\n1 3 1\n2 1 5\n2 2 8\n\t4 2 3\n",
    "2 2 1\n1 1 5 9\n", "2 2 -1\n", "2 2", "2 2 1\n1 1 0\n", "2 2 2\n1 2 1\n1 1 1\n",
]


def short_id(text):
    return text if len(text) < 40 else f"{text[:8]}...{len(text)}"


@pytest.mark.parametrize("text", HAND_WRITTEN, ids=short_id)
def test_hand_written_texts_parse_as_the_reference(tmp_path, monkeypatch, text):
    path = tmp_path / "in.txt"
    assert outcomes(text, path) == reference_outcomes(text, path, monkeypatch)


@pytest.mark.parametrize("tail", ["", " x", "\n1 1 x"], ids=["alone", "bad-token", "bad-triplet"])
@pytest.mark.parametrize("big", [2**64, INT64_MAX + 1, INT64_MIN - 1])
@pytest.mark.parametrize("pos", [0, 1, 2], ids=["rows", "cols", "nnz"])
def test_header_value_outside_int64_is_named(pos, big, tail):
    """The same error whether or not a bad token follows the header."""
    header = ["1", "1", "0"]
    header[pos] = str(big)
    text = " ".join(header) + tail + "\n"
    with pytest.raises(OverflowError) as exc:
        coo_from_text(text)
    assert str(exc.value) == f"matrix value {big} does not fit in 64 bits"


PIECES = (
    ["0", "1", "7", "9", "42", " ", "\n"] * 6
    + ["-", "+", "  ", "\n\n", "\t", "\r\n", "_", ",", ".", "e", "[", "]", '"', "x", "007"]
    + [str(INT64_MAX), str(INT64_MAX + 1), str(INT64_MIN), str(INT64_MIN - 1)]
)


def fuzz_text(rng):
    """Either a random string of ``PIECES`` or a canonical COO text with up
    to two pieces spliced in."""
    if rng.random() < 0.5:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 24)))
    _, m = gen_coo(GenConfig(seed=rng.randrange(1000), max_len=8), rng.randrange(50))
    text = coo_to_text(m)
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, len(text))
        text = text[:i] + rng.choice(PIECES) + text[i + rng.randint(0, 1):]
    return text


def test_fuzzed_texts_parse_as_the_reference(tmp_path, monkeypatch, scanner_calls):
    rng = random.Random(2019)
    path = tmp_path / "in.txt"
    kinds = set()
    for _ in range(3000):
        text = fuzz_text(rng)
        want = reference_outcomes(text, path, monkeypatch)
        assert outcomes(text, path) == want, text
        kinds.update(w[0] if isinstance(w, tuple) else type(w) for w in want)
    assert {list, spmv.CooMatrix, OrderError, OverflowError} <= kinds
    assert {ok for _, ok in scanner_calls} == {True, False}  # both paths ran


def test_canonical_files_go_through_the_scanner(tmp_path, capsys, scanner_calls):
    """The counterpart of ``test_valid_files_parse_without_the_token_regex``:
    what the library writes and the CLI fixtures read take the scanner path."""
    m = coo_from_triplets(3, 5, [(1, 2, INT64_MIN), (2, 5, -1), (3, 1, INT64_MAX)])
    assert coo_from_text(coo_to_text(m)) == m
    assert [ok for _, ok in scanner_calls] == [True]
    files = {"seq.txt": "4 7 8 1 2 3 9 5 6\n", "ones.txt": "1 1 1 1\n", "empty.txt": "",
             "m.coo": "4 4 4\n1 3 1\n2 1 5\n2 2 8\n4 2 3\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    scanner_calls.clear()
    assert run_cli(["sort", str(tmp_path / "seq.txt")]) == 0
    assert run_cli(["spmv", str(tmp_path / "ones.txt"), str(tmp_path / "m.coo")]) == 0
    assert capsys.readouterr().out == "1 2 3 4 5 6 7 8 9\n5 11 1 0\n"
    assert cli._load_sequence(str(tmp_path / "empty.txt")) == []
    assert [ok for _, ok in scanner_calls] == [True] * 4


@pytest.mark.parametrize(
    "text", ["4 7  8\n", "4\t7\n", "1 2\r\n", "1\n\n2\n", "1 \n2", "+5", "1 +2", "007", "-0 00"]
)
def test_non_canonical_texts_bypass_or_fail_the_scanner(scanner_calls, text):
    got = spmv._decimals(text, "sequence")
    assert not any(ok for _, ok in scanner_calls)
    assert got == reference_decimals(text, "sequence")


def test_coo_from_text_peak_is_a_small_multiple_of_the_matrix():
    # At the per-token parser, the token strings and the flat list alive
    # beside the three slices peaked near 2.8x the matrix.
    rows, cols = 1000, 1000
    rng = random.Random(17)
    cells = sorted(rng.sample(range(rows * cols), 20_000))
    trips = [(c // cols + 1, c % cols + 1, rng.randint(1, 2**62)) for c in cells]
    text = coo_to_text(coo_from_triplets(rows, cols, trips))
    del trips, cells
    spmv._decimals("", "matrix")  # the scanner's import is not the parse's cost
    tracemalloc.start()
    try:
        m = coo_from_text(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(m.vals) == 20_000
    assert peak < 2.2 * retained, (peak, retained)
