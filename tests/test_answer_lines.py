"""Answer lines written a slice at a time: the same bytes as one
``" ".join`` of every token, and a peak memory bounded by the input's."""

import contextlib
import io
import random
import tracemalloc

import pytest

from oraclekit import ansv, cartesian, cli, monotonic, spmv
from oraclekit.cli import run_cli

S = cli._SLICE
COUNTS = [0, 1, S - 1, S, S + 1, 2 * S + 1]


def one_based(indices):
    return ["0" if i is None else str(i + 1) for i in indices]


def flag_lines(report):
    return "".join(f"{name} {'true' if ok else 'false'}\n" for name, ok in report.flags())


def write_seq(tmp_path, s, name="s.seq"):
    p = tmp_path / name
    p.write_text(" ".join(map(str, s)) + "\n" if s else "")
    return str(p)


def permutation(n, low_at=None):
    """A seeded permutation of range(n), its minimum moved to ``low_at``."""
    s = list(range(n))
    random.Random(n).shuffle(s)
    if n and low_at is not None:
        at = min(low_at, n - 1)
        i = s.index(0)
        s[i], s[at] = s[at], s[i]
    return s


def stdout_of(capsysbinary, *argv):
    assert run_cli(list(argv)) in (0, 1)
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    return captured.out


@pytest.mark.parametrize("count", COUNTS)
def test_print_line_matches_one_join(capsysbinary, count):
    tokens = [str(-i) for i in range(count)]
    cli._print_line(iter(tokens))
    assert capsysbinary.readouterr().out == (" ".join(tokens) + "\n").encode()


@pytest.mark.parametrize("count", COUNTS)
def test_sort_and_ansv_lines(tmp_path, capsysbinary, count):
    s = permutation(count)
    f = write_seq(tmp_path, s)
    out = sorted(s)
    line = " ".join(map(str, out)) + "\n"
    assert stdout_of(capsysbinary, "sort", f) == line.encode()
    verified = line + "sorted true\npermutation true\n"
    assert stdout_of(capsysbinary, "sort", "--verify", f) == verified.encode()
    for direction, scan in (("left", ansv.left_neighbors), ("right", ansv.right_neighbors)):
        line = " ".join(one_based(scan(s).neighbors)) + "\n"
        assert stdout_of(capsysbinary, "ansv", "--dir", direction, f) == line.encode()


@pytest.mark.parametrize("low_at", [0, S - 1, S, S + 1])
@pytest.mark.parametrize("count", COUNTS)
def test_cartesian_lines_print_the_root_as_0(tmp_path, capsysbinary, count, low_at):
    s = permutation(count, low_at)
    tree = cartesian.build_tree(s)
    tokens = one_based(tree.parent)
    assert tokens.count("0") == (1 if count else 0)
    expected = " ".join(tokens) + "\n" + flag_lines(cartesian.check_tree(s, tree))
    assert stdout_of(capsysbinary, "cartesian", write_seq(tmp_path, s)) == expected.encode()


@pytest.mark.parametrize("count", [c for c in COUNTS if c])  # every cut list holds 0
def test_cutpoints_lines(tmp_path, capsysbinary, count):
    s = [i % 2 for i in range(2 * (count - 1))]  # runs of two: count cutpoints
    cut = monotonic.compute_cutpoints(s)
    assert len(cut) == count
    expected = " ".join(map(str, cut)) + "\n" + flag_lines(monotonic.check_cutpoints(s, cut))
    assert stdout_of(capsysbinary, "cutpoints", write_seq(tmp_path, s)) == expected.encode()


@pytest.mark.parametrize("count", [c for c in COUNTS if c])  # a matrix has a column
def test_spmv_lines(tmp_path, capsysbinary, count):
    rng = random.Random(count)
    cols = {c for c in (1, S, S + 1, count) if c <= count}
    cols |= set(rng.sample(range(1, count + 1), min(count, 40)))
    trips = sorted((rng.randint(1, 3), c, rng.choice([-99, -1, 1, 99])) for c in cols)
    m = spmv.coo_from_triplets(3, count, trips)
    x = [5, -7, 11]
    mp = tmp_path / "m.coo"
    mp.write_text(spmv.coo_to_text(m))
    expected = " ".join(map(str, spmv.multiply_seq(x, m))) + "\n"
    for policy in ("seq", "chunks:2"):
        argv = ["spmv", write_seq(tmp_path, x, "x.vec"), str(mp), "--policy", policy]
        assert stdout_of(capsysbinary, *argv) == expected.encode()


def test_answer_line_writes_hold_at_most_one_slice(tmp_path):
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    f = write_seq(tmp_path, permutation(2 * S + 1))
    with contextlib.redirect_stdout(Recorder()):
        run_cli(["sort", f])
    assert len(writes) == 4 and writes[-1] == "\n"
    assert [len(w.split()) for w in writes[:3]] == [S, S, 1]


def sequence_input(tmp_path):
    """A 20,000-element permutation's file, and how the CLI loads it."""
    f = write_seq(tmp_path, permutation(20_000))
    return [f], lambda: cli._load_sequence(f)


def matrix_input(tmp_path):
    """A 1,000 x 1,000 matrix file of 20,000 triplets and its vector's file,
    and how the CLI loads them. Values and most indices are past CPython's
    shared small ints, so every parsed token is an int of its own."""
    rng = random.Random(20_000)
    cells = sorted(rng.sample(range(1_000_000), 20_000))
    trips = [(k // 1000 + 1, k % 1000 + 1, rng.choice([-1, 1]) * rng.randint(1000, 10**9))
             for k in cells]
    mp = tmp_path / "m.coo"
    mp.write_text(spmv.coo_to_text(spmv.coo_from_triplets(1000, 1000, trips)))
    xf = write_seq(tmp_path, [rng.randint(1000, 10**6) for _ in range(1000)], "x.vec")
    return [xf, str(mp)], lambda: (cli._load_sequence(xf), spmv.coo_from_text(mp.read_text()))


# Peak traced memory of one run_cli call, as a multiple of its loaded input:
# a 20,000-element permutation (the list and its ints), or for spmv the
# vector and a 20,000-triplet matrix. Joining the whole answer line at once
# measured 5.6x, 3.0x and 2.7x; slices, 4.0x, 2.1x and 1.8x. spmv measured
# 1.83x while the matrix kept a 0-based copy of its indices, 1.47x without.
PEAK_BOUNDS = [
    (("cartesian",), sequence_input, 4.7),
    (("ansv", "--dir", "left"), sequence_input, 2.5),
    (("sort", "--verify"), sequence_input, 2.2),
    (("spmv",), matrix_input, 1.65),
]


@pytest.mark.parametrize("argv, make_input, bound", PEAK_BOUNDS, ids=[a[0] for a, _, _ in PEAK_BOUNDS])
def test_run_cli_peak_is_a_small_multiple_of_the_sequence(tmp_path, argv, make_input, bound):
    files, load = make_input(tmp_path)
    tracemalloc.start()
    try:
        s = load()
        loaded, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del s
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli([*argv, *files]) == 0  # imports and first-call costs are not the run's
    with contextlib.redirect_stdout(io.StringIO()):
        tracemalloc.start()
        try:
            assert run_cli([*argv, *files]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < bound * loaded, (peak, loaded, peak / loaded)
