import os
import subprocess
import sys
from pathlib import Path

import pytest

import oraclekit
from oraclekit import cartesian, cli, ghcsort, monotonic, parallel, spmv
from oraclekit.cli import run_cli
from oraclekit.spmv import INT64_MAX, INT64_MIN

PINNED_SEQ = "4 7 8 1 2 3 9 5 6\n"
PINNED_COO = "4 4 4\n1 3 1\n2 1 5\n2 2 8\n4 2 3\n"


@pytest.fixture
def seq_file(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text(PINNED_SEQ)
    return str(p)


@pytest.fixture
def coo_file(tmp_path):
    p = tmp_path / "m.coo"
    p.write_text(PINNED_COO)
    return str(p)


@pytest.fixture
def ones_file(tmp_path):
    p = tmp_path / "ones.txt"
    p.write_text("1 1 1 1\n")
    return str(p)


def run_module(*argv, **kwargs):
    """``python -m oraclekit`` in a child process that imports the same
    package as this one, installed or not."""
    src = str(Path(oraclekit.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "oraclekit", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        **kwargs,
    )


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cutpoints_output(tmp_path, capsys):
    p = tmp_path / "s.txt"
    p.write_text("1 4 7 3 3 5 9\n")
    code, out, err = run(capsys, "cutpoints", str(p))
    assert code == 0 and err == ""
    assert out == (
        "0 3 5 7\n"
        "non_empty true\n"
        "begin_to_end true\n"
        "within_bounds true\n"
        "monotonic true\n"
        "right_maximal true\n"
    )


def test_sort_with_verification(tmp_path, capsys):
    p = tmp_path / "s.txt"
    p.write_text("3 2 8 9 3 4 5\n")
    code, out, _ = run(capsys, "sort", str(p), "--verify")
    assert code == 0
    assert out == "2 3 3 4 5 8 9\nsorted true\npermutation true\n"
    code, out, _ = run(capsys, "sort", str(p))
    assert code == 0 and out == "2 3 3 4 5 8 9\n"


def test_ansv_directions(seq_file, capsys):
    code, out, _ = run(capsys, "ansv", seq_file)
    assert code == 0 and out == "0 1 2 0 4 5 6 6 8\n"
    code, out, _ = run(capsys, "ansv", seq_file, "--dir", "right")
    assert code == 0 and out == "4 4 4 0 0 0 8 0 0\n"


def test_cartesian_output(seq_file, capsys):
    code, out, _ = run(capsys, "cartesian", seq_file)
    assert code == 0
    assert out == (
        "4 1 2 0 4 5 8 6 8\n"
        "binary_ok true\n"
        "heap_ok true\n"
        "traversal_ok true\n"
    )


def test_failed_checks_print_false_and_exit_1(seq_file, capsys, monkeypatch):
    monkeypatch.setattr(monotonic, "compute_cutpoints", lambda s: [0, len(s)])
    assert run(capsys, "cutpoints", seq_file) == (
        1,
        "0 9\n"
        "non_empty true\n"
        "begin_to_end true\n"
        "within_bounds true\n"
        "monotonic false\n"
        "right_maximal false\n",
        "",
    )
    chain = cartesian.build_tree(sorted(map(int, PINNED_SEQ.split())))
    monkeypatch.setattr(cartesian, "build_tree", lambda s: chain)
    assert run(capsys, "cartesian", seq_file) == (
        1,
        "0 1 2 3 4 5 6 7 8\nbinary_ok true\nheap_ok false\ntraversal_ok true\n",
        "",
    )
    monkeypatch.setattr(ghcsort, "ghc_sort", list)
    assert run(capsys, "sort", seq_file, "--verify") == (
        1,
        "4 7 8 1 2 3 9 5 6\nsorted false\npermutation true\n",
        "",
    )
    assert run(capsys, "sort", seq_file) == (0, "4 7 8 1 2 3 9 5 6\n", "")


def test_spmv_policies_agree(ones_file, coo_file, capsys):
    for policy in ("seq", "per-element", "chunks:2", "steal:3"):
        code, out, _ = run(capsys, "spmv", ones_file, coo_file, "--policy", policy)
        assert code == 0 and out == "5 11 1 0\n"


def test_spmv_rejects_bad_policy(ones_file, coo_file, capsys):
    code, _, err = run(capsys, "spmv", ones_file, coo_file, "--policy", "magic")
    assert code == 2 and err.startswith("error:")
    # str.isdigit accepts these, but they are not ASCII decimal counts
    for policy in ("chunks:\u00b2", "steal:\u0662"):
        code, _, err = run(capsys, "spmv", ones_file, coo_file, "--policy", policy)
        assert code == 2 and "is not a decimal integer" in err, policy
    # more digits than int() converts: a ConfigError naming the count
    for prefix in ("chunks:", "steal:"):
        policy = prefix + "0" * 5000 + "2"
        code, _, err = run(capsys, "spmv", ones_file, coo_file, "--policy", policy)
        assert code == 2 and "worker count of 5001 digits is too long" in err, prefix
        assert "0" * 100 not in err


def test_worker_cap_exits_2_without_threads(
    tmp_path, ones_file, coo_file, capsys, monkeypatch
):
    def no_submit(*args, **kwargs):
        raise AssertionError("a worker was submitted")

    monkeypatch.setattr(parallel._POOL, "submit", no_submit)
    code, _, err = run(capsys, "spmv", ones_file, coo_file, "--policy", "chunks:65")
    assert code == 2 and err.startswith("error:")
    vec = tmp_path / "x.txt"
    vec.write_text("1 1\n")
    mat = tmp_path / "m.coo"
    mat.write_text("2 1 2\n1 1 1\n2 1 2\n")
    code, _, err = run(capsys, "explore", str(vec), str(mat), "--workers", "65")
    assert code == 2 and err.startswith("error:")


README = Path(__file__).parents[1] / "README.md"


def test_explore_race_model(tmp_path, capsys, monkeypatch):
    """Every ``explore`` run in README prints exactly what README shows,
    on the files README's ``printf`` lines write."""
    monkeypatch.chdir(tmp_path)
    lines = README.read_text().splitlines()
    transcripts = []
    for i, line in enumerate(lines):
        if line.startswith("$ printf '"):
            text, _, name = line[len("$ printf '") :].rpartition("' > ")
            (tmp_path / name).write_text(text.replace("\\n", "\n"))
        elif line.startswith("$ oraclekit explore "):
            end = i + 1
            while not lines[end].startswith(("$ ", "```")):
                end += 1
            code, out, _ = run(capsys, *line.split()[2:])
            assert out == "".join(f"{t}\n" for t in lines[i + 1 : end]), line
            transcripts.append((code, lines[i + 1]))
    # the race model fails (exit 1), the atomic one matches (exit 0)
    assert transcripts == [(1, "states_visited 13"), (0, "states_visited 4")]


def test_check_selected_properties(capsys):
    code, out, _ = run(
        capsys, "check", "c1a.nonempty", "c1b.sorted", "--cases", "25"
    )
    assert code == 0
    assert out == (
        "c1a.nonempty pass cases=25\n"
        "c1b.sorted pass cases=25\n"
        "total 2 passed, 0 failed\n"
    )


def test_check_unknown_property(capsys):
    code, _, err = run(capsys, "check", "c9.bogus")
    assert code == 2 and "unknown properties" in err


CHECK_LIST = (
    "c1a.nonempty  cutpoint list is never empty\n"
    "c1a.begin_end  cutpoints start at 0 and end at len(s)\n"
    "c1a.bounds  cutpoints are strictly increasing within [0, len(s)]\n"
    "c1a.monotonic  every delimited segment is monotonic\n"
    "c1a.maximal  no segment can be extended one element to the right\n"
    "c1a.oracle_eq  one-scan cutpoints equal the greedy prefix oracle\n"
    "c1b.merge_sorted  merging two sorted halves is sorted and loses nothing\n"
    "c1b.merge_oracle_eq  merging two sorted halves equals the two-iterator oracle\n"
    "c1b.sorted  ghc_sort output is nondecreasing\n"
    "c1b.permutation  ghc_sort output is a permutation of its input\n"
    "c2a.index  left neighbor indices lie strictly left of their element\n"
    "c2a.value  neighbor values are strictly smaller\n"
    "c2a.smallest  nothing between neighbor and element is smaller\n"
    "c2a.oracle_eq  stack-based neighbors equal the quadratic oracle, both directions\n"
    "c2b.binary  parent and child links form one consistent binary tree\n"
    "c2b.heap  every non-root value exceeds its parent's value\n"
    "c2b.traversal  in-order traversal recovers positions 0..n-1\n"
    "c2b.oracle_eq  neighbor-built tree equals the min-split oracle\n"
    "c3.seq_correct  sparse product equals the dense textbook product\n"
    "c3.parallel_eq_seq  threaded product is bit-identical to sequential, all policies\n"
    "c3.no_concurrency_issues  exhaustive interleavings of small synchronized models stay sequential\n"
    "c3.race_witness  unsynchronized model provably reaches lost-update outputs\n"
)


def test_check_list(capsys):
    """Every name and summary, in registry order, byte for byte."""
    code, out, _ = run(capsys, "check", "--list")
    assert code == 0
    assert out == CHECK_LIST


def test_input_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.txt")
    code, _, err = run(capsys, "cutpoints", missing)
    assert code == 2 and err.startswith("error:")

    bad = tmp_path / "bad.txt"
    bad.write_text("1 two 3\n")
    code, _, err = run(capsys, "sort", str(bad))
    assert code == 2 and "two" in err

    dup = tmp_path / "dup.txt"
    dup.write_text("5 5\n")
    code, _, err = run(capsys, "cartesian", str(dup))
    assert code == 2 and err.startswith("error:")

    hdr = tmp_path / "short.coo"
    hdr.write_text("2 2\n")
    code, _, err = run(capsys, "spmv", str(dup), str(hdr))
    assert code == 2

    underscore = tmp_path / "underscore.coo"
    underscore.write_text("1 1 1\n1 1 1_0\n")
    code, out, err = run(capsys, "spmv", str(dup), str(underscore))
    assert code == 2 and out == "" and "'1_0'" in err

    huge = tmp_path / "huge.txt"
    huge.write_text(str(1 << 63) + "\n")
    code, _, err = run(capsys, "cutpoints", str(huge))
    assert code == 2 and "64 bits" in err

    arabic = tmp_path / "arabic.txt"
    arabic.write_text("1 \u0662 3\n", encoding="utf-8")
    assert run(capsys, "sort", str(arabic)) == (2, "", f"error: {arabic} is not ASCII text\n")


@pytest.mark.parametrize(
    "text, out",
    [
        (f"{INT64_MAX} {INT64_MIN}\n", f"{INT64_MIN} {INT64_MAX}\n"),
        ("+5\t007\n-3\x0b2\x0c1", "-3 1 2 5 7\n"),
        (" \t\n\x0b\x0c\r\n", "\n"),  # whitespace only: the empty sequence
    ],
)
def test_sequence_file_grammar(tmp_path, capsys, text, out):
    p = tmp_path / "s.txt"
    p.write_text(text)
    assert run(capsys, "sort", str(p)) == (0, out, "")


@pytest.mark.parametrize(
    "text, err",
    [
        (str(INT64_MAX + 1), f"sequence value {INT64_MAX + 1} does not fit in 64 bits"),
        (f"1 {INT64_MIN - 1}", f"sequence value {INT64_MIN - 1} does not fit in 64 bits"),
        ("3 1_0 2", "sequence token '1_0' is not a signed decimal integer"),
        # the first bad token or value in file order wins, whichever kind it is
        (f"{10**20} abc", f"sequence value {10**20} does not fit in 64 bits"),
        (f"abc {10**20}", "sequence token 'abc' is not a signed decimal integer"),
    ],
)
def test_sequence_file_errors_name_the_first_bad_token(tmp_path, capsys, text, err):
    p = tmp_path / "s.txt"
    p.write_text(text + "\n")
    assert run(capsys, "cutpoints", str(p)) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("digits", ["7" * 5000, "0" * 5000], ids=["sevens", "zeros"])
def test_over_long_tokens_exit_2(tmp_path, capsys, ones_file, digits):
    seq = tmp_path / "long.txt"
    seq.write_text(f"1 {digits} 2\n")
    assert run(capsys, "cutpoints", str(seq)) == (
        2, "", "error: sequence token of 5000 digits is too long\n"
    )
    coo = tmp_path / "long.coo"
    coo.write_text(f"1 1 1\n1 1 -{digits}\n")
    assert run(capsys, "spmv", ones_file, str(coo)) == (
        2, "", "error: matrix token of 5000 digits is too long\n"
    )


class RegexReached(Exception):
    pass


class ExplodingRegex:
    def fullmatch(self, token):
        raise RegexReached(token)


def test_valid_files_parse_without_the_token_regex(
    tmp_path, seq_file, ones_file, coo_file, capsys, monkeypatch
):
    """Only an invalid file may pay for the per-token regex."""
    monkeypatch.setattr(spmv, "DECIMAL_RE", ExplodingRegex())
    assert run(capsys, "sort", seq_file)[:2] == (0, "1 2 3 4 5 6 7 8 9\n")
    assert run(capsys, "spmv", ones_file, coo_file)[:2] == (0, "5 11 1 0\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("1 two 3\n")
    with pytest.raises(RegexReached):
        run_cli(["sort", str(bad)])
    with pytest.raises(RegexReached):
        spmv.coo_from_text("1 1 1\n1 1 one\n")


def _explore_argv(tmp_path):
    vec = tmp_path / "x.txt"
    vec.write_text("1 1\n")
    mat = tmp_path / "m.coo"
    mat.write_text("2 1 2\n1 1 1\n2 1 2\n")
    return ["explore", str(vec), str(mat)]


INT_FLAGS = (
    ("explore", "--workers"),
    ("explore", "--max-states"),
    ("check", "--seed"),
    ("check", "--cases"),
    ("check", "--max-len"),
    ("check", "--value-lo"),
    ("check", "--value-hi"),
)


@pytest.mark.parametrize("command,flag", INT_FLAGS)
@pytest.mark.parametrize("value", ["\u0662", "\u0661\u0660", "0_2", " 2 ", "\t2", "2\n"])
def test_integer_flags_take_ascii_decimals_only(tmp_path, capsys, command, flag, value):
    # int() reads each of these as a number; no flag may run on them
    argv = _explore_argv(tmp_path) if command == "explore" else ["check", "c1a.nonempty"]
    code, out, err = run(capsys, *argv, f"{flag}={value}")
    assert (code, out) == (2, "")
    assert err == f"error: {flag} value {value!r} is not a decimal integer\n"


@pytest.mark.parametrize("command,flag", INT_FLAGS)
def test_integer_flags_reject_over_long_values_without_echo(tmp_path, capsys, command, flag):
    argv = _explore_argv(tmp_path) if command == "explore" else ["check", "c1a.nonempty"]
    code, _, err = run(capsys, *argv, flag, "0" * 5000 + "2")
    assert (code, err) == (2, f"error: {flag} value of 5001 digits is too long\n")
    assert "0" * 100 not in err


def test_integer_flags_take_signed_ascii_decimals(tmp_path, capsys, ones_file, coo_file):
    # the one integer grammar of the files, the flags and policy worker counts
    code, out, _ = run(capsys, "spmv", ones_file, coo_file, "--policy", "chunks:+02")
    assert (code, out) == (0, "5 11 1 0\n")
    argv = _explore_argv(tmp_path)
    race = ("--sync", "none_split_rw")
    code, out, _ = run(capsys, *argv, *race, "--workers", "+02", "--max-states", "0013")
    assert code == 1 and out.startswith("states_visited 13\n")
    code, _, err = run(capsys, *argv, *race, "--max-states", "12")
    assert code == 2 and "exceeded 12 states" in err
    code, out, _ = run(
        capsys, "check", "c1b.sorted", "--seed", "+7", "--cases", "012",
        "--max-len", "5", "--value-lo", "-3", "--value-hi", "-1",
    )
    assert code == 0 and out == "c1b.sorted pass cases=12\ntotal 1 passed, 0 failed\n"


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "ansv")[0] == 2  # missing file argument


def test_empty_sequence_file(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("")
    code, out, _ = run(capsys, "sort", str(p))
    assert code == 0 and out == "\n"
    code, out, _ = run(capsys, "cutpoints", str(p))
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_output_is_byte_stable(seq_file, capsys):
    first = run(capsys, "cartesian", seq_file)
    second = run(capsys, "cartesian", seq_file)
    assert first == second


def test_console_script_entry_point(tmp_path):
    p = tmp_path / "s.txt"
    p.write_text("6 3 4 2 5 3 7\n")
    proc = run_module("cutpoints", str(p))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "0 2 4 6 7"


def test_idle_pool_does_not_block_exit(ones_file, coo_file):
    proc = run_module("spmv", "--policy", "steal:2", ones_file, coo_file, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "5 11 1 0\n"


def test_check_reports_a_broken_coo_property(capsys, monkeypatch):
    def drop_last_triplet(x, m):
        y = [0] * m.cols
        for r, c, v in list(zip(m.row_idx, m.col_idx, m.vals))[:-1]:
            y[c] += x[r] * v
        return y

    monkeypatch.setattr(spmv, "multiply_seq", drop_last_triplet)
    argv = ("check", "c3.seq_correct", "--max-len", "2", "--value-lo", "-9", "--value-hi", "9")
    assert run(capsys, *argv) == (
        1,
        "c3.seq_correct fail cases=1\n"
        "  reason: multiply_seq [0] != dense oracle [-42]\n"
        "  counterexample: x=[4, -7] matrix=2x1 triplets=[(2, 1, 6)]\n"
        "  shrunk: x=[0, -1] matrix=2x1 triplets=[(2, 1, 1)]\n"
        "total 0 passed, 1 failed\n",
        "",
    )


def test_check_reports_broken_sequence_properties(capsys, monkeypatch):
    def merge_tie_drop(a, b):
        out, x, y = [], 0, 0
        while x < len(a) and y < len(b):
            if a[x] < b[y]:
                out.append(a[x])
                x += 1
            elif b[y] < a[x]:
                out.append(b[y])
                y += 1
            else:  # ties emit one copy, not two
                out.append(a[x])
                x += 1
                y += 1
        return out + a[x:] + b[y:]

    monkeypatch.setattr(ghcsort, "_merge_runs", merge_tie_drop)
    names = ("c1b.merge_sorted", "c1b.permutation", "c1b.sorted")
    flags = ("--max-len", "6", "--value-lo", "0", "--value-hi", "9")
    assert run(capsys, "check", *names, *flags) == (
        1,
        "c1b.merge_sorted fail cases=4\n"
        "  reason: merge([0, 2, 2], [0, 1, 3]) lost or invented elements:"
        " [0, 1, 2, 2, 3]\n"
        "  counterexample: [2, 0, 2, 0, 3, 1]\n"
        "  shrunk: [0, 0]\n"
        "c1b.permutation fail cases=4\n"
        "  reason: ghc_sort output is not a permutation of the input: [0, 1, 2, 3]\n"
        "  counterexample: [2, 0, 2, 0, 3, 1]\n"
        "  shrunk: [0, 1, 0]\n"
        "c1b.sorted pass cases=100\n"
        "total 1 passed, 2 failed\n",
        "",
    )


def test_check_rejects_value_ranges_outside_the_coo_cap(capsys):
    for lo, hi in (("2000000", "3000000"), ("-3000000", "-2000000")):
        assert run(capsys, "check", "c3.seq_correct", "--value-lo", lo, "--value-hi", hi) == (
            2,
            "",
            f"error: value range [{lo}, {hi}] misses the COO value range"
            " [-1048576, 1048576]\n",
        )


def test_check_rejects_the_zero_value_range(capsys):
    assert run(capsys, "check", "c3.seq_correct", "--value-lo", "0", "--value-hi", "0") == (
        2,
        "",
        "error: value range [0, 0] holds no nonzero COO value\n",
    )


def test_parser_is_built_once(seq_file, capsys, monkeypatch):
    def no_rebuild():
        raise AssertionError("run_cli rebuilt the parser")

    monkeypatch.setattr(cli, "_build_parser", no_rebuild)
    for _ in range(2):
        assert run(capsys, "ansv", seq_file) == (0, "0 1 2 0 4 5 6 6 8\n", "")
    assert run(capsys, "ansv", "--dir", "up", seq_file)[0] == 2
    assert run(capsys, "ansv", seq_file, "--dir", "right")[:2] == (0, "4 4 4 0 0 0 8 0 0\n")
