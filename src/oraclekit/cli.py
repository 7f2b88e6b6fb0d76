"""Command-line front end.

Every subcommand prints its primary answer as a bare first line in the
1-based, 0-for-absent convention used throughout, followed by
``KEY value`` lines, so output is equally easy to eyeball and to parse.
Identical invocations produce byte-identical output.

Exit codes: 0 when the command's checks pass, 1 when a verification or
property fails, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import ansv, cartesian, ghcsort, monotonic, parallel, properties, propcheck, spmv
from .errors import ConfigError, OracleKitError
from .propcheck import GenConfig
from .spmv import CooMatrix

__all__ = ["main", "run_cli"]


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise OracleKitError(f"{path} is not ASCII text") from None


def _load_sequence(path: str) -> list[int]:
    """Whitespace-separated signed 64-bit decimals; empty file = empty sequence."""
    text = _read_text(path)
    out = spmv._decimals(text, "sequence")
    if not spmv._fits64(out):  # name the first bad value in file order
        spmv._reject_first_bad(text.split(), "sequence")
    return out


def _decimal(text: str, what: str) -> int:
    """``text`` as an int if it is one ASCII ``DECIMAL_RE`` token, the grammar
    of the input files; ``int()`` alone also takes non-ASCII digits, ``_``
    and padding."""
    if not spmv.DECIMAL_RE.fullmatch(text):
        raise ConfigError(f"{what} {text!r} is not a decimal integer")
    try:
        return int(text)
    except ValueError:  # over int()'s digit limit; never print the token
        n = len(text.lstrip("+-"))
        raise ConfigError(f"{what} of {n} digits is too long") from None


def _parse_policy(text: str) -> Optional[parallel.AllocationPolicy]:
    """seq, per-element, chunks:N, or steal:N; None means sequential."""
    if text == "seq":
        return None
    if text == "per-element":
        return parallel.AllocationPolicy.per_element()
    for prefix, ctor in (
        ("chunks:", parallel.AllocationPolicy.static_chunks),
        ("steal:", parallel.AllocationPolicy.dynamic_stealing),
    ):
        if text.startswith(prefix):
            return ctor(_decimal(text[len(prefix) :], "worker count"))
    raise ConfigError(
        f"unknown policy {text!r}; expected seq, per-element, chunks:N, or steal:N"
    )


def _one_based(indices) -> str:
    return " ".join("0" if i is None else str(i + 1) for i in indices)


def _cmd_cutpoints(args: argparse.Namespace) -> int:
    s = _load_sequence(args.file)
    cut = monotonic.compute_cutpoints(s)
    report = monotonic.check_cutpoints(s, cut)
    print(" ".join(map(str, cut)))
    keys = ("non_empty", "begin_to_end", "within_bounds", "monotonic", "right_maximal")
    for key in keys:
        print(f"{key} {_bool(getattr(report, key))}")
    return 0 if report.all_ok() else 1


def _cmd_sort(args: argparse.Namespace) -> int:
    s = _load_sequence(args.file)
    out = ghcsort.ghc_sort(s)
    print(" ".join(map(str, out)))
    if not args.verify:
        return 0
    is_sorted = ghcsort.is_sorted(out)
    is_perm = ghcsort.multiset_equal(out, s)
    print(f"sorted {_bool(is_sorted)}")
    print(f"permutation {_bool(is_perm)}")
    return 0 if is_sorted and is_perm else 1


def _cmd_ansv(args: argparse.Namespace) -> int:
    s = _load_sequence(args.file)
    arr = ansv.left_neighbors(s) if args.dir == "left" else ansv.right_neighbors(s)
    print(_one_based(arr.neighbors))
    return 0


def _cmd_cartesian(args: argparse.Namespace) -> int:
    s = _load_sequence(args.file)
    tree = cartesian.build_tree(s)
    report = cartesian.check_tree(s, tree)
    print(_one_based(tree.parent))
    for key in ("binary_ok", "heap_ok", "traversal_ok"):
        print(f"{key} {_bool(getattr(report, key))}")
    return 0 if report.all_ok() else 1


def _cmd_spmv(args: argparse.Namespace) -> int:
    x = _load_sequence(args.vector)
    m = spmv.coo_from_text(_read_text(args.matrix))
    policy = _parse_policy(args.policy)
    if policy is None:
        y = spmv.multiply_seq(x, m)
    else:
        y = parallel.multiply_parallel(x, m, policy)
    print(" ".join(map(str, y)))
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    x = _load_sequence(args.vector)
    m = spmv.coo_from_text(_read_text(args.matrix))
    ts = parallel.build_model(x, m, args.workers, args.sync)
    report = parallel.explore(ts, max_states=args.max_states)
    print(f"states_visited {report.states_visited}")
    print(f"deadlock_found {_bool(report.deadlock_found)}")
    print(f"matches_sequential {_bool(report.matches_sequential)}")
    outputs = sorted(report.terminal_outputs)
    print(f"terminal_count {len(outputs)}")
    for out in outputs:
        print("terminal " + " ".join(map(str, out)))
    return 0 if report.matches_sequential else 1


def _render_example(value: object) -> str:
    if isinstance(value, tuple) and len(value) == 2 and isinstance(value[1], CooMatrix):
        x, m = value
        return f"x={x} matrix={m.rows}x{m.cols} triplets={list(m.to_triplets())}"
    return repr(value)


def _cmd_check(args: argparse.Namespace) -> int:
    if args.list:
        for name in properties.PROPERTY_NAMES:
            print(f"{name}  {properties.REGISTRY[name].summary}")
        return 0
    names = args.properties or list(properties.PROPERTY_NAMES)
    cfg = GenConfig(
        seed=args.seed,
        max_len=args.max_len,
        value_lo=args.value_lo,
        value_hi=args.value_hi,
        cases=args.cases,
    )
    results = propcheck.run_suite(names, cfg)
    failed = 0
    for r in results:
        print(f"{r.name} {r.status} cases={r.cases_run}")
        if not r.passed:
            failed += 1
            print(f"  reason: {r.message}")
            if r.counterexample is not None:
                original, shrunk = r.counterexample
                print(f"  counterexample: {_render_example(original)}")
                print(f"  shrunk: {_render_example(shrunk)}")
    print(f"total {len(results) - failed} passed, {failed} failed")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oraclekit",
        description="Checked sequence and sparse-matrix algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def int_flag(p: argparse.ArgumentParser, flag: str, default: int) -> None:
        p.add_argument(flag, type=lambda t: _decimal(t, f"{flag} value"), default=default)

    p = sub.add_parser("cutpoints", help="split a sequence into maximal monotonic runs")
    p.add_argument("file", help="sequence file")
    p.set_defaults(func=_cmd_cutpoints)

    p = sub.add_parser("sort", help="sort by merging monotonic runs")
    p.add_argument("file", help="sequence file")
    p.add_argument("--verify", action="store_true", help="also check the output")
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser("ansv", help="nearest smaller values (1-based, 0 = none)")
    p.add_argument("file", help="sequence file")
    p.add_argument("--dir", choices=("left", "right"), default="left")
    p.set_defaults(func=_cmd_ansv)

    p = sub.add_parser("cartesian", help="Cartesian tree parents (1-based, 0 = root)")
    p.add_argument("file", help="sequence file, values must be distinct")
    p.set_defaults(func=_cmd_cartesian)

    p = sub.add_parser("spmv", help="sparse vector-matrix product")
    p.add_argument("vector", help="vector file")
    p.add_argument("matrix", help="COO matrix file")
    p.add_argument(
        "--policy",
        default="seq",
        help="seq, per-element, chunks:N, or steal:N (default: seq)",
    )
    p.set_defaults(func=_cmd_spmv)

    p = sub.add_parser("explore", help="enumerate interleavings of a small product")
    p.add_argument("vector", help="vector file")
    p.add_argument("matrix", help="COO matrix file")
    int_flag(p, "--workers", 2)
    p.add_argument("--sync", choices=parallel.SYNC_MODES, default="atomic_rmw")
    int_flag(p, "--max-states", 1_000_000)
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("check", help="run named properties over random cases")
    p.add_argument(
        "properties",
        nargs="*",
        metavar="PROPERTY",
        help="property names (default: all)",
    )
    p.add_argument("--list", action="store_true", help="list properties and exit")
    int_flag(p, "--seed", 1)
    int_flag(p, "--cases", 100)
    int_flag(p, "--max-len", 50)
    int_flag(p, "--value-lo", -1000)
    int_flag(p, "--value-hi", 1000)
    p.set_defaults(func=_cmd_check)

    return parser


_PARSER = _build_parser()  # built once per process; parse_args keeps no state


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse has already printed its message
        return exc.code if isinstance(exc.code, int) else 2
    except (OracleKitError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
