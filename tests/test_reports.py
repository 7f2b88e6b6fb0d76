"""The checker reports' flags come from their bool fields, in field order,
and every checker answers a malformed answer with its report."""

from itertools import product

import pytest

from oraclekit.ansv import AnsvReport, NeighborArray, check_ansv
from oraclekit.cartesian import CartesianTree, TreeReport, check_tree
from oraclekit.monotonic import CutReport, check_cutpoints

# Per report: its flag names in the order the CLI prints them, and the
# conjunction all_ok() must equal, both written out by hand.
HAND_WRITTEN = (
    (
        CutReport,
        ("non_empty", "begin_to_end", "within_bounds", "monotonic", "right_maximal"),
        lambda r: (
            r.non_empty and r.begin_to_end and r.within_bounds and r.monotonic and r.right_maximal
        ),
    ),
    (
        AnsvReport,
        ("index_ok", "value_ok", "smallest_ok"),
        lambda r: r.index_ok and r.value_ok and r.smallest_ok,
    ),
    (
        TreeReport,
        ("binary_ok", "heap_ok", "traversal_ok"),
        lambda r: r.binary_ok and r.heap_ok and r.traversal_ok,
    ),
)


@pytest.mark.parametrize("cls, names, conjunction", HAND_WRITTEN)
def test_flags_and_all_ok_match_the_hand_written_lists(cls, names, conjunction):
    combos = list(product((False, True), repeat=len(names)))
    assert len(combos) == 2 ** len(names)  # 32 + 8 + 8 reports in all
    for values in combos:
        report = cls(*values)
        assert report.flags() == list(zip(names, values))
        assert report.all_ok() is conjunction(report)


def test_first_violation_is_not_a_flag():
    report = CutReport(True, True, True, False, False, ("monotonic", 2))
    assert [name for name, _ in report.flags()] == list(HAND_WRITTEN[0][1])
    assert not report.all_ok()


# Each checker's correct answer for S, by the field that holds it;
# "right_neighbors" is the ``neighbors`` field of a right array.
S = [2, 1, 3]
GOOD = {
    "cut": (0, 2, 3),
    "neighbors": (None, None, 1),
    "right_neighbors": (1, None, None),
    "parent": (1, None, 1),
    "left_child": (None, 0, None),
    "right_child": (None, 2, None),
    "root": 1,
}
# Absent, not an int, out of range on either side, and an int only as a bool.
ENTRIES = (None, "1", 1.0, 1.5, -1, len(S), True)


def _check(field, answer):
    """Run the checker that reads ``field`` on S with ``answer`` there."""
    if field == "cut":
        return CutReport, check_cutpoints(S, list(answer))
    if field == "neighbors":
        return AnsvReport, check_ansv(S, NeighborArray(answer, "left"))
    if field == "right_neighbors":
        return AnsvReport, check_ansv(S, NeighborArray(answer, "right"))
    tree = {f: GOOD[f] for f in ("parent", "left_child", "right_child", "root")}
    return TreeReport, check_tree(S, CartesianTree(**{**tree, field: answer}))


def _malformed():
    for field, good in GOOD.items():
        for i in range(len(good)) if isinstance(good, tuple) else [None]:
            for v in ENTRIES:
                bad = v if i is None else (*good[:i], v, *good[i + 1 :])
                name = field if i is None else f"{field}[{i}]"
                yield pytest.param(field, bad, v, id=f"{name}={v!r}")


def test_the_table_answers_are_correct():
    for field, good in GOOD.items():
        assert _check(field, good)[1].all_ok(), field


@pytest.mark.parametrize("field, answer, entry", _malformed())
def test_every_checker_reports_on_every_entry(field, answer, entry):
    cls, report = _check(field, answer)
    assert type(report) is cls
    assert all(type(ok) is bool for _, ok in report.flags())
    if entry is not None and not isinstance(entry, int):
        assert not report.all_ok()
