"""The checker reports' flags come from their bool fields, in field order."""

from itertools import product

import pytest

from oraclekit.ansv import AnsvReport
from oraclekit.cartesian import TreeReport
from oraclekit.monotonic import CutReport

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
