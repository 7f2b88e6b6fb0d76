"""Operation counters that certify complexity claims in tests; the flags
of the checker reports (a report's bool fields, in field order, which the
``cutpoints`` and ``cartesian`` commands print in that order); and
``is_index``, the one rule by which the checkers read an index.
"""

from dataclasses import dataclass, fields


@dataclass
class Tally:
    """Mutable counters an algorithm fills in when passed explicitly.

    comparisons: element-to-element comparisons performed.
    pops: stack pops performed.
    """

    comparisons: int = 0
    pops: int = 0


class FlagReport:
    """Base of the checker report dataclasses: the bool fields are flags."""

    def flags(self) -> list[tuple[str, bool]]:
        """``(name, value)`` per bool field, in field order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self) if f.type in (bool, "bool")]

    def all_ok(self) -> bool:
        return all(ok for _, ok in self.flags())


def is_index(x: object, n: int) -> bool:
    """True when ``x`` is an ``int`` (``bool`` included) in range(n)."""
    return isinstance(x, int) and 0 <= x < n
