"""Operation counters that certify complexity claims in tests, and the
flags of the checker reports: a report's bool fields, in field order, are
its flags, and the ``cutpoints`` and ``cartesian`` commands print them in
that order.
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
