"""Operation counters used to certify complexity claims in tests."""

from dataclasses import dataclass


@dataclass
class Tally:
    """Mutable counters an algorithm fills in when passed explicitly.

    comparisons: element-to-element comparisons performed.
    pops: stack pops performed.
    """

    comparisons: int = 0
    pops: int = 0
