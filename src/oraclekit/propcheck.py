"""Deterministic property-based checking harness.

Reproducibility is the whole point: case ``i`` under seed ``s`` is the
same sequence of bytes on every machine and every run, so a failure
report can be replayed anywhere. The generator is splitmix64 seeded
per case with ``mix64(seed * GOLDEN + case_index)``; nothing depends on
Python's hash randomization or global ``random`` state.

Failures are shrunk greedily: drop an element, halve a value toward
zero, restart from the first candidate that still fails. The shrinker
only ever returns inputs that fail the same property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .errors import ConfigError
from .spmv import CooMatrix, coo_from_triplets

__all__ = [
    "CaseRng",
    "GenConfig",
    "PropertyResult",
    "gen_coo",
    "gen_sequence",
    "run_suite",
    "shrink_coo",
    "shrink_sequence",
]

T = TypeVar("T")
CooCase = tuple[list[int], CooMatrix]  # a COO property's input: vector, matrix

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


class CaseRng:
    """splitmix64 stream, independently seeded for each (seed, case)."""

    def __init__(self, seed: int, case_index: int) -> None:
        self._state = _mix64((seed * GOLDEN + case_index) & MASK64)

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return _mix64(self._state)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform-ish draw from [lo, hi] inclusive."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def next_below(self, n: int) -> int:
        return self.next_u64() % n


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the random generators.

    Defaults are small enough for interactive use; the acceptance run
    overrides cases and max_len.
    """

    seed: int = 1
    max_len: int = 50
    value_lo: int = -1000
    value_hi: int = 1000
    cases: int = 100

    def __post_init__(self) -> None:
        if self.max_len < 0:
            raise ConfigError(f"max_len must be nonnegative, got {self.max_len}")
        if self.value_lo > self.value_hi:
            raise ConfigError(f"empty value range [{self.value_lo}, {self.value_hi}]")
        if self.cases < 0:
            raise ConfigError(f"cases must be nonnegative, got {self.cases}")


def gen_sequence(cfg: GenConfig, case_index: int) -> list[int]:
    """One random sequence, shaped by a per-case regime.

    Cases cycle through five regimes so structured inputs (sorted runs,
    heavy duplicates, all-distinct) appear at a fixed rate instead of
    almost never: uniform, sorted, reverse-sorted, few distinct values,
    all distinct.
    """
    rng = CaseRng(cfg.seed, case_index)
    n = rng.next_int(0, cfg.max_len)
    lo, hi = cfg.value_lo, cfg.value_hi
    regime = case_index % 5
    if regime == 1:
        return sorted(rng.next_int(lo, hi) for _ in range(n))
    if regime == 2:
        return sorted((rng.next_int(lo, hi) for _ in range(n)), reverse=True)
    if regime == 3:
        span = min(4, hi - lo + 1)
        return [lo + rng.next_below(span) for _ in range(n)]
    if regime == 4 and hi - lo + 1 >= n and n > 0:
        # Distinct values: a random window shuffled in place.
        start = rng.next_int(lo, hi - n + 1)
        vals = list(range(start, start + n))
        for i in range(n - 1, 0, -1):
            j = rng.next_below(i + 1)
            vals[i], vals[j] = vals[j], vals[i]
        return vals
    return [rng.next_int(lo, hi) for _ in range(n)]


# COO values stay inside +/-2^20 so row sums cannot approach 64 bits;
# dimensions stay at most 8, which keeps every matrix at most 64 triplets.
_COO_CAP = 1 << 20
_COO_MAX_DIM = 8


def _clamped(rng: CaseRng, lo: int, hi: int) -> int:
    v = rng.next_int(max(lo, -_COO_CAP), min(hi, _COO_CAP))
    if v == 0:
        v = 1 if hi >= 1 else -1
    return v


def gen_coo(cfg: GenConfig, case_index: int) -> CooCase:
    """A random vector and compatible sparse matrix.

    Dimensions are in [1, min(max_len, 8)]; density is drawn from
    10-50 percent with stochastic rounding so tiny matrices still get
    occasional entries.
    """
    lo, hi = cfg.value_lo, cfg.value_hi
    if lo > _COO_CAP or hi < -_COO_CAP:  # _clamped would draw from an empty range
        cap = f"[{-_COO_CAP}, {_COO_CAP}]"
        raise ConfigError(f"value range [{lo}, {hi}] misses the COO value range {cap}")
    rng = CaseRng(cfg.seed, case_index)
    dim_cap = max(1, min(cfg.max_len, _COO_MAX_DIM))
    rows = rng.next_int(1, dim_cap)
    cols = rng.next_int(1, dim_cap)
    pct = rng.next_int(10, 50)
    nnz = (rows * cols * pct + rng.next_below(100)) // 100
    nnz = min(nnz, rows * cols)

    # Sample nnz distinct cells: partial Fisher-Yates over cell ids.
    cells = list(range(rows * cols))
    for i in range(nnz):
        j = i + rng.next_below(len(cells) - i)
        cells[i], cells[j] = cells[j], cells[i]
    chosen = sorted(cells[:nnz])

    triplets = [
        (cell // cols + 1, cell % cols + 1, _clamped(rng, lo, hi)) for cell in chosen
    ]
    x = [_clamped(rng, lo, hi) for _ in range(rows)]
    return x, coo_from_triplets(rows, cols, triplets)


def _halved(v: int) -> int:
    return v // 2 if v > 0 else -((-v) // 2)


def _shrink(
    value: T, candidates: Callable[[T], Iterator[T]], fails: Callable[[T], bool]
) -> T:
    """Greedy first-improvement shrink: move to the first candidate that
    still fails and start over, until no candidate fails."""
    current = value
    while True:
        for cand in candidates(current):
            if fails(cand):
                current = cand
                break
        else:
            return current


def _sequence_candidates(s: list[int]) -> Iterator[list[int]]:
    for i in range(len(s)):
        yield s[:i] + s[i + 1 :]
    for i, v in enumerate(s):
        if v != 0:
            yield s[:i] + [_halved(v)] + s[i + 1 :]


def shrink_sequence(
    value: list[int], fails: Callable[[list[int]], bool]
) -> list[int]:
    """Greedy first-improvement shrink; result still fails the check."""
    return _shrink(list(value), _sequence_candidates, fails)


def _coo_candidates(value: CooCase) -> Iterator[CooCase]:
    x, m = value
    trips = list(m.to_triplets())
    for i in range(len(trips)):
        yield list(x), coo_from_triplets(m.rows, m.cols, trips[:i] + trips[i + 1 :])
    for i, (r, c, v) in enumerate(trips):
        if abs(v) != 1:
            smaller = trips[:i] + [(r, c, _halved(v))] + trips[i + 1 :]
            yield list(x), coo_from_triplets(m.rows, m.cols, smaller)
    for i, v in enumerate(x):
        if v != 0:
            yield x[:i] + [_halved(v)] + x[i + 1 :], m
    if m.rows > 1 and max(m.row_idx, default=0) < m.rows - 1:
        yield x[:-1], coo_from_triplets(m.rows - 1, m.cols, trips)
    if m.cols > 1 and max(m.col_idx, default=0) < m.cols - 1:
        yield list(x), coo_from_triplets(m.rows, m.cols - 1, trips)


def shrink_coo(value: CooCase, fails: Callable[[CooCase], bool]) -> CooCase:
    return _shrink(value, _coo_candidates, fails)


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of running one named property over the generated cases."""

    name: str
    status: str  # "pass" or "fail"
    cases_run: int
    counterexample: Optional[tuple[object, object]] = None  # (original, shrunk)
    message: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def run_suite(
    names: Sequence[str], cfg: GenConfig, registry: Optional[dict] = None
) -> list[PropertyResult]:
    """Run named properties case-major, one generated stream per kind.

    Each case is generated once and fed to every still-active property
    of its kind; a property stops at its first failure, which is then
    shrunk. Fixed properties (exhaustive sweeps, pinned witnesses) get
    one ``None`` case and no shrinker. Results follow ``names``.
    """
    from .properties import REGISTRY

    reg = registry if registry is not None else REGISTRY
    names = list(dict.fromkeys(names))
    unknown = [n for n in names if n not in reg]
    if unknown:
        raise ConfigError(f"unknown properties: {', '.join(sorted(unknown))}")
    streams = {  # kind -> generator, shrinker, case count
        "fixed": (lambda _cfg, _i: None, None, 1),
        "sequence": (gen_sequence, shrink_sequence, cfg.cases),
        "coo": (gen_coo, shrink_coo, cfg.cases),
    }
    odd = [n for n in names if reg[n].kind not in streams]
    if odd:
        raise ConfigError(f"properties of unknown kind: {', '.join(sorted(odd))}")

    results: dict[str, PropertyResult] = {}
    for kind, (generate, shrinker, cases) in streams.items():
        active = [reg[n] for n in names if reg[n].kind == kind]
        for i in range(cases):
            if not active:
                break
            value = generate(cfg, i)
            still = []
            for p in active:
                msg = p.check(value)
                if msg is None:
                    still.append(p)
                    continue
                example = None
                if shrinker is not None:
                    shrunk = shrinker(value, lambda c, p=p: p.check(c) is not None)
                    example = (value, shrunk)
                results[p.name] = PropertyResult(p.name, "fail", i + 1, example, msg)
            active = still
        for p in active:
            results[p.name] = PropertyResult(p.name, "pass", cases)
    return [results[n] for n in names]
