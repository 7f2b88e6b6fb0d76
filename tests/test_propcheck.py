import pytest

from oraclekit import ansv, ghcsort
from oraclekit.errors import ConfigError
from oraclekit.propcheck import (
    CaseRng,
    GenConfig,
    PropertyResult,
    gen_coo,
    gen_sequence,
    run_suite,
    shrink_coo,
    shrink_sequence,
)
from oraclekit.properties import PROPERTY_NAMES, Property
from oraclekit.spmv import multiply_seq


def test_rng_is_deterministic():
    a = CaseRng(1, 7)
    b = CaseRng(1, 7)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]
    assert CaseRng(1, 8).next_u64() != CaseRng(1, 7).next_u64()
    assert CaseRng(2, 7).next_u64() != CaseRng(1, 7).next_u64()


def test_rng_bounded_draws():
    rng = CaseRng(3, 0)
    draws = [rng.next_int(-5, 5) for _ in range(2000)]
    assert all(-5 <= d <= 5 for d in draws)
    assert min(draws) == -5 and max(draws) == 5
    with pytest.raises(ValueError):
        rng.next_int(2, 1)
    ones = sum(CaseRng(4, i).next_below(2) for i in range(10000))
    assert 4500 < ones < 5500  # unbiased enough to trust coverage claims


def test_gen_sequence_reproducible_and_bounded():
    cfg = GenConfig(seed=1, max_len=50)
    for i in range(100):
        s = gen_sequence(cfg, i)
        assert s == gen_sequence(cfg, i)
        assert len(s) <= cfg.max_len
        assert all(cfg.value_lo <= v <= cfg.value_hi for v in s)


def test_gen_sequence_regimes():
    cfg = GenConfig(seed=1, max_len=50)
    for base in range(0, 200, 5):
        assert gen_sequence(cfg, base + 1) == sorted(gen_sequence(cfg, base + 1))
        rev = gen_sequence(cfg, base + 2)
        assert rev == sorted(rev, reverse=True)
        assert len(set(gen_sequence(cfg, base + 3))) <= 4
        distinct = gen_sequence(cfg, base + 4)
        assert len(set(distinct)) == len(distinct)


def test_gen_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(max_len=-1)
    with pytest.raises(ConfigError):
        GenConfig(value_lo=5, value_hi=4)
    with pytest.raises(ConfigError):
        GenConfig(cases=-1)


def test_gen_coo_reproducible_and_well_formed():
    cfg = GenConfig(seed=2, max_len=50)
    for i in range(100):
        x, m = gen_coo(cfg, i)
        x2, m2 = gen_coo(cfg, i)
        assert x == x2 and m == m2
        assert 1 <= m.rows <= 8 and 1 <= m.cols <= 8  # dims capped at 8
        assert len(x) == m.rows
        assert all(abs(v) <= 1 << 20 and v != 0 for v in m.vals)
        multiply_seq(x, m)  # never overflows by construction


def test_shrink_sequence_reaches_local_minimum():
    def fails(s):
        return len(s) >= 2 and s[0] > s[1]

    assert shrink_sequence([7, 3, 9], fails) == [1, 0]
    # the result of a shrink always still fails
    assert fails(shrink_sequence([50, 2, 2, 40, 1], fails))


def test_shrink_sequence_identity_when_already_minimal():
    def fails(s):
        return s == [4]

    assert shrink_sequence([4], fails) == [4]


def test_shrink_coo_drops_and_halves():
    def fails(value):
        x, m = value
        return 0 in m.col_idx

    cfg = GenConfig(seed=5, max_len=20)
    for i in range(50):
        x, m = gen_coo(cfg, i)
        if not fails((x, m)):
            continue
        sx, sm = shrink_coo((x, m), fails)
        assert fails((sx, sm))
        assert len(sm.vals) == 1 and abs(sm.vals[0]) == 1
        assert sm.cols == 1  # unused trailing columns dropped
        assert sm.rows == sm.row_idx[0] + 1  # rows above the entry dropped
        assert all(v == 0 for v in sx)
        break
    else:
        pytest.fail("no generated case hit column 1")


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ConfigError):
        run_suite(["c1a.nonempty", "no.such.prop"], GenConfig())
    registry = {"toy.odd": Property("toy.odd", "matrix", lambda _v: None, "bad kind")}
    with pytest.raises(ConfigError, match="properties of unknown kind: toy.odd"):
        run_suite(["toy.odd"], GenConfig(), registry=registry)


def test_run_suite_pass_counts():
    cfg = GenConfig(seed=1, cases=40)
    results = run_suite(["c1a.nonempty", "c1b.sorted"], cfg)
    assert [r.name for r in results] == ["c1a.nonempty", "c1b.sorted"]
    assert all(r.passed and r.cases_run == 40 for r in results)
    assert all(r.counterexample is None for r in results)


def test_run_suite_shrinks_failures():
    registry = {
        "toy.no_big": Property(
            "toy.no_big",
            "sequence",
            lambda s: None if not s or max(s) < 900 else f"max is {max(s)}",
            "synthetic failing property",
        ),
        "toy.fixed_bad": Property(
            "toy.fixed_bad",
            "fixed",
            lambda _v: "always wrong",
            "synthetic fixed failure",
        ),
    }
    cfg = GenConfig(seed=1, cases=300)
    results = {
        r.name: r
        for r in run_suite(["toy.no_big", "toy.fixed_bad"], cfg, registry=registry)
    }
    bad = results["toy.no_big"]
    assert bad.status == "fail"
    assert bad.counterexample is not None
    original, shrunk = bad.counterexample
    assert max(original) >= 900
    # drops strip everything but one offender; halving cannot cross the
    # 900 boundary without the property passing, so one element remains
    assert len(shrunk) == 1 and shrunk[0] >= 900
    fixed = results["toy.fixed_bad"]
    assert fixed.status == "fail" and fixed.cases_run == 1
    assert fixed.counterexample is None
    assert fixed.message == "always wrong"


def test_property_result_shape():
    r = PropertyResult("x", "pass", 3)
    assert r.passed and r.counterexample is None and r.message == ""


def test_gen_coo_rejects_value_ranges_outside_the_cap():
    cap = 1 << 20
    for lo, hi in ((2_000_000, 3_000_000), (-3_000_000, -2_000_000), (cap + 1, cap + 1)):
        with pytest.raises(ConfigError) as exc:
            gen_coo(GenConfig(value_lo=lo, value_hi=hi), 0)
        assert str(exc.value) == (
            f"value range [{lo}, {hi}] misses the COO value range [{-cap}, {cap}]"
        )
    # sequence properties never draw a COO case, so such a range still runs them
    results = run_suite(["c1a.nonempty"], GenConfig(value_lo=2_000_000, value_hi=3_000_000))
    assert [r.status for r in results] == ["pass"]


def test_gen_coo_stream_is_pinned():
    # ranges that touch the cap, and the default one, draw what they always drew
    cap = 1 << 20
    x, m = gen_coo(GenConfig(seed=1), 0)
    assert x == [-25, 821, -147, 209, -488, 689, 601, -720]
    assert (m.rows, m.cols, len(m.vals), sum(m.vals)) == (8, 7, 28, 502)
    for lo, hi in ((cap, 3_000_000), (-3_000_000, -cap)):
        x, m = gen_coo(GenConfig(seed=3, value_lo=lo, value_hi=hi), 0)
        v = cap if lo > 0 else -cap
        assert x == [v] * 5
        assert list(m.to_triplets()) == [
            (r, c, v) for r, c in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 3), (4, 1), (4, 2))
        ]


# --- differential pin: the one case loop against the three-phase harness ---


def _reference_run_suite(names, cfg, registry=None):
    """The harness before the single case loop: fixed properties first,
    then one phase per generated kind, then one pass assembling results
    from two dicts. ``run_suite`` must return equal results and make the
    same checks in the same order."""
    from oraclekit.properties import REGISTRY

    reg = registry if registry is not None else REGISTRY
    names = list(dict.fromkeys(names))
    unknown = [n for n in names if n not in reg]
    if unknown:
        raise ConfigError(f"unknown properties: {', '.join(sorted(unknown))}")
    props = [reg[n] for n in names]

    failures = {}
    cases_ran = {n: 0 for n in names}

    for p in props:
        if p.kind == "fixed":
            msg = p.check(None)
            cases_ran[p.name] = 1
            if msg is not None:
                failures[p.name] = (None, None, msg)

    for kind, generate, shrinker in (
        ("sequence", gen_sequence, shrink_sequence),
        ("coo", gen_coo, shrink_coo),
    ):
        active = [p for p in props if p.kind == kind]
        if not active:
            continue
        for case_index in range(cfg.cases):
            value = generate(cfg, case_index)
            still = []
            for p in active:
                msg = p.check(value)
                cases_ran[p.name] += 1
                if msg is None:
                    still.append(p)
                    continue

                def fails(cand, p=p):
                    return p.check(cand) is not None

                failures[p.name] = (value, shrinker(value, fails), msg)
            active = still
            if not active:
                break

    results = []
    for name in names:
        if name in failures:
            original, shrunk, msg = failures[name]
            example = None if original is None else (original, shrunk)
            results.append(PropertyResult(name, "fail", cases_ran[name], example, msg))
        else:
            results.append(PropertyResult(name, "pass", cases_ran[name]))
    return results


def _assert_same_as_reference(names, cfg, registry=None):
    got = run_suite(names, cfg, registry=registry)
    assert got == _reference_run_suite(names, cfg, registry=registry)
    return got


def test_run_suite_matches_reference_on_every_property():
    names = list(PROPERTY_NAMES)
    for seed in (1, 2, 3):
        got = _assert_same_as_reference(names, GenConfig(seed=seed, cases=4, max_len=10))
        assert [r.name for r in got] == names and all(r.passed for r in got)


def _logging_registry(log):
    """Toy properties that record every check call: one failing at case 0,
    one at a later case, a COO failure, a fixed failure and two passes."""

    def prop(name, kind, bad):
        def check(value):
            log.append((name, repr(value)))
            return f"{name} rejects it" if bad(value) else None

        return Property(name, kind, check, name)

    return {
        p.name: p
        for p in (
            prop("toy.first", "sequence", lambda s: True),
            prop("toy.big", "sequence", lambda s: bool(s) and max(s) >= 900),
            prop("toy.seq_ok", "sequence", lambda s: False),
            prop("toy.coo_big", "coo", lambda v: any(abs(t) >= 700 for t in v[1].vals)),
            prop("toy.coo_ok", "coo", lambda v: False),
            prop("toy.fixed_bad", "fixed", lambda v: True),
            prop("toy.fixed_ok", "fixed", lambda v: False),
        )
    }


@pytest.mark.parametrize(
    "names",
    [
        ["toy.first", "toy.big", "toy.seq_ok", "toy.coo_big", "toy.coo_ok",
         "toy.fixed_bad", "toy.fixed_ok"],
        # out of kind order, with duplicates
        ["toy.coo_ok", "toy.big", "toy.fixed_ok", "toy.coo_big", "toy.big",
         "toy.fixed_bad", "toy.first", "toy.coo_ok"],
        ["toy.big"],
        ["toy.coo_big", "toy.fixed_bad"],
        [],
    ],
)
@pytest.mark.parametrize("cases", [0, 1, 60])
def test_run_suite_matches_reference_on_toy_registries(names, cases):
    new_log, ref_log = [], []
    cfg = GenConfig(seed=4, cases=cases, max_len=20)
    got = run_suite(names, cfg, registry=_logging_registry(new_log))
    want = _reference_run_suite(names, cfg, registry=_logging_registry(ref_log))
    assert got == want
    assert new_log == ref_log  # same checks, shrink steps included, same order
    if cases == 60 and "toy.big" in names:
        big = next(r for r in got if r.name == "toy.big")
        assert big.status == "fail" and big.cases_run > 1  # fails after case 0


def _merge_tie_drop(a, b):
    out, x, y = [], 0, 0
    while x < len(a) and y < len(b):
        if a[x] < b[y]:
            out.append(a[x])
            x += 1
        elif b[y] < a[x]:
            out.append(b[y])
            y += 1
        else:  # the injected bug: ties emit one copy, not two
            out.append(a[x])
            x += 1
            y += 1
    return out + a[x:] + b[y:]


def _pop_survivor(s, tally=None):
    out, stack = [], []
    for x in range(len(s)):
        while stack and s[stack[-1]] >= s[x]:
            stack.pop()
        out.append(stack.pop() if stack else None)  # the injected bug
        stack.append(x)
    return ansv.NeighborArray(tuple(out), "left")


@pytest.mark.parametrize(
    "module, name, mutant",
    [(ghcsort, "merge", _merge_tie_drop), (ansv, "left_neighbors", _pop_survivor)],
    ids=["merge_tie_drop", "pop_survivor"],
)
def test_run_suite_matches_reference_on_mutants(monkeypatch, module, name, mutant):
    monkeypatch.setattr(module, name, mutant)
    names = [n for n in PROPERTY_NAMES if n.startswith(("c1", "c2"))]
    got = _assert_same_as_reference(names, GenConfig(seed=1, cases=300, max_len=30))
    assert any(r.counterexample for r in got)
