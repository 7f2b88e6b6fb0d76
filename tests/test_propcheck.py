import pytest

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
from oraclekit.properties import Property
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
