import pytest

from klblocks import HeckeAlgebra, run_all_checks
from klblocks.checks import (
    CheckResult,
    _Suite,
    bruhat_closure_leq,
    double_quotient_weight_oracle,
    kl_bar_solve,
)


def test_result_line_format():
    ok = CheckResult("something", True, "detail")
    bad = CheckResult("other", False, "broke")
    assert ok.line().startswith("ok ")
    assert "something" in ok.line()
    assert bad.line().startswith("FAIL")
    assert "broke" in bad.line()
    skip = CheckResult("third", True, "too big", skipped=True)
    assert skip.line() == "skip third  (too big)"


@pytest.mark.parametrize("kind, check", [
    ("A4", "check_descent_rule"),
    ("A5", "check_bruhat_closure"),
])
def test_large_group_check_is_skipped_not_passed(kind, check):
    result = getattr(_Suite(kind), check)()
    assert result.skipped and result.passed
    assert result.line().startswith("skip ")


def test_bar_solve_oracle_matches_recursion(a2):
    hecke = HeckeAlgebra(a2)
    for w in a2.elements:
        assert kl_bar_solve(hecke, w) == hecke.kl_element(w)


def test_bruhat_oracle_is_bruhat_order(b2):
    closure = bruhat_closure_leq(b2)
    for x in b2.elements:
        for y in b2.elements:
            assert ((x.index, y.index) in closure) == b2.bruhat_leq(x, y)


def test_weight_oracle_is_double_quotient(a2):
    subsets = [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    for I in subsets:
        for J in subsets:
            assert double_quotient_weight_oracle(a2, I, J) == \
                list(a2.double_quotient(I, J))


def test_run_all_checks_a2():
    results = run_all_checks("A2")
    failed = [r.line() for r in results if not r.passed]
    assert failed == []
    assert len(results) > 30
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_run_all_checks_b2_with_progress():
    seen = []
    results = run_all_checks("B2", progress=seen.append)
    assert [r.line() for r in results if not r.passed] == []
    assert seen == results


def test_poincare_duality_computes_beyond_the_product_cap():
    # B3 is past the exhaustive cap; the check samples pairs itself
    # instead of deferring to the gram check.
    result = _Suite("B3").check_poincare_duality()
    assert result.passed
    assert "covered" not in result.detail
    assert result.detail.startswith("sampled")
