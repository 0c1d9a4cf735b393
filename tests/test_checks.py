import pytest

from klblocks import (
    HeckeAlgebra,
    LaurentPoly,
    divide_by_linear,
    run_all_checks,
    standard_block,
    weyl_group,
)
from klblocks.checks import (
    _CATALOGUE,
    CheckResult,
    _MaxDescentHecke,
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


def test_descent_rule_check_fails_on_a_planted_column():
    suite = _Suite("A3")
    group = suite.group
    low, high = HeckeAlgebra(group), _MaxDescentHecke(group)
    assert any(low._pick_descent(w) != high._pick_descent(w) for w in group.elements[1:])
    # P_{e,w} + q for l(w) = 3 still meets the degree bound (l(w) - l(e) - 1)/2
    w, e = group.word_elem((1, 2, 3)), group.identity
    column = dict(low.kl_column(w))
    column[e] = column[e] + LaurentPoly.gen()
    suite.hecke.kl_table.store({w: column})
    result = suite.check_descent_rule()
    assert result.line().startswith("FAIL") and "raised" not in result.detail


def test_kl_checks_fail_on_a_planted_entry():
    suite = _Suite("A3")
    group = suite.group
    # P_{s1,w} = 1 becomes 1 + q in the column of the second-longest element;
    # with l(w) - l(s1) = 4 it still meets the degree bound.
    w, y = group.elements[-2], group.simple(1)
    column = dict(suite.hecke.kl_column(w))
    assert column[y] == LaurentPoly.one() and w.length - y.length >= 3
    column[y] = column[y] + LaurentPoly.gen()
    suite.hecke.kl_table.store({w: column})
    for result in (suite.check_kl_oracle(), suite.check_kl_axioms()):
        assert result.line().startswith("FAIL") and "raised" not in result.detail


def test_suite_seeds_from_the_canonical_type():
    assert _Suite(" a2").rng.getstate() == _Suite("A2").rng.getstate()
    # Types with names of one length draw from streams of their own.
    states = [_Suite(kind).rng.getstate() for kind in ("A2", "B2", "G2", "A3")]
    assert len(set(states)) == len(states)


@pytest.mark.parametrize("kind, distinct", [("A2", 16), ("B3", 64)])
def test_check_all_builds_each_block_once(monkeypatch, kind, distinct):
    from klblocks import checks

    built = []

    def counting(group, I, J):
        built.append((frozenset(I), frozenset(J)))
        return standard_block(group, I, J)

    monkeypatch.setattr(checks, "standard_block", counting)
    assert all(result.passed for result in run_all_checks(kind))
    assert len(built) == len(set(built)) == distinct


@pytest.mark.parametrize("kind", ["A2", "G2", "A3", "B3"])
def test_bar_solve_oracle_matches_recursion(kind):
    group = weyl_group(kind)
    hecke = HeckeAlgebra(group)
    for w in group.elements:
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


def test_crashing_check_fails_under_its_declared_name(monkeypatch, capsys):
    from klblocks import checks
    from klblocks.cli import main

    names = [r.name for r in run_all_checks("A2")]

    def boom(hecke, w):
        raise RuntimeError("oracle down")

    monkeypatch.setattr(checks, "kl_bar_solve", boom)
    results = run_all_checks("A2")
    assert len(results) == 41
    assert [r.name for r in results] == names
    assert [r.line() for r in results if not r.passed] == [
        "FAIL kl bar-solve oracle  (raised RuntimeError: oracle down)"]
    assert main(["check-all", "--type", "A2"]) == 2
    assert "FAIL kl bar-solve oracle  (raised RuntimeError" in capsys.readouterr().out


def test_every_check_method_is_catalogued_once_in_order():
    methods = [fn for attr, fn in vars(_Suite).items() if attr.startswith("check_")]
    assert [check for _, check in _CATALOGUE] == methods
    names = [name for name, _ in _CATALOGUE]
    assert len(names) == len(set(names)) == 41


@pytest.mark.parametrize("kind", ["A1", "A2", "G2", "B3"])
def test_division_check_runs_forty_exact_divisions(monkeypatch, kind):
    from klblocks import checks

    calls = []

    def counting(f, linear):
        calls.append(linear)
        return divide_by_linear(f, linear)

    monkeypatch.setattr(checks, "divide_by_linear", counting)
    suite = _Suite(kind)
    # Replay the catalogue up to the division check, so its random draws
    # are the ones check-all makes.
    for _, check in _CATALOGUE:
        result = check(suite)
        if check.__name__ == "check_poly_division":
            break
    assert result.passed and result.detail == "40 exact + 1 rejected"
    assert len(calls) == 41
