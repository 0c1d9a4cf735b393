import pytest

from klblocks import NotCanonicalError, weyl_group
from klblocks.checks import bruhat_closure_leq, double_quotient_weight_oracle
from klblocks.weyl import MAX_GROUP_ORDER, weyl_group_of_kind, weyl_group_order


def words(elems):
    return [w.word for w in elems]


def test_a2_structure(a2):
    assert len(a2.elements) == 6
    assert a2.w0.length == 3
    assert a2.w0.word == (1, 2, 1)
    assert words(a2.elements) == [(), (1,), (2,), (1, 2), (2, 1), (1, 2, 1)]


def test_orders():
    assert len(weyl_group("A1").elements) == 2
    assert len(weyl_group("B2").elements) == 8
    assert len(weyl_group("G2").elements) == 12
    assert len(weyl_group("A3").elements) == 24
    assert len(weyl_group("B3").elements) == 48


def test_element_identities(a2):
    s1, s2 = a2.simple(1), a2.simple(2)
    assert s1 * s1 is a2.identity
    assert (s1 * s2 * s1) == (s2 * s1 * s2)
    # non-reduced input is fine: (s1 s2)^2 = (s1 s2)^-1 = s2 s1
    assert a2.word_elem((1, 2, 1, 2)) is s2 * s1
    for w in a2.elements:
        assert w.inverse() * w is a2.identity
        assert w.inverse().length == w.length


def test_registry_is_singleton(a2):
    assert a2.word_elem((1, 2)) is a2.word_elem((1, 2))
    assert a2.simple(1) * a2.simple(2) is a2.word_elem((1, 2))


def test_descents(b2):
    w0 = b2.w0
    assert b2.left_descents(w0) == (1, 2)
    assert b2.right_descents(b2.identity) == ()
    s1 = b2.simple(1)
    assert b2.right_descents(s1) == (1,)


def test_reduced_words_use_smallest_descent(b2):
    for w in b2.elements:
        word = w.word
        assert b2.word_elem(word) is w
        assert len(word) == w.length
        if word:
            assert word[0] == min(b2.left_descents(w))


def test_bruhat_matches_closure_oracle(a2, b2, b3):
    for group in (a2, b2, b3, weyl_group("D4")):
        closed = bruhat_closure_leq(group)
        for x in group.elements:
            for y in group.elements:
                assert group.bruhat_leq(x, y) == ((x.index, y.index) in closed)


def test_bruhat_basics(a3):
    e = a3.identity
    for w in a3.elements:
        assert a3.bruhat_leq(e, w)
        assert a3.bruhat_leq(w, a3.w0)
        assert a3.bruhat_leq(w, w)
    s1, s2 = a3.simple(1), a3.simple(2)
    assert not a3.bruhat_leq(s1, s2)
    assert not a3.bruhat_leq(a3.w0, s1)


def test_parabolic_subgroup(a3):
    sub = a3.parabolic_elements(frozenset({1, 2}))
    assert len(sub) == 6
    assert a3.parabolic_longest(frozenset({1, 2})).word == (1, 2, 1)
    assert a3.parabolic_elements(frozenset()) == (a3.identity,)


def test_min_coset_reps(a2):
    # W^{J={1}} in A2 and the canonical longest-quotient representative
    reps = a2.min_coset_reps(frozenset({1}))
    assert words(reps) == [(), (2,), (1, 2)]
    w_j = a2.parabolic_longest(frozenset({1}))
    d_j = a2.w0 * w_j.inverse()
    assert d_j.word == (1, 2)
    assert d_j in reps
    right = a2.min_coset_reps_right(frozenset({1}))
    assert words(right) == [(), (2,), (2, 1)]


def test_coset_factorize(b2):
    J = frozenset({2})
    for w in b2.elements:
        d, u = b2.coset_factorize(w, J)
        assert d * u is w
        assert d.length + u.length == w.length
        assert d in b2.min_coset_reps(J)
        assert u in b2.parabolic_elements(J)


def test_double_quotient_definition(a2):
    # brute force from the defining descent conditions
    for I in (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})):
        for J in (frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})):
            got = a2.double_quotient(I, J)
            left = set(a2.min_coset_reps_right(I))
            brute = [
                w for w in a2.min_coset_reps(J)
                if w in left and all(
                    (w * a2.simple(j)).length == w.length + 1
                    and (w * a2.simple(j)) in left
                    for j in J
                )
            ]
            assert list(got) == brute
            assert list(got) == double_quotient_weight_oracle(a2, I, J)


@pytest.mark.parametrize("kind", ["D4", "F4"])
def test_descents_and_cosets_match_products_and_lengths(kind):
    # every answer read off the shift tables, against definitions by
    # Weyl products and lengths alone
    group = weyl_group(kind)
    simples = [group.word_elem((i,)) for i in range(1, group.rank + 1)]
    right = {w: {i for i, s in enumerate(simples, 1) if (w * s).length < w.length}
             for w in group.elements}
    left = {w: {i for i, s in enumerate(simples, 1) if (s * w).length < w.length}
            for w in group.elements}
    for w in group.elements:
        assert group.right_descents(w) == tuple(sorted(right[w]))
        assert group.left_descents(w) == tuple(sorted(left[w]))
    subsets = [frozenset(J) for J in ((), (1,), (2,), (1, 3), (2, 3), (1, 2, 4), (1, 2, 3, 4))]
    for J in subsets:
        reps = [w for w in group.elements if not right[w] & J]
        reps_right = [w for w in group.elements if not left[w] & J]
        assert list(group.min_coset_reps(J)) == reps
        assert list(group.min_coset_reps_right(J)) == reps_right
        inside = set(group.parabolic_elements(J))
        for w in group.elements:
            d, u = group.coset_factorize(w, J)
            assert d * u is w and d.length + u.length == w.length
            assert not right[d] & J and u in inside
        for I in subsets:
            in_left = [w for w in group.elements if not left[w] & I]
            brute = [
                w for w in in_left
                if all((w * simples[j - 1]).length == w.length + 1
                       and not left[w * simples[j - 1]] & I for j in J)
            ]
            assert list(group.double_quotient(I, J)) == brute


def test_double_quotient_can_be_empty():
    a1 = weyl_group("A1")
    assert a1.double_quotient(frozenset({1}), frozenset({1})) == ()


def test_dot_action(a2):
    s1 = a2.simple(1)
    assert s1.dot((0, 0)) == (-2, 1)
    assert a2.identity.dot((-3, 4)) == (-3, 4)
    w = a2.word_elem((1, 2))
    u = a2.word_elem((2, 1))
    lam = (-4, 1)
    assert w.dot(u.dot(lam)) == (w * u).dot(lam)


def test_dominance_predicates(a2):
    assert a2.is_antidominant((-2, -2))
    assert a2.is_antidominant((-1, -2))
    assert not a2.is_antidominant((0, -2))
    assert a2.is_dominant((0, 0))


def test_singularity_subset(a2):
    assert a2.singularity_subset((-2, -2)) == frozenset()
    assert a2.singularity_subset((-1, -2)) == frozenset({1})
    assert a2.singularity_subset((-1, -1)) == frozenset({1, 2})
    with pytest.raises(NotCanonicalError):
        a2.singularity_subset((0, -3))


def test_antidominant_representative(a2):
    for lam in ((0, 0), (-1, 3), (2, -4), (-2, -2)):
        mu = a2.antidominant_representative(lam)
        assert a2.is_antidominant(mu)
        assert any(w.dot(lam) == mu for w in a2.elements)
    assert a2.antidominant_representative((0, 0)) == (-2, -2)


def test_dot_stabilizer(a2):
    assert a2.dot_stabilizer((-2, -2)) == (a2.identity,)
    stab = a2.dot_stabilizer((-1, -2))
    assert set(stab) == {a2.identity, a2.simple(1)}


def test_element_repr(a2):
    text = repr(a2.word_elem((1, 2)))
    assert "A2" in text


def matmul(a, b):
    """Plain integer matrix product, the route the shift tables replace."""
    return tuple(
        tuple(sum(a[m][t] * b[t][k] for t in range(len(b))) for k in range(len(b[0])))
        for m in range(len(a))
    )


def simple_matrix(cartan, i):
    """s_i on fundamental-weight coordinates: lambda - lambda_i alpha_i."""
    n = len(cartan)
    return tuple(
        tuple(int(m == k) - int(k == i - 1) * cartan[m][i - 1] for k in range(n))
        for m in range(n)
    )


def element_matrices(group):
    """Each element's matrix, the product of simple matrices along its word."""
    n, cartan = group.rank, group.datum.cartan
    out = {}
    for w in group.elements:
        m = tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
        for i in w.word:
            m = matmul(m, simple_matrix(cartan, i))
        out[w] = m
    return out


@pytest.mark.parametrize("kind", ["A3", "B3", "G2", "D4", "F4"])
def test_shift_tables_match_matrix_products(kind):
    group = weyl_group(kind)
    matrices = element_matrices(group)
    by_matrix = {m: w for w, m in matrices.items()}
    assert len(by_matrix) == group.order
    for i in range(1, group.rank + 1):
        s = simple_matrix(group.datum.cartan, i)
        for w, m in matrices.items():
            assert group.right[i - 1][w.index] == by_matrix[matmul(m, s)].index
            assert group.left[i - 1][w.index] == by_matrix[matmul(s, m)].index


def test_all_products_match_matrix_products(b3):
    matrices = element_matrices(b3)
    by_matrix = {m: w for w, m in matrices.items()}
    weights = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3))
    for x in b3.elements:
        for y in b3.elements:
            assert x * y is by_matrix[matmul(matrices[x], matrices[y])]
        for weight in weights:
            column = matmul(matrices[x], tuple((c,) for c in weight))
            assert x.act(weight) == tuple(row[0] for row in column)


@pytest.mark.parametrize("kind", ["A3", "B3", "G2", "D4", "F4"])
def test_inverse_is_the_reversed_word_product(kind):
    group = weyl_group(kind)
    for w in group.elements:
        assert w.inverse() is group.word_elem(reversed(w.word))


def test_elements_are_interned(a3):
    for x in a3.elements:
        assert hash(x) == x.index
        for y in a3.elements:
            assert (x == y) is (x is y)
    assert a3.word_elem((1, 2, 1)) is a3.word_elem((2, 1, 2))


@pytest.mark.parametrize("kind", ["B3", "D4"])
def test_enumeration_is_deterministic(kind):
    first, second = weyl_group_of_kind(kind), weyl_group_of_kind(kind)
    assert words(first.elements) == words(second.elements)
    assert first.right == second.right
    assert first.left == second.left


@pytest.mark.parametrize("kind", ["A1", "A4", "B2", "B4", "C3", "D4", "D5", "F4", "G2", "E6"])
def test_order_formula_matches_enumeration(kind):
    group = weyl_group_of_kind(kind)
    assert weyl_group_order(kind) == len(group.elements)
    assert group.w0.act((1,) * group.rank) == (-1,) * group.rank
    # The search meets the elements in canonical order, and each word
    # starts with the element's smallest left descent.
    by_word = sorted(group.elements, key=lambda w: (w.length, w.word))
    assert [w.index for w in by_word] == list(range(group.order))
    assert all(w.word[0] == group.left_descents(w)[0] for w in group.elements[1:])


@pytest.mark.parametrize("kind, order", [
    ("E7", 2_903_040), ("E8", 696_729_600), ("A8", 362_880),
    ("B7", 645_120), ("C7", 645_120), ("D7", 322_560),
])
def test_oversized_groups_are_refused_before_enumeration(kind, order):
    assert weyl_group_order(kind) == order > MAX_GROUP_ORDER
    with pytest.raises(ValueError, match=f"{order}.*{MAX_GROUP_ORDER}"):
        weyl_group_of_kind(kind)


def test_largest_accepted_groups_are_under_the_cap():
    for kind, order in (("E6", 51_840), ("A7", 40_320), ("B6", 46_080)):
        assert weyl_group_order(kind) == order <= MAX_GROUP_ORDER


def test_element_entry_points_refuse_another_group(a3, b2):
    # Each of these used to read a B2 element's index in A3: s1 of B2 was
    # below w0, w0 of B2 split as 2.3 * e, and w0 * s1 was an A3 element.
    message = "Weyl group of B2 used in that of A3"
    s1, top = b2.simple(1), b2.w0
    for op in (lambda: a3.bruhat_leq(s1, a3.w0), lambda: a3.bruhat_leq(a3.identity, s1),
               lambda: a3.coset_factorize(top, {1}), lambda: a3.w0 * s1):
        with pytest.raises(ValueError, match=message):
            op()
    with pytest.raises(ValueError, match="Weyl group of A3 used in that of B2"):
        s1 * a3.w0
    assert a3.bruhat_leq(a3.simple(1), a3.w0)
    assert a3.coset_factorize(a3.w0, {1})[0] * a3.simple(1) is a3.w0
