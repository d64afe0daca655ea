import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotss import confcoh
from knotss.confcoh import (CohClass, ParseError, admissible_basis,
                            coface_pullback, coface_terms, dim_cohomology,
                            normal_form, parse_class, sinha_d1, straighten,
                            zero_class)
from knotss.fields import F2, F3, QQ

from confcoh_reference import class_to_vector, codegeneracy_pullback

FIELDS = [F2, F3, QQ]


def random_class(draw, p, field, degree=None):
    if degree is None:
        degree = draw(st.integers(0, p - 1))
    basis = admissible_basis(p, degree)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(basis),
                           max_size=len(basis)))
    terms = {m: field.of(c) for m, c in zip(basis, coeffs)}
    return CohClass(p, degree, field, terms)


@st.composite
def class_pair(draw, max_p=5):
    p = draw(st.integers(2, max_p))
    field = draw(st.sampled_from(FIELDS))
    q1 = draw(st.integers(0, min(2, p - 1)))
    q2 = draw(st.integers(0, min(2, p - 1)))
    return (random_class(draw, p, field, q1), random_class(draw, p, field, q2))


def test_normal_form_examples():
    # one 3-term rewrite: g13*g23 = g12*g23 - g12*g13
    x = normal_form(3, [(1, 3), (2, 3)], QQ)
    assert x == parse_class("g12*g23 - g12*g13", 3, QQ)
    assert normal_form(3, [(1, 2), (1, 2)], QQ).is_zero()
    # transposition of odd generators
    y = normal_form(3, [(2, 3), (1, 2)], QQ)
    assert y == parse_class("g12*g23", 3, QQ).scale(-1)


def test_normal_form_rejects_generators_out_of_range():
    # normal_form checks its own factors: parse_class validates first,
    # so this is the only route that reaches the check
    for arity, factors, bad in ((3, [(1, 2), (1, 4)], "g(1,4)"),
                                (4, [(2, 2)], "g(2,2)")):
        with pytest.raises(ValueError) as err:
            normal_form(arity, factors, QQ)
        assert str(err.value) == ("generator %s out of range at arity %d"
                                  % (bad, arity))


def reference_straighten(factors):
    """Worklist straightening, the reference for straighten: sort each
    product by (second, first) index with the sign of the permutation,
    drop it on a repeated factor, and push both terms of the 3-term
    rewrite at its first pair of equal second indices."""
    result = {}
    stack = [(1, tuple(factors))]
    while stack:
        coeff, fs = stack.pop()
        fs = list(fs)
        for a in range(1, len(fs)):  # insertion sort, one sign per swap
            b = a
            while b > 0 and (fs[b - 1][1], fs[b - 1][0]) > (fs[b][1], fs[b][0]):
                fs[b - 1], fs[b] = fs[b], fs[b - 1]
                coeff = -coeff
                b -= 1
        fs = tuple(fs)
        if any(fs[a] == fs[a + 1] for a in range(len(fs) - 1)):
            continue  # g^2 = 0
        offender = None
        for a in range(len(fs) - 1):
            if fs[a][1] == fs[a + 1][1]:
                offender = a
                break
        if offender is None:
            result[fs] = result.get(fs, 0) + coeff
            if result[fs] == 0:
                del result[fs]
            continue
        (i, k), (j, _) = fs[offender], fs[offender + 1]
        rest = fs[:offender] + fs[offender + 2:]
        stack.append((coeff, ((i, j), (j, k)) + rest))
        stack.append((-coeff, ((i, j), (i, k)) + rest))
    return result


def test_straighten_matches_the_worklist_reference():
    # every ordered product of up to 4 generators at arity <= 5, repeated
    # and unsorted factors included, then a seeded sample of longer
    # products at arity 7; each by straighten, and sorted then rewritten
    # with one memo shared by all calls, as a d_1 assembly shares it
    gens5 = list(combinations(range(1, 6), 2))
    products = [fs for n in range(5) for fs in product(gens5, repeat=n)]
    rng = random.Random(20261018)
    gens7 = list(combinations(range(1, 8), 2))
    products += [tuple(rng.choice(gens7) for _ in range(rng.randint(5, 7)))
                 for _ in range(400)]
    shared = {}
    for fs in products:
        expected = reference_straighten(fs)
        assert straighten(fs) == expected, fs
        fs, sign = confcoh._sort_with_sign(fs)
        assert {m: sign * z for m, z
                in confcoh._straighten_sorted(fs, shared)} == expected, fs


def test_straighten_terminates_on_long_products():
    # every factor shares second index; forces a cascade of rewrites
    out = straighten(((1, 4), (2, 4), (3, 4)))
    assert all(len({j for (_, j) in m}) == len(m) for m in out)


def test_straighten_early_return_edges():
    # strictly increasing seconds come back as they are; equal seconds, a
    # repeated factor and unsorted seconds still need the rewrite
    assert straighten(((1, 2), (1, 3), (2, 4))) == {((1, 2), (1, 3), (2, 4)): 1}
    assert straighten(()) == {(): 1}
    assert straighten(((1, 3), (2, 3))) == {((1, 2), (2, 3)): 1,
                                            ((1, 2), (1, 3)): -1}
    assert straighten(((1, 2), (1, 2))) == {}
    assert straighten(((1, 3), (2, 4), (1, 3))) == {}
    assert straighten(((2, 4), (1, 3))) == {((1, 3), (2, 4)): -1}


def _generator_image(i, p, a, b):
    """g_ab under the i-th coface pullback, read off the map of points:
    the inner coface i merges points i and i+1, the outer ones drop
    point 1 (i = 0) or point p (i = p).  None when g_ab dies."""
    if i == 0:
        point = {k: k - 1 for k in range(2, p + 1)}
    elif i == p:
        point = {k: k for k in range(1, p)}
    else:
        point = {k: k - (k > i) for k in range(1, p + 1)}
    if a not in point or b not in point or point[a] == point[b]:
        return None
    return (point[a], point[b])


def test_coface_image_is_the_ring_map_of_the_generator_images():
    # the image of a monomial is the product, by CohClass.__mul__, of
    # the images of its generators taken one at a time, and it lies on
    # the admissible basis (both sides straighten, so check that too)
    for F in FIELDS:
        for p in range(2, 7):
            for q in range(p):
                target = set(admissible_basis(p - 1, q))
                for m in admissible_basis(p, q):
                    for i in range(p + 1):
                        expected = CohClass(p - 1, 0, F, {(): F.one})
                        for (a, b) in m:
                            g = _generator_image(i, p, a, b)
                            if g is None:
                                expected = zero_class(p - 1, q, F)
                                break
                            expected = expected * normal_form(p - 1, [g], F)
                        got = {mm: F.of(z)
                               for mm, z in coface_terms(i, p, m)}
                        assert set(got) <= target, (p, m, i)
                        assert CohClass(p - 1, q, F, got) == expected, (p, m, i)


def _clashes(i, p, m):
    """The inner coface i meets factors of m with second indices i and
    i + 1, neither of them g_{i,i+1}: the image needs the rewrite."""
    seconds = {b for _, b in m}
    return (0 < i < p and {i, i + 1} <= seconds and (i, i + 1) not in m)


def test_coface_terms_match_the_reference_on_every_coface(monkeypatch):
    # over Z, on every admissible monomial with p <= 7 and every coface:
    # distinct admissible monomials with nonzero ints, whose dict is the
    # reference straightening of the generator images, with and without
    # a shared memo.  Every clashing image, and no other, reaches the
    # rewrite, and some do at every p >= 3.
    rewrite, depth, calls = confcoh._straighten_sorted, [0], [0]

    def counted(fs, memo):
        calls[0] += not depth[0]
        depth[0] += 1
        try:
            return rewrite(fs, memo)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(confcoh, "_straighten_sorted", counted)
    for p in range(2, 8):
        clashes = 0
        calls[0] = 0
        for q in range(p):
            shared = {}
            for m in admissible_basis(p, q):
                for i in range(p + 1):
                    mapped = [_generator_image(i, p, a, b) for (a, b) in m]
                    expected = ({} if None in mapped
                                else reference_straighten(mapped))
                    clashes += _clashes(i, p, m)
                    for memo in (None, shared):
                        pairs = coface_terms(i, p, m, memo)
                        assert dict(pairs) == expected, (p, m, i)
                        assert len(dict(pairs)) == len(pairs), (p, m, i)
                        for mm, z in pairs:
                            assert type(z) is int and z, (p, m, i)
                            assert all(1 <= a < b < p for a, b in mm)
                            assert all(f[1] < g[1] for f, g in zip(mm, mm[1:]))
        assert calls[0] == 2 * clashes, p
        assert clashes > 0 or p < 3, p


def reference_straighten_sorted(fs, memo):
    """The rewrite as first written, the reference for
    confcoh._straighten_sorted: both terms of the 3-term rewrite are
    re-sorted by _sort_with_sign before the recursion."""
    for a in range(len(fs) - 1):
        if fs[a][1] == fs[a + 1][1]:
            break
    else:
        return ((fs, 1),)
    if any(fs[b] == fs[b + 1] for b in range(a, len(fs) - 1)):
        return ()  # g^2 = 0
    hit = memo.get(fs)
    if hit is not None:
        return hit
    (i, k), (j, _) = fs[a], fs[a + 1]
    ij, rest = (i, j), fs[:a] + fs[a + 2:]
    out = {}
    for coeff, term in ((-1, (ij, fs[a]) + rest), (1, (ij, fs[a + 1]) + rest)):
        term, sgn = confcoh._sort_with_sign(term)
        for m, z in reference_straighten_sorted(term, memo):
            out[m] = out.get(m, 0) + coeff * sgn * z
    hit = memo[fs] = tuple((m, z) for m, z in out.items() if z)
    return hit


def test_rewrite_matches_the_re_sorting_reference_node_by_node():
    # the sorted tuples that d_1 hands to the rewrite for p <= 7, then
    # every sorted product of up to 4 generators at arity <= 5; one memo
    # per route, shared by all calls, and the two memos agree on every
    # node, pairs and their order included.  Some nodes rewrite to a
    # g_ij that already occurs, where both terms vanish.
    inputs = []
    for p in range(3, 8):
        for q in range(p):
            for m in admissible_basis(p, q):
                for i in range(1, p):
                    if _clashes(i, p, m):
                        mapped = [_generator_image(i, p, a, b) for a, b in m]
                        inputs.append(confcoh._sort_with_sign(mapped)[0])
    gens5 = list(combinations(range(1, 6), 2))
    inputs += sorted({confcoh._sort_with_sign(fs)[0] for n in range(5)
                      for fs in product(gens5, repeat=n)})
    got, want = {}, {}
    for fs in inputs:
        assert confcoh._straighten_sorted(fs, got) == \
            reference_straighten_sorted(fs, want), fs
    assert got == want
    repeats = 0
    for fs in want:
        a = next(a for a in range(len(fs) - 1) if fs[a][1] == fs[a + 1][1])
        repeats += (fs[a][0], fs[a + 1][0]) in fs[:a]
    assert repeats > 0


def test_dim_cohomology_values():
    assert dim_cohomology(4, 2) == 11
    assert dim_cohomology(5, 3) == 50
    for p in range(1, 8):
        assert dim_cohomology(p, 0) == 1
    assert dim_cohomology(4, 3) == 6
    assert dim_cohomology(3, 2) == 2


def test_admissible_basis_matches_dimension():
    for p in range(2, 8):
        for q in range(p):
            assert len(admissible_basis(p, q)) == dim_cohomology(p, q)


def test_coface_examples():
    x = parse_class("g13*g24", 4, QQ)
    assert coface_pullback(2, x) == parse_class("g12*g23", 3, QQ)
    assert coface_pullback(1, parse_class("g12", 2, QQ)).is_zero()
    assert coface_pullback(0, parse_class("g23", 3, QQ)) == parse_class("g12", 2, QQ)


def test_codegeneracy_examples():
    assert codegeneracy_pullback(0, parse_class("g12", 2, QQ)) == parse_class("g23", 3, QQ)
    assert codegeneracy_pullback(2, parse_class("g12", 2, QQ)) == parse_class("g12", 3, QQ)
    x = parse_class("g12*g13", 3, QQ)
    assert codegeneracy_pullback(1, x) == parse_class("g13*g14", 4, QQ)


def test_char2_cycle():
    x = parse_class("g14*g23+g13*g24+g12*g34", 4, F2)
    assert sinha_d1(x).is_zero()
    y = parse_class("g14*g23+g13*g24+g12*g34", 4, QQ)
    d = sinha_d1(y)
    assert not d.is_zero()
    # 2(g12*g23 - g13*g23) = 2 g12*g13 in the admissible basis
    assert d == parse_class("g12*g23 - g13*g23", 3, QQ).scale(2)


FOUR_TERM = ("-g(1,3)*g(2,3)*g(4,5)+g(1,4)*g(2,4)*g(3,5)"
             "+g(1,4)*g(2,5)*g(3,4)+g(1,5)*g(2,4)*g(3,4)")


def test_char3_cycle():
    assert sinha_d1(parse_class(FOUR_TERM, 5, F3)).is_zero()
    assert not sinha_d1(parse_class(FOUR_TERM, 5, QQ)).is_zero()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_class("g12 + g13*g14", 4, QQ)  # mixed degrees
    with pytest.raises(ParseError):
        parse_class("g15", 4, QQ)  # index beyond arity
    with pytest.raises(ParseError):
        parse_class("g21", 4, QQ)  # i >= j
    with pytest.raises(ParseError):
        parse_class("g12 & g13", 4, QQ)
    assert parse_class("g12*g12", 4, QQ).is_zero()


@pytest.mark.parametrize("text, position", [
    ("g12*g23 - + g12*g13", 10),  # a sign after a sign
    ("--g12", 1),
    ("g12+", 3),  # a trailing sign
    ("g12*", 3),  # a '*' with no factor after it
    ("*g12", 0),  # or before it
    ("g12**g13", 3),
])
def test_parse_rejects_a_sign_or_star_without_its_factor(text, position):
    # each of these once parsed as a class: a second sign overwrote the
    # first, and a trailing sign or a dangling '*' was dropped
    with pytest.raises(ParseError) as err:
        parse_class(text, 3, QQ)
    assert err.value.position == position


def test_parse_keeps_a_single_leading_sign():
    # criterion 04's class opens with -g(1,3)*...
    assert parse_class("-g(1,3)*g(2,3)", 3, QQ) == \
        normal_form(3, [(1, 3), (2, 3)], QQ, coeff=-1)
    assert parse_class(" + g12 - g13", 3, QQ) == \
        parse_class("g12", 3, QQ) - parse_class("g13", 3, QQ)


def test_parse_class_coerces_once_per_monomial(field_of_calls):
    # the four terms of criterion 04's class straighten to 8 distinct
    # monomials; their integer sums meet the field once each
    calls = field_of_calls
    for F in FIELDS:
        calls[0] = 0
        x = parse_class(FOUR_TERM, 5, F)
        assert calls[0] == len(x.terms) == 8, F


def test_the_constructor_coerces_its_values():
    # as FreeElement's does: 4 is 1 in F3, and a value 3 vanishes there
    x = CohClass(2, 1, F3, {((1, 2),): 4})
    assert x == parse_class("g12", 2, F3) and repr(x) == "1·g(1,2)"
    assert repr(x + parse_class("g12", 2, F3)) == "2·g(1,2)"
    assert CohClass(2, 1, F3, {((1, 2),): 3}).is_zero()
    v = CohClass(2, 1, QQ, {((1, 2),): 2}).terms[(1, 2),]
    assert type(v) is Fraction and v == 2


def test_parse_paren_and_coefficients():
    a = parse_class("2*g(1,2)*g(3,4) - g13*g24", 4, QQ)
    b = parse_class("g12*g34", 4, QQ).scale(2) - parse_class("g13*g24", 4, QQ)
    assert a == b


@given(class_pair())
@settings(max_examples=60, deadline=None)
def test_coface_is_algebra_map(pair):
    x, y = pair
    p = x.arity
    for i in range(p + 1):
        assert coface_pullback(i, x * y) == coface_pullback(i, x) * coface_pullback(i, y)


@given(class_pair(max_p=5))
@settings(max_examples=40, deadline=None)
def test_cosimplicial_coface_identity(pair):
    # dual of d^j d^i = d^i d^{j-1} for i < j, checked as pullbacks:
    # (d^i)* (d^j)* = (d^{j-1})* (d^i)*
    x, _ = pair
    p = x.arity
    if p < 3:
        return
    for j in range(1, p + 1):
        for i in range(j):
            lhs = coface_pullback(i, coface_pullback(j, x))
            rhs = coface_pullback(j - 1, coface_pullback(i, x))
            assert lhs == rhs


@given(class_pair(max_p=6))
@settings(max_examples=40, deadline=None)
def test_d1_squared_zero_random(pair):
    x, _ = pair
    if x.arity < 3:
        return
    assert sinha_d1(sinha_d1(x)).is_zero()


@given(class_pair())
@settings(max_examples=40, deadline=None)
def test_normal_form_idempotent(pair):
    x, _ = pair
    for m, c in x.terms.items():
        again = normal_form(x.arity, m, x.field, coeff=c)
        assert again.terms.get(m) == c and len(again.terms) == 1


def test_d1_squared_zero_full_basis_small():
    for field in FIELDS:
        for p in range(3, 6):
            for q in range(p):
                for m in admissible_basis(p, q):
                    x = CohClass(p, q, field, {m: field.one})
                    assert sinha_d1(sinha_d1(x)).is_zero()


def test_class_to_vector_roundtrip():
    basis = admissible_basis(4, 2)
    x = parse_class("g14*g23+g13*g24", 4, F3)
    v = class_to_vector(x, basis)
    assert sum(1 for c in v if c) == 2
