import itertools

import pytest
from hypothesis import given, settings, strategies as st

from knotss import operads
from knotss.fields import F2, F3, QQ
from knotss.operads import (LEAF, FreeElement, ainf_differential,
                            d_squared_report, free_differential, generator,
                            graft, leaf_count, tree_degree)

FIELDS = [F2, F3, QQ]

MU2 = generator(2)
MU3 = generator(3)
SIGNED_D_TREE = operads._d_tree


def unsigned_d_tree(tree):
    """operads._d_tree with every sign 1: the tree differential without
    its Koszul signs, which tests patch in as a fault.  It is the signed
    d over F2, where -1 = 1."""
    return [(t, 1) for t, _ in SIGNED_D_TREE(tree)]


def compose_free(a, i, b):
    """Bilinear partial composition a o_i b."""
    if a.field != b.field:
        raise ValueError("mixed fields")
    F = a.field
    out = FreeElement(F)
    for ta, ca in a.terms.items():
        for tb, cb in b.terms.items():
            out = out + FreeElement.single(F, graft(ta, i, tb), F.mul(ca, cb))
    return out


def test_generator_shape():
    assert MU2 == (2, LEAF, LEAF)
    assert leaf_count(MU3) == 3
    assert tree_degree(MU2) == 0
    assert tree_degree(MU3) == 1
    assert tree_degree(generator(5)) == 3
    with pytest.raises(ValueError):
        generator(1)


def test_graft_planar_order():
    t = graft(MU2, 1, MU2)
    assert t == (2, MU2, LEAF)
    assert leaf_count(t) == 3
    # grafting at each leaf slot of a 3-leaf tree
    assert graft(t, 3, MU3) == (2, MU2, MU3)
    assert graft(t, 1, MU2) == (2, (2, MU2, LEAF), LEAF)
    assert graft(t, 2, LEAF) == t
    with pytest.raises(ValueError):
        graft(t, 4, MU2)
    with pytest.raises(ValueError):
        graft(t, 0, MU2)


def test_operad_axioms_on_generators():
    F = QQ
    m2 = FreeElement.single(F, MU2)
    # parallel axiom: composing in disjoint slots commutes
    left = compose_free(compose_free(m2, 1, m2), 3, m2)
    right = compose_free(compose_free(m2, 2, m2), 1, m2)
    assert left == right
    # nested axiom
    left = compose_free(compose_free(m2, 1, m2), 2, m2)
    right = compose_free(m2, 1, compose_free(m2, 2, m2))
    assert left == right
    # the naive relabelled identity is false for planar slot numbering
    left = compose_free(compose_free(m2, 1, m2), 3, m2)
    right = compose_free(m2, 1, compose_free(m2, 2, m2))
    assert left != right


def test_differential_small_arities():
    for F in FIELDS:
        assert ainf_differential(2, F).is_zero()
        d3 = ainf_differential(3, F)
        assert d3.terms == {graft(MU2, 1, MU2): F.one,
                            graft(MU2, 2, MU2): F.of(-1)}


def test_differential_arity4_term_count():
    # l + q = 5: (l, q) in {(2, 3), (3, 2)} gives 2 + 3 = 5 summands
    d4 = ainf_differential(4, QQ)
    assert len(d4.terms) == 5
    trees = set(d4.terms)
    assert graft(MU2, 1, MU3) in trees
    assert graft(MU2, 2, MU3) in trees
    assert {graft(MU3, i, MU2) for i in (1, 2, 3)} <= trees


def test_ainf_differential_matches_the_root_sign_formula():
    # d mu_k is the root summands of the derivation on generator(k):
    # mu_l o_{p+1} mu_q signed (-1)^{p + q(l-p-1)}
    for F in FIELDS:
        for k in range(2, 7):
            terms = {}
            for l in range(2, k):
                q = k + 1 - l
                for p in range(l):
                    sign = (-1) ** (p + q * (l - p - 1))
                    terms[graft(generator(l), p + 1, generator(q))] = sign
            assert ainf_differential(k, F) == FreeElement(F, terms), (F, k)


def test_d_squared_verbatim_char2_only(monkeypatch):
    # the unsigned d agrees with the signed d over F2 on mu_k and on
    # the trees of d mu_k up to arity 7, and fails d^2 = 0 over F3 and
    # Q from arity 4 on
    signed = {k: ainf_differential(k, F2) for k in range(2, 8)}
    signed_dd = {k: free_differential(d) for k, d in signed.items()}
    monkeypatch.setattr(operads, "_d_tree", unsigned_d_tree)
    for k, d in signed.items():
        assert ainf_differential(k, F2) == d, k
        assert free_differential(d) == signed_dd[k], k
    for F in (F3, QQ):
        rep = d_squared_report(6, F)
        assert rep["failures"] == [4, 5, 6] and not rep["pass"], rep


def test_d_squared_signed_all_fields():
    for F in FIELDS:
        rep = d_squared_report(6, F)
        assert rep["pass"], rep
    # d(d mu_k) never differentiates a child past another inner vertex;
    # on these trees d^2 = 0 needs the Koszul sign of that move
    mu4 = generator(4)
    for F in (F3, QQ):
        for tree in [(2, MU3, MU3), (3, MU3, LEAF, MU3), (2, mu4, MU3),
                     (3, MU3, mu4, LEAF)]:
            x = FreeElement.single(F, tree)
            assert free_differential(free_differential(x)).is_zero(), (F, tree)


def test_d_squared_report_coerces_only_in_the_public_constructor(
        field_of_calls):
    # _d_tree's signs are ints and the sums run through sub_scaled, so
    # the only Field.of is FreeElement.single's, once per d mu_k
    calls = field_of_calls
    for F in FIELDS:
        for k in (2, 5, 8):
            calls[0] = 0
            assert d_squared_report(k, F)["pass"]
            assert calls[0] == k - 1, (F, k)


def test_derivation_leibniz_on_composite():
    # d is a derivation: on mu2 o_1 mu3 it matches d(mu2) o mu3 + Koszul
    # sign * mu2 o d(mu3), computed here by explicit composition
    for F in (QQ, F3):
        x = FreeElement.single(F, graft(MU2, 1, MU3))
        lhs = free_differential(x)
        m2 = FreeElement.single(F, MU2)
        m3 = FreeElement.single(F, MU3)
        rhs = compose_free(ainf_differential(2, F), 1, m3) + \
            compose_free(m2, 1, ainf_differential(3, F))
        assert lhs == rhs


@given(st.integers(2, 5), st.integers(2, 4), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_compose_slot_counts(k, l, m):
    # arity bookkeeping under grafting
    a, b = generator(k), generator(l)
    for i in range(1, k + 1):
        t = graft(a, i, b)
        assert leaf_count(t) == k + l - 1
        assert tree_degree(t) == (k - 2) + (l - 2)


@given(st.integers(3, 6))
@settings(max_examples=10, deadline=None)
def test_term_count_formula(k):
    # number of summands in d mu_k is sum over l of l with l + q = k + 1
    d = ainf_differential(k, QQ)
    expected = sum(l for l in range(2, k) if k + 1 - l >= 2)
    assert len(d.terms) == expected


def test_inhomogeneous_rejected():
    with pytest.raises(ValueError):
        FreeElement(QQ, {MU2: 1, MU3: 1})
