import itertools

import pytest
from hypothesis import given, settings, strategies as st

from knotss.fields import F2, F3, QQ
from knotss.operads import (LEAF, FreeElement, ainf_differential, compose_free,
                            d_squared_report, free_differential, generator,
                            graft, leaf_count, tree_degree)

FIELDS = [F2, F3, QQ]

MU2 = generator(2)
MU3 = generator(3)


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
        d3 = ainf_differential(3, F, mode="verbatim")
        assert d3.terms == {graft(MU2, 1, MU2): F.one, graft(MU2, 2, MU2): F.one}
    d3s = ainf_differential(3, QQ, mode="signed")
    assert d3s.terms == {graft(MU2, 1, MU2): QQ.of(1), graft(MU2, 2, MU2): QQ.of(-1)}


def test_differential_arity4_term_count():
    # l + q = 5: (l, q) in {(2, 3), (3, 2)} gives 2 + 3 = 5 summands
    d4 = ainf_differential(4, QQ, mode="signed")
    assert len(d4.terms) == 5
    trees = set(d4.terms)
    assert graft(MU2, 1, MU3) in trees
    assert graft(MU2, 2, MU3) in trees
    assert {graft(MU3, i, MU2) for i in (1, 2, 3)} <= trees


def test_ainf_differential_matches_the_root_sign_formula():
    # d mu_k is the root summands of the derivation on generator(k):
    # mu_l o_{p+1} mu_q signed (-1)^{p + q(l-p-1)}, or +1 in verbatim mode
    for F in FIELDS:
        for mode in ("signed", "verbatim"):
            for k in range(2, 7):
                terms = {}
                for l in range(2, k):
                    q = k + 1 - l
                    for p in range(l):
                        sign = (-1) ** (p + q * (l - p - 1))
                        terms[graft(generator(l), p + 1, generator(q))] = \
                            sign if mode == "signed" else 1
                assert ainf_differential(k, F, mode) == \
                    FreeElement(F, terms), (F, mode, k)


def test_unknown_mode_is_rejected():
    x = FreeElement.single(F3, MU3)
    for call in (lambda: d_squared_report(2, F3, mode="bogus"),
                 lambda: free_differential(x, mode="bogus"),
                 lambda: ainf_differential(3, F3, mode="bogus")):
        with pytest.raises(ValueError, match="unknown mode 'bogus'"):
            call()


def test_d_squared_verbatim_char2_only():
    assert d_squared_report(6, F2, mode="verbatim")["pass"]
    rep = d_squared_report(4, QQ, mode="verbatim")
    assert not rep["pass"] and 4 in rep["failures"]


def test_d_squared_signed_all_fields():
    for F in FIELDS:
        rep = d_squared_report(6, F, mode="signed")
        assert rep["pass"], rep


def test_derivation_leibniz_on_composite():
    # d is a derivation: on mu2 o_1 mu3 it matches d(mu2) o mu3 + Koszul
    # sign * mu2 o d(mu3), computed here by explicit composition
    for F in (QQ, F3):
        x = FreeElement.single(F, graft(MU2, 1, MU3))
        lhs = free_differential(x, mode="signed")
        m2 = FreeElement.single(F, MU2)
        m3 = FreeElement.single(F, MU3)
        rhs = compose_free(ainf_differential(2, F, "signed"), 1, m3) + \
            compose_free(m2, 1, ainf_differential(3, F, "signed"))
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
    d = ainf_differential(k, QQ, mode="signed")
    expected = sum(l for l in range(2, k) if k + 1 - l >= 2)
    assert len(d.terms) == expected


def test_inhomogeneous_rejected():
    with pytest.raises(ValueError):
        FreeElement(QQ, {MU2: 1, MU3: 1})
