import ast
import hashlib
import json
import random
from fractions import Fraction
from itertools import permutations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotss import cases, chainledger, geometry
from knotss.chainledger import (Chain, MapExpr, Poly, Term, WeightSpec,
                                ZeroFacts, apply_delta, apply_facts,
                                boundary_D, canon_term, contraction,
                                edge_signs, f_graph, first_coord_collapse,
                                i_contraction, make_weight, parse_expr,
                                parse_term, piece_positions, single, straight)
from knotss.cases import all_cases, chain_c, chain_pair, pair_data, run_case
from knotss.geometry import TermRows, _power_check_terms
from knotss.linalg import VerificationError
from knotss.partgraph import (PGraph, Partition, delta_graph,
                              enumerate_partitions, inversion_sign,
                              parse_graph)

G1 = parse_graph("(1,4)(2,3)", 4)
G2 = parse_graph("(1,3)(2,4)", 4)
G3 = parse_graph("(1,2)(3,4)", 4)


def subst(expr, name, value):
    """expr with name := value in every coefficient."""
    return MapExpr([[p.subst(name, value) for p in comp] for comp in expr.comps])


def reference_rename(expr, mapping):
    """expr with its parameters renamed by mapping, Poly by Poly."""
    def rename(p):
        out = Poly()
        for m, c in p.terms.items():
            out = out + Poly({tuple(mapping.get(x, x) for x in m): c})
        return out
    return MapExpr([[rename(p) for p in comp] for comp in expr.comps])


def reference_canon_term(coeff, expr, weight, label):
    """The reference for canon_term: rename the whole expression for each
    permutation of the s- and t-parameters, then compare the keys of the
    renamed expression and of its sphere swap; the least key wins, and a
    least key reached with both signs makes the coefficient 0."""
    k, l = len(weight.s_names), len(weight.t_names)
    best, tied = None, False
    for ps in permutations(range(k)):
        for pt in permutations(range(l)):
            mapping = dict(zip(weight.s_names, ("s%d" % (i + 1) for i in ps)))
            mapping.update(zip(weight.t_names, ("t%d" % (i + 1) for i in pt)))
            sign = inversion_sign(ps) * inversion_sign(pt)
            base = reference_rename(expr, mapping)
            for cand in (base, base.swap_xy()):
                key = cand.key()
                if best is None or key < best[0]:
                    best, tied = (key, cand, sign), False
                elif key == best[0] and sign != best[2]:
                    tied = True
    key, cand, sign = best
    w = WeightSpec(tuple("s%d" % (i + 1) for i in range(k)),
                   tuple("t%d" % (i + 1) for i in range(l)))
    return (0 if tied else coeff * sign), Term(cand, w, label, key)


def fraction_key(ekey):
    """ekey with every coefficient a Fraction."""
    return tuple(tuple(tuple((m, Fraction(c)) for m, c in pk) for pk in comp)
                 for comp in ekey)


def reference_scaled_coefficients(expr, values, name=None):
    """The attack's coefficient rows by a walk over each polynomial's
    terms, the reference for geometry.TermRows: expr.coefficients(values)
    as integer numerators over one positive denominator, (rows, den) with
    den = Dp * prod d_x over the names x in values, values[x] = n_x / d_x
    in lowest terms and Dp the lcm of the polynomial coefficients'
    denominators.  A monomial m with coefficient c adds c Dp prod_{x in
    m} n_x prod_{x not in m} d_x.  With name, the same for the derivative
    along name, over den / d_name."""
    nums = {x: v.numerator for x, v in values.items()}
    dens = {x: v.denominator for x, v in values.items()}
    if name is not None:
        nums[name] = dens[name] = 1
    den = lcm(*(c.denominator for comp in expr.comps
                for p in comp for c in p.terms.values()))
    for d in dens.values():
        den *= d

    def scaled(p):
        acc = 0
        for m, c in p.terms.items():
            if name is None or name in m:
                k = c.numerator * (den // c.denominator)
                for x in m:  # d_x divides k: trade it for n_x
                    k = k // dens[x] * nums[x]
                acc += k
        return acc

    return [[scaled(p) for p in comp] for comp in expr.comps], den


def test_poly_basics():
    a, t = Poly.var("a"), Poly.var("t")
    p = (Poly.const(1) - t) * a
    assert p.evaluate({"a": Fraction(2), "t": Fraction(1, 2)}) == 1
    assert p.subst("t", 1).is_zero()
    assert p.names() == {"a", "t"}
    with pytest.raises(ValueError):
        _ = a * a  # not affine


def test_poly_constructor_sorts_monomials_and_rejects_repeats():
    # a monomial is a set of names: the constructor sorts its names, so
    # both spellings of a*t are one monomial, and a repeated name (a^2,
    # not multilinear) is refused
    assert (Poly({("t", "a"): 1}) - Poly({("a", "t"): 1})).is_zero()
    assert Poly({("t", "a"): 1, ("a", "t"): 2}).terms == {("a", "t"): 3}
    assert Poly({("t", "a"): 1}).key() == ((("a", "t"), 1),)
    with pytest.raises(ValueError):
        Poly({("a", "a"): 1})
    with pytest.raises(ValueError):
        Poly({("a", "t", "a"): 2})


def test_mapexpr_evaluate_and_text_roundtrip():
    f = f_graph(G1)
    assert f.text() == "x;y;y;x"
    x, y = (Fraction(1, 3), Fraction(2)), (Fraction(-1), Fraction(0))
    assert f.evaluate(x, y) == [x, y, y, x]
    g = contraction(f, G1, (2, 3), "a")
    assert g.text() == "x;y+(1*a)v;y+(-1*a)v;x"
    assert parse_expr(g.text(), 4) == g
    assert g.swap_xy().swap_xy() == g


def test_parse_expr_roundtrip():
    G = parse_graph("(1,4)(2,3)", 4)
    f = f_graph(G)
    exprs = [f,
             contraction(f, G, (2, 3), "s1"),
             contraction(contraction(f, G, (1, 4), "s1"), G, (2, 3), "s2"),
             straight(f, f.swap_xy(), "t1")]
    for e in exprs:
        assert parse_expr(e.text(), 4) == e
    with pytest.raises(ValueError):
        parse_expr("x;y", 4)


def test_parse_expr_reads_back_every_fact_and_harness_literal():
    # the parser inverts MapExpr.text on every stored fact and on every
    # literal text the geometry harnesses parse, and keeps a coefficient
    # an int when integral and a Fraction otherwise
    texts = [(rec["expr"], rec["n"]) for rec in ZeroFacts.load().table.values()]
    with open(geometry.__file__) as fh:
        texts += [tuple(a.value for a in node.args)
                  for node in ast.walk(ast.parse(fh.read()))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "parse_expr"]
    assert len(texts) == 62 + 4
    for text, n in texts:
        expr = parse_expr(text, n)
        assert expr.text() == text
        assert all(type(c) is (int if c.denominator == 1 else Fraction)
                   for comp in expr.comps for p in comp
                   for c in p.terms.values()), text


@pytest.mark.parametrize("text, n", [
    ("x+)y", 1),           # a gap: ')' opens no piece
    ("(1*s1x", 1),         # an unclosed parenthesis
    ("((1))x", 1),         # a nested one
    ("x++y", 1),           # a sign after a sign
    ("x+", 1),             # a trailing sign
    ("x;", 2),             # an empty component
    ("()x", 1),            # an empty polynomial
    ("(2.5*s1)x", 1),      # not an integer or a fraction
    ("(1*1x)x", 1),        # a name must start with a letter
    ("(1/0*s1)x", 1),      # a zero denominator
    ("(1**s1)x", 1),       # an empty factor
    ("(1*s1*s1)x", 1),     # a repeated name
    ("z", 1),              # a bad basis
    ("(1*s1)", 1),         # no basis
    ("x;y", 4),            # a wrong component count
])
def test_parse_expr_rejects_malformed_text(text, n):
    with pytest.raises(ValueError):
        parse_expr(text, n)


def test_mapexpr_derivative_matches_evaluate():
    # the image is affine in each parameter: at name = t it is the image
    # at the current values plus (t - current) times the derivative
    rng = random.Random(41)
    f = f_graph(G1)
    exprs = [straight(f, f.swap_xy(), "t1"),
             contraction(contraction(f, G1, (1, 4), "s1"), G1, (2, 3), "s2"),
             parse_expr("(1-1*t1)x+(1*t1)y+(1*s1)v;(1*t1)x+(1-1*t1)y+(-1*s1)v;"
                        "y+(-1*s1)v;x+(-1*s1)v+(2*s1*t1)u", 4)]

    def rand():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for expr in exprs:
        for _ in range(5):
            x, y = (rand(), rand()), (rand(), rand())
            values = {nm: rand() for nm in expr.names()}
            here = expr.evaluate(x, y, values)
            coeffs = expr.coefficients(values)
            assert expr.image(coeffs, x, y) == here
            for nm in sorted(expr.names()):
                rows, den = reference_scaled_coefficients(expr, values, nm)
                D = expr.image([[Fraction(c, den) for c in row]
                                for row in rows], x, y)
                for t in (Fraction(0), Fraction(1), rand()):
                    step = t - values[nm]
                    assert [(p[0] + step * d[0], p[1] + step * d[1])
                            for p, d in zip(here, D)] \
                        == expr.evaluate(x, y, {**values, nm: t})
    p = Poly({("a", "b"): 3, ("b",): 2, (): 1})
    one = MapExpr([[p, Poly(), Poly(), Poly()]])
    assert reference_scaled_coefficients(one, {"a": Fraction(5)}, "b") \
        == ([[17, 0, 0, 0]], 1)
    assert reference_scaled_coefficients(
        one, {"a": Fraction(5), "b": Fraction(7)}, "c") == ([[0, 0, 0, 0]], 1)


def test_scaled_coefficients_match_poly_evaluate():
    # integer numerators over one denominator, for the coefficients and
    # for the derivative along each parameter, against Poly.evaluate on
    # two-parameter expressions with values of denominators up to 2^24;
    # the coefficient 1/2 makes Dp = 2
    rng = random.Random(43)
    exprs = [parse_expr("(1-1*a)x+(1*a)y+(1*b)v;(1*a*b)x+(1-1*a*b)y+(-1*b)u", 2),
             parse_expr("(1/2*a)x+(1-1/2*a)y+(3*a*b-1/2*b)u;y+(-2*b)v", 2)]
    assert reference_scaled_coefficients(
        exprs[1], {"a": Fraction(1), "b": Fraction(1)})[1] == 2

    def rand():
        return Fraction(rng.randint(-1 << 24, 1 << 24), rng.randint(1, 1 << 24))

    for expr in exprs:
        for _ in range(20):
            values = {"a": rand(), "b": rand()}
            rows, den = reference_scaled_coefficients(expr, values)
            assert den > 0
            assert [[Fraction(c, den) for c in row] for row in rows] \
                == [[p.evaluate(values) for p in comp] for comp in expr.comps]
            for nm in ("a", "b"):
                # the coefficient of nm is p(nm = 1) - p(nm = 0)
                rows, den = reference_scaled_coefficients(expr, values, nm)
                assert den > 0 and den * values[nm].denominator \
                    == reference_scaled_coefficients(expr, values)[1]
                assert [[Fraction(c, den) for c in row] for row in rows] \
                    == [[p.evaluate({**values, nm: 1})
                         - p.evaluate({**values, nm: 0}) for p in comp]
                        for comp in expr.comps]


def test_compiled_rows_match_the_reference_route():
    # geometry.TermRows, the attack's compiled rows, against the dict walk
    # and against MapExpr.coefficients on every zero fact's expression and
    # both power checks, for the rows and the derivative along each name;
    # values run from 0 and 1 to denominators past 2^24 and large s
    rng = random.Random(47)
    exprs = [parse_expr(etext, rec["n"])
             for (etext, _), rec in sorted(ZeroFacts.load().table.items())]
    exprs += [term.expr for term in _power_check_terms()]
    assert len(exprs) == 64

    def rand(nm):
        d = rng.choice((1, 1 << 24, rng.randrange(1, 1 << 24),
                        rng.randrange(1, 1 << 90)))
        top = d if nm.startswith("t") else d * rng.choice((1, 64, 1 << 30))
        return Fraction(rng.randint(0, top), d)

    for expr in exprs:
        compiled = TermRows(expr)
        assert compiled.names == sorted(expr.names())
        for _ in range(6):
            values = {nm: rand(nm) for nm in compiled.names}
            pairs = {nm: (v.numerator, v.denominator)
                     for nm, v in values.items()}
            rows, den = compiled(pairs)
            assert (rows, den) == reference_scaled_coefficients(expr, values)
            assert [[Fraction(c, den) for c in row] for row in rows] \
                == expr.coefficients(values)
            for nm in compiled.names:
                rows, den = compiled(pairs, nm)
                assert (rows, den) \
                    == reference_scaled_coefficients(expr, values, nm)
                one, zero = (expr.coefficients({**values, nm: Fraction(v)})
                             for v in (1, 0))
                assert [[Fraction(c, den) for c in row] for row in rows] \
                    == [[a - b for a, b in zip(r1, r0)]
                        for r1, r0 in zip(one, zero)]


def test_edge_signs_and_contraction_direction():
    assert edge_signs(G1, (2, 3)) == [0, 1, -1, 0]
    assert edge_signs(G1, (1, 4)) == [1, 0, 0, -1]
    with pytest.raises(ValueError):
        edge_signs(PGraph(G1.partition, ((1, 2), (2, 3), (1, 3))), (1, 2))
    f = f_graph(G1)
    plus = contraction(f, G1, (2, 3), "a", 1)
    minus = contraction(f, G1, (2, 3), "a", -1)
    assert subst(plus, "a", 1) == subst(minus, "a", -1)


def test_worked_homotopy_formulas():
    # the straightening between the first two graphs at the last merge
    f, fp, dG, dH, edges, psi = pair_data(G1, G2, 3)
    assert psi == parse_expr("(1-1*t)x+(1*t)y;(1*t)x+(1-1*t)y;y;x", 4)
    assert dG.edges == ((1, 3), (2, 3))
    (e1, eb1, eh1), (e2, eb2, eh2) = edges
    lam1 = straight(contraction(f, G1, e1, "a"),
                    contraction(f, dG, eb1, "a"), "t")
    assert lam1 == parse_expr(
        "x+(1*a)v;y+(-1*a*t)v;y+(-1*a*t)v;x+(-1*a)v", 4)
    lam2 = straight(contraction(f, G1, e2, "a"),
                    contraction(f, dG, eb2, "a"), "t")
    assert lam2 == parse_expr(
        "x+(-1*a*t)v;y+(1*a)v;y+(-1*a)v;x+(-1*a*t)v", 4)
    lamp1 = straight(contraction(fp, G2, eh1, "a"),
                     contraction(fp, dH, eb1, "a"), "t")
    assert lamp1 == parse_expr(
        "x+(1*a)v;y+(-1*a*t)v;x+(-1*a)v;y+(-1*a*t)v", 4)
    psi1 = contraction(psi, dG, eb1, "a")
    assert psi1 == parse_expr(
        "(1-1*t)x+(1*t)y+(1*a)v;(1*t)x+(1-1*t)y+(-1*a)v;"
        "y+(-1*a)v;x+(-1*a)v", 4)


def test_pair_data_rejects_incompatible_merge():
    with pytest.raises(ValueError):
        pair_data(G1, G3, 3)  # merged graphs differ


def test_i_contraction_components():
    zero, one = Poly(), Poly.const(1)
    f = MapExpr([[one, zero, zero, zero]] * 4)  # every component is x
    g = i_contraction(f, 2, "b", -1)
    assert g.comps[1][2] == -Poly.var("b")
    assert g.comps[2][2] == Poly.var("b")
    assert g.comps[0][2].is_zero() and g.comps[3][2].is_zero()


def test_make_weight_koszul_sign():
    w, sign = make_weight([("s", "a"), ("t", "t")])
    assert (w.s_names, w.t_names, sign) == (("a",), ("t",), 1)
    w, sign = make_weight([("t", "t"), ("s", "a")])
    assert (w.s_names, w.t_names, sign) == (("a",), ("t",), -1)
    w, sign = make_weight([("t", "t1"), ("s", "a"), ("s", "b")])
    assert sign == 1  # two odd factors moved past one odd factor
    assert w.degree == 4 + 3


def test_canon_term_antisymmetry():
    # transposing two interval-at-infinity factors is a sign
    f = contraction(contraction(f_graph(G1), G1, (1, 4), "a"), G1, (2, 3), "b")
    ch = single(1, f, [("s", "a"), ("s", "b")], G1).add_word(
        1, f, [("s", "b"), ("s", "a")], G1)
    assert ch.is_zero()


def test_term_equal_to_its_negative_is_zero():
    # f is symmetric in a and b, so transposing the two odd factors maps
    # the term to its own negative: it is zero over Q
    f = contraction(contraction(f_graph(G1), G1, (1, 4), "a"), G1, (1, 4), "b")
    w, _ = make_weight([("s", "a"), ("s", "b")])
    assert canon_term(Fraction(1), f, w, G1)[0] == 0
    ch = single(1, f, [("s", "a"), ("s", "b")], G1).add_word(
        1, f, [("s", "b"), ("s", "a")], G1)
    assert ch.is_zero()


def test_canon_term_is_idempotent_and_ignores_the_label():
    f = contraction(contraction(f_graph(G1), G1, (1, 4), "b"), G1, (2, 3), "a")
    w, _ = make_weight([("s", "a"), ("s", "b")])
    c, t = canon_term(Fraction(3), f, w, G1)
    for label in (G1, PGraph(G1.partition, ())):
        c2, t2 = canon_term(c, t.expr, t.weight, label)
        assert (c2, t2.expr, t2.weight, t2.ekey) == (c, t.expr, t.weight, t.ekey)
    assert t.ekey == t.expr.key()


def test_reduce_rejects_coefficient_undefined_mod_char():
    ch = single(Fraction(1, 2), f_graph(G1), [], G1)
    assert ch.reduce(0).items()[0][0] == Fraction(1, 2)
    assert ch.reduce(3).items()[0][0] == Fraction(1, 2)
    with pytest.raises(VerificationError) as info:
        ch.reduce(2)
    # the canonical representative of x;y;y;x is its sphere swap
    assert "1/2 of y;x;x;y on (1,4)(2,3) not defined mod 2" in str(info.value)


def test_canon_term_sphere_swap_is_free():
    f = f_graph(G1)
    ch = single(1, f, [], G1) - single(1, f.swap_xy(), [], G1)
    assert ch.is_zero()


def test_canon_term_rejects_unbound_parameter():
    f = contraction(f_graph(G1), G1, (1, 4), "a")
    with pytest.raises(ValueError):
        single(1, f, [], G1)


@settings(max_examples=30, deadline=None)
@given(st.permutations(["a", "b", "c"]))
def test_canon_term_permutation_invariance(order):
    f = contraction(contraction(f_graph(G1), G1, (1, 4), "a"), G1, (2, 3), "b")
    f = i_contraction(f, 2, "c")
    base = single(1, f, [("s", "a"), ("s", "b"), ("s", "c")], G1)
    perm_sign = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if order[i] > order[j]:
                perm_sign = -perm_sign
    other = single(perm_sign, f, [("s", x) for x in order], G1)
    assert (base - other).is_zero()


def test_canon_term_matches_the_reference_route_on_the_case_terms(monkeypatch):
    # every term the six cases canonicalize, through Chain.add or through
    # the restriction part of boundary_D, comes out of the key route with
    # the coefficient, key, expression and weight of the reference route;
    # the keys hold integral coefficients as int, and sort, compare and
    # hash exactly as their all-Fraction forms
    calls = []
    canon = chainledger._canon_key

    def recording(coeff, ekey, weight, label):
        out = canon(coeff, ekey, weight, label)
        calls.append((coeff, ekey, weight, label, out))
        return out

    monkeypatch.setattr(chainledger, "_canon_key", recording)
    facts = ZeroFacts.load()
    for name in all_cases():
        assert run_case(name, facts=facts)["pass"]
    assert len(calls) == 892
    keys = []
    for coeff, ekey, weight, label, (c, t) in calls:
        expr = MapExpr([[Poly(dict(pk)) for pk in comp] for comp in ekey])
        rc, rt = reference_canon_term(coeff, expr, weight, label)
        assert (c, t.key(), t.expr, t.weight) \
            == (rc, rt.key(), rt.expr, rt.weight), (expr.text(), str(label))
        assert t.expr.text() == rt.expr.text()
        keys.append(t.ekey)
    fracs = [fraction_key(k) for k in keys]
    for k, f in zip(keys, fracs):
        assert k == f and hash(k) == hash(f)
        assert all(type(c) is int for comp in k for pk in comp for _, c in pk
                   if Fraction(c).denominator == 1)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    assert order == sorted(range(len(keys)), key=fracs.__getitem__)
    for a, b in zip(order, order[1:]):
        assert (keys[a] < keys[b]) == (fracs[a] < fracs[b])
        assert (keys[a] == keys[b]) == (fracs[a] == fracs[b])


def _sample_bases():
    """(expr, s-names, t-names, self-negative) of case-like terms."""
    f = f_graph(G1)
    dG, _ = delta_graph(3, G1)
    lam = straight(contraction(f, G1, (1, 4), "a"),
                   contraction(f, dG, (1, 3), "a"), "t")
    psi = straight(f, f.swap_xy(), "t")
    fa = contraction(f, G1, (1, 4), "a")
    fab = contraction(fa, G1, (2, 3), "b")
    faa = contraction(fa, G1, (1, 4), "b")
    return [
        (f, (), (), False),
        (contraction(f, G1, (2, 3), "a"), ("a",), (), False),
        (fab, ("a", "b"), (), False),
        (faa, ("a", "b"), (), True),
        (i_contraction(fab, 2, "c"), ("a", "b", "c"), (), False),
        (i_contraction(faa, 2, "c", Fraction(1, 2)), ("a", "b", "c"), (), True),
        (i_contraction(fab, 3, "c", Fraction(-1, 2)), ("a", "b", "c"), (),
         False),
        (lam, ("a",), ("t",), False),
        (contraction(psi, G1, (2, 3), "a", -1), ("a",), ("t",), False),
        (straight(lam, lam.swap_xy(), "t2"), ("a",), ("t", "t2"), False),
    ]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canon_term_matches_the_reference_route_on_renamed_terms(data):
    # a sample of the case-like terms with their parameters renamed to
    # other names (positional ones included), their factors permuted and
    # their spheres swapped; both routes agree, and a self-negative term
    # comes out 0 on both
    bases = _sample_bases()
    expr, s_names, t_names, self_negative = data.draw(st.sampled_from(bases))
    pool = ["a", "b", "c", "p", "q", "s1", "s2", "s3", "t", "t1", "t2", "z"]
    fresh = data.draw(st.permutations(pool))
    mapping = dict(zip(s_names + t_names, fresh))
    expr = reference_rename(expr, mapping)
    if data.draw(st.booleans()):
        expr = expr.swap_xy()
    s_order = data.draw(st.permutations([mapping[x] for x in s_names]))
    t_order = data.draw(st.permutations([mapping[x] for x in t_names]))
    weight = WeightSpec(tuple(s_order), tuple(t_order))
    coeff = Fraction(data.draw(st.integers(-4, 4).filter(bool)),
                     data.draw(st.integers(1, 3)))
    c, t = canon_term(coeff, expr, weight, G1)
    rc, rt = reference_canon_term(coeff, expr, weight, G1)
    assert (c, t.key(), t.expr, t.weight) == (rc, rt.key(), rt.expr, rt.weight)
    assert (c == 0) == self_negative
    assert t.ekey == fraction_key(t.ekey) and t.expr.key() == t.ekey


def test_boundary_restriction_part():
    f = contraction(f_graph(G1), G1, (2, 3), "a")
    ch = single(1, f, [("s", "a")], G1)
    out = boundary_D(ch)
    # s := 0 gives the plain graph map; the Cech part drops one edge at
    # a time, signed (-1)^5 by the degree of the weight and (-1)^pos by
    # the edge's position
    texts = sorted((str(c), t.expr.text(), str(t.label))
                   for c, t in out.items())
    # canonicalization picks the sphere-swapped representative and
    # renames the bound parameter positionally
    assert texts == [("-1", "y;x+(1*s1)v;x+(-1*s1)v;y", "(2,3)"),
                     ("1", "y;x+(1*s1)v;x+(-1*s1)v;y", "(1,4)"),
                     ("1", "y;x;x;y", "(1,4)(2,3)")]
    # on a one-edge label the Cech part would leave no edge, and is
    # truncated away
    one_edge = single(1, f, [("s", "a")], PGraph(G1.partition, ((2, 3),)))
    assert [(str(c), t.expr.text(), str(t.label))
            for c, t in boundary_D(one_edge).items()] == \
        [("1", "y;x;x;y", "(2,3)")]


def test_boundary_degenerate_simplex_dropped():
    # restricting s := 0 freezes the homotopy of lambda-type maps; the
    # resulting constant-in-t simplex is degenerate and dropped
    f = f_graph(G1)
    dG, _ = delta_graph(3, G1)
    lam = straight(contraction(f, G1, (1, 4), "a"),
                   contraction(f, dG, (1, 3), "a"), "t")
    ch = single(1, lam, [("s", "a"), ("t", "t")], dG)
    out = boundary_D(ch)
    for _, t in out.items():
        for name in t.weight.t_names:
            assert name in t.expr.names()
    # s := 0 is the only restriction that drops s, and it leaves a
    # t-free map, so D holds no term without an s-parameter
    assert subst(lam, "a", 0).names() == set()
    assert len(out) == 4 and all(t.weight.s_names for _, t in out.items())


def test_boundary_squares_to_zero_on_case_chains():
    for G in (G1, G2, G3):
        for directions in ((1,), (1, -1)):
            ch = chain_c(G, directions)
            assert boundary_D(boundary_D(ch)).is_zero()
    pair = chain_pair(G1, G2, 3)
    assert boundary_D(boundary_D(pair)).is_zero()
    H1 = parse_graph("(1,3)(2,3)(4,5)", 5)
    H2 = parse_graph("(1,4)(2,4)(3,5)", 5)
    ch = chain_c(H1)
    assert boundary_D(boundary_D(ch)).is_zero()
    pair = chain_pair(H1, H2, 3)
    assert boundary_D(boundary_D(pair)).is_zero()


def test_first_coord_collapse():
    P = Partition(4, (1, 1, 2, 1, 1))
    inside = parse_expr("x;y+(1*a)v;y+(-1*a)v;x", 4)
    assert first_coord_collapse(inside, P)  # equal first coordinates
    apart = parse_expr("x;y;y+(1*a)u;x", 4)
    assert not first_coord_collapse(apart, P)  # order can be correct
    reversed_ = parse_expr("x;y+(1*a)u;y;x", 4)
    assert first_coord_collapse(reversed_, P)  # weakly reversed always
    assert not first_coord_collapse(inside, G1.partition)


def test_apply_delta_shape_kills_and_signs():
    ch = single(1, f_graph(G1), [], G1)
    # merging pieces 2,3 makes the edge (2,3) a loop
    assert delta_graph(2, G1) is None
    assert apply_delta(ch, 2).is_zero()
    # edge permutation sign of a surviving merge is carried through
    out = apply_delta(ch, 3)
    hit = delta_graph(3, G1)
    assert hit is not None
    (c, t), = out.items()
    assert (c, t.label) == (hit[1], hit[0])


def reference_apply_delta(chain, i=None, facts=None, use_syntactic=True):
    """The reference for where the filter runs: the merge map with the
    collapse filters applied to each relabeled term before it is added
    (use_syntactic=False and no facts is the bare merge map)."""
    out = Chain()
    for coeff, term in chain.items():
        P = term.label.partition
        positions = [i] if i is not None else range(P.num_pieces - 1)
        for pos in positions:
            hit = delta_graph(pos, term.label)
            if hit is None:
                continue
            image, sign = hit
            c = coeff * sign
            if i is None and pos % 2:
                c = -c
            if use_syntactic and first_coord_collapse(term.expr,
                                                      image.partition):
                continue
            moved = term.relabel(image)
            if facts is not None and facts.match(moved) is not None:
                continue
            out._put(c, moved)
    return out


@pytest.fixture(scope="module")
def case_chains():
    """(builder, arguments, chain) of every chain_c, chain_pair,
    chain_cycle_ch3 and chain_triple call of the six cases, in order."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("chain_c", "chain_pair", "chain_cycle_ch3",
                     "chain_triple"):
            def recording(*args, make=getattr(cases, name), name=name):
                ch = make(*args)
                built.append((name, args, ch))
                return ch

            mp.setattr(cases, name, recording)
        for name in all_cases():
            assert run_case(name, facts=ZeroFacts.load())["pass"], name
    return built


def _coefficients(ch):
    return {t.key(): c for c, t in ch.items()}


def test_merge_then_filter_matches_the_reference_filter(case_chains):
    # filtering after the merge map gives the chain that filtering each
    # merged term gives, on every chain of the cases, at every merge
    # position and for the signed sum, under the real and an empty table
    facts, empty = ZeroFacts.load(), ZeroFacts([])
    dropped = 0
    for name, args, ch in case_chains:
        sizes = {t.label.partition.num_pieces for _, t in ch.items()}
        assert len(sizes) == 1, (name, args)
        for i in list(range(sizes.pop() - 1)) + [None]:
            merged = apply_delta(ch, i)
            assert _coefficients(merged) == _coefficients(
                reference_apply_delta(ch, i, use_syntactic=False))
            for table in (facts, empty):
                got = _coefficients(apply_facts(merged, table))
                want = _coefficients(reference_apply_delta(ch, i, table))
                assert got == want, (name, args, i)
                dropped += len(merged) - len(got)
    assert len(case_chains) == 34 and dropped > 100


CASE_CHAINS_SHA256 = ("6439f6b51de4f17cf86e0f077670444d"
                      "351d26aee3444e3428133a0a00a6952e")


def test_case_chains_are_pinned(case_chains):
    # every chain the six cases build, term by term: per builder call,
    # its arguments and the sorted (coefficient, expression, weight,
    # label) texts of its terms
    rows = [[name, [str(a) for a in args],
             sorted((str(c), t.expr.text(), str(t.weight), str(t.label))
                    for c, t in ch.items())]
            for name, args, ch in case_chains]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert len(rows) == 34 and digest == CASE_CHAINS_SHA256


def test_case_chain_and_fact_polynomials_are_pinned_to_int_keys(case_chains):
    # the ledger keys its terms on the Poly terms themselves: every
    # coefficient of every case-chain term and of every parsed fact is
    # integral and stored as an int, and a key is the sorted terms
    facts = ZeroFacts.load()
    exprs = [t.expr for _, _, ch in case_chains for _, t in ch.items()]
    exprs += [parse_expr(etext, rec["n"])
              for (etext, _), rec in facts.table.items()]
    polys = [p for expr in exprs for comp in expr.comps for p in comp]
    assert len(exprs) > 300 and len(polys) == 4 * sum(e.n for e in exprs)
    assert all(type(c) is int for p in polys for c in p.terms.values())
    assert all(p.key() == tuple(sorted(p.terms.items())) for p in polys)


def test_poly_stores_integral_coefficients_as_ints():
    half, a = Poly.const(Fraction(1, 2)), Poly.var("a")
    for p in (half + half, half * 2, (a * Fraction(2, 3)).subst("a", 3),
              Poly({("a",): Fraction(4, 2)}), -(a * half) * 4):
        assert all(type(c) is int for c in p.terms.values()), p
    assert (half * 3).terms == {(): Fraction(3, 2)}


def reference_restrict_key(ekey, name, value):
    """The reference for chainledger._restrict_key: each coefficient
    polynomial rebuilt from its key, substituted with Poly.subst and
    keyed again."""
    return tuple(tuple(Poly(dict(pk)).subst(name, value).key() for pk in comp)
                 for comp in ekey)


def _typed(ekey):
    """ekey with the type of each coefficient beside it."""
    return [[[(m, type(c), c) for m, c in pk] for pk in comp] for comp in ekey]


def _scaled_key(ekey, f):
    """ekey with every coefficient times f, an integral one as an int."""
    def scale(c):
        c = Fraction(c) * f
        return c.numerator if c.denominator == 1 else c
    return tuple(tuple(tuple((m, scale(c)) for m, c in pk) for pk in comp)
                 for comp in ekey)


def test_restrict_key_matches_the_reference_on_the_case_calls(monkeypatch):
    # every restriction that boundary_D makes in the six cases, and the
    # keys of ch3-3term with Fraction coefficients (scaled by 1/2 and by
    # 2/3): the key-level route gives the key of the Poly.subst route,
    # coefficient types included
    calls = []
    restrict = chainledger._restrict_key

    def recording(ekey, name, value):
        calls.append((case, ekey, name, value))
        return restrict(ekey, name, value)

    monkeypatch.setattr(chainledger, "_restrict_key", recording)
    facts = ZeroFacts.load()
    for case in all_cases():
        assert run_case(case, facts=facts)["pass"]
    assert len(calls) == 657
    three_term = [c for c in calls if c[0] == "ch3-3term"]
    assert len(three_term) == 152
    inputs = [c[1:] for c in calls]
    inputs += [(_scaled_key(ekey, f), name, value)
               for _, ekey, name, value in three_term
               for f in (Fraction(1, 2), Fraction(2, 3))]
    cancels = 0
    for ekey, name, value in inputs:
        got = restrict(ekey, name, value)
        assert _typed(got) == _typed(reference_restrict_key(ekey, name, value)), \
            (ekey, name, value)
        # a t := 1 merge in which a monomial cancels
        cancels += value == 1 and any(
            len(out) < len({tuple(x for x in m if x != name) for m, _ in pk})
            for comp, rcomp in zip(ekey, got) for pk, out in zip(comp, rcomp))
    assert cancels > 100
    assert any(type(c) is Fraction for ekey, _, _ in inputs
               for comp in ekey for pk in comp for _, c in pk)


def test_restrict_key_merges_and_cancels_on_t_equal_one():
    # 1/2 + a - a t + t/2: t := 1 cancels a and merges 1/2 + 1/2 into
    # the int 1; t := 0 and a := 0 drop the monomials that hold the name
    half = Fraction(1, 2)
    pk = Poly({(): half, ("a",): 1, ("a", "t"): -1, ("t",): half}).key()
    one, t = (((), 1),), ((("t",), 1),)
    ekey = ((pk, (), t, ()),)
    wants = {("t", 1): ((one, (), one, ()),),
             ("t", 0): (((((), half), (("a",), 1)), (), (), ()),),
             ("a", 0): (((((), half), (("t",), half)), (), t, ()),)}
    for (name, value), want in wants.items():
        got = chainledger._restrict_key(ekey, name, value)
        assert _typed(got) == _typed(want) == \
            _typed(reference_restrict_key(ekey, name, value)), (name, value)


def test_chain_stores_integral_coefficients_as_ints(case_chains):
    # an integral sum is stored as an int, and 1/2 + 1/2 reports as 1
    f, w = f_graph(G1), WeightSpec((), ())
    half = Fraction(1, 2)
    ch = Chain().add(half, f, w, G1).add(half, f, w, G1)
    assert [type(c) for c, _ in ch.items()] == [int]
    # canonicalization picks the sphere-swapped x;y;y;x
    assert ch.diff_report(Chain(), 0) == [("1", "y;x;x;y", str(G1))]
    assert Chain().add(Fraction(4, 2), f, w, G1).items()[0][0] == 2
    assert type(Chain().add(Fraction(4, 2), f, w, G1).items()[0][0]) is int
    ch.add(half, f, w, G1)
    assert ch.items()[0][0] == Fraction(3, 2)
    assert ch.add_scaled(-3, Chain().add(half, f, w, G1)).is_zero()
    # one push direction builds int coefficients only; the averaged
    # contractions of the three-term relation and of c(G,i) add halves
    for name, args, built in case_chains:
        coeffs = [c for c, _ in built.items()]
        if name != "chain_cycle_ch3" and args[-1] == (1,):
            assert all(type(c) is int for c in coeffs), (name, args)
        assert all(type(c) is int or c.denominator == 2 for c in coeffs)


def test_zero_facts_table_loads_and_applies():
    facts = ZeroFacts.load()
    assert len(facts.table) >= 50
    (etext, ltext), rec = sorted(facts.table.items())[0]
    term = parse_term(etext, ltext, rec["n"])
    ch = Chain().add(1, term.expr, term.weight, term.label)
    assert len(ch) == 1
    assert apply_facts(ch, facts).is_zero()
    # no fact is a syntactic collapse: the table drops it
    assert apply_facts(ch, ZeroFacts([])).items() == ch.items()


def test_piece_position():
    P = Partition(4, (1, 2, 2, 1))
    assert piece_positions(P) == [0, 1, 1, 2, 2, 3]
    for n in range(1, 6):
        for P in enumerate_partitions(n):
            pieces = P.pieces()
            assert piece_positions(P) == [
                next(pos for pos, piece in enumerate(pieces) if k in piece)
                for k in range(n + 2)], str(P)
