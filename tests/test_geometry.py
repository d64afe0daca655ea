import random
from fractions import Fraction

import pytest

from knotss.chainledger import (Term, WeightSpec, ZeroFacts, contraction,
                                ee_contraction, f_graph, straight)
from knotss.geometry import (ALL_LEMMAS, Params, anchor_centers, attack_term,
                             attack_zero_facts, c_between, check_lemma,
                             closed_form_projection_checks, default_params,
                             e_P, e_embed, eps_P, in_D_ab, in_E, in_E_alpha,
                             in_space, is_nonbasepoint, parse_expr,
                             project_mean, project_pi, rand_point,
                             sample_space_point, tube_dist2,
                             _power_check_terms)
from knotss.partgraph import (PGraph, Partition, discrete_partition,
                              enumerate_partitions, parse_graph)


def test_params_validation():
    good = default_params(4)
    with pytest.raises(ValueError):
        Params(n=4, rho=good.rho, eps=good.eps, c=good.c[:-1])
    with pytest.raises(ValueError):
        Params(n=4, rho=good.rho, eps=good.eps,
               c=good.c[:-1] + (good.c[-1] + 1,))
    with pytest.raises(ValueError):
        Params(n=4, rho=2, eps=good.eps, c=good.c)
    with pytest.raises(ValueError):
        Params(n=4, rho=good.rho, eps=good.rho * good.c[0], c=good.c)
    with pytest.raises(ValueError):
        # equal segments break the growth condition immediately
        Params(n=4, rho=good.rho, eps=good.eps, c=(Fraction(1, 6),) * 6)


def test_default_fixture():
    for n in (3, 4, 5, 6):
        p = default_params(n)
        assert sum(p.c) == 1
        assert p.c[1] / p.c[0] == 101
        # tube width shrinks by 8 at each coarser stage
        P = Partition(4, (1, 2, 2, 1))
        if n == 4:
            assert eps_P(p, discrete_partition(4)) == p.eps
            assert eps_P(p, P) == p.eps / 8 ** 2


def test_embed_identity_and_composition():
    params = default_params(4)
    P = Partition(4, (1, 2, 2, 1))
    Q = Partition(4, (1, 2, 1, 1, 1))
    R = discrete_partition(4)
    rng = random.Random(7)
    for _ in range(10):
        xs = sample_space_point(params, P, rng)
        assert e_embed(params, P, P, xs) == xs
        via = e_embed(params, Q, R, e_embed(params, P, Q, xs))
        assert via == e_embed(params, P, R, xs)
    with pytest.raises(ValueError):
        e_embed(params, Q, P, [rand_point(rng)] * 3)  # not a refinement


def test_tube_distance_zero_on_embedded_points():
    params = default_params(4)
    P = Partition(4, (1, 2, 2, 1))
    rng = random.Random(11)
    for _ in range(10):
        xs = sample_space_point(params, P, rng)
        d2, proj = tube_dist2(params, P, e_P(params, P, xs))
        assert d2 == 0 and proj == xs


def test_compiled_tube_matches_projection_and_embedding():
    # every stage up to five strands, extreme pieces holding several
    # numbers included: the compiled tube agrees with the matrix
    # projection, the embedding e_P and the anchors
    rng = random.Random(29)
    for n in range(1, 6):
        params = default_params(n)
        for P in enumerate_partitions(n):
            anchors = anchor_centers(params, P)
            for _ in range(3):
                ys = [rand_point(rng, 2) for _ in range(n)]
                xs = project_pi(params, P, ys)
                centers = e_P(params, P, xs)
                want = Fraction(0)
                for k in range(1, n + 1):
                    if k in anchors:
                        assert centers[k - 1] == anchors[k]
                    target = anchors.get(k, centers[k - 1])
                    want += sum((a - b) ** 2 for a, b in zip(ys[k - 1], target))
                assert tube_dist2(params, P, ys) == (want, xs), str(P)


def test_projection_routes_agree():
    params = default_params(5)
    P = Partition(5, (1, 3, 2, 1))
    rng = random.Random(13)
    for _ in range(10):
        ys = [rand_point(rng, 2) for _ in range(5)]
        assert project_pi(params, P, ys) == project_mean(params, P, ys)
    rep = closed_form_projection_checks(trials=20)
    assert rep["pass"], rep["failures"]


def test_region_predicates():
    params = default_params(4)
    P = Partition(4, (1, 2, 2, 1))
    rng = random.Random(17)
    xs = sample_space_point(params, P, rng)
    assert in_space(params, P, xs)
    assert not in_E(params, P, xs)
    # pushing a piece past its window lands in the excision region
    lo = -1 + params.rho * sum(params.c[:2]) / 1  # left of any window
    bad = list(xs)
    bad[0] = (Fraction(-1) + eps_P(params, P) / 4, bad[0][1])
    assert in_E_alpha(params, P, bad, 1)
    # strictly closer than the legal spacing is deep in the diagonal
    close = list(xs)
    d = params.rho * c_between(params, P, 1, 2)
    close[1] = (close[0][0] + d / 2, close[0][1])
    assert in_D_ab(params, P, close, 1, 2)
    assert not in_space(params, P, close)
    # the minimum legal spacing sits just outside the shrunk region
    edge = list(xs)
    edge[1] = (edge[0][0] + d, edge[0][1])
    assert not in_D_ab(params, P, edge, 1, 2)


def test_anchor_centers_extreme_pieces():
    params = default_params(4)
    P = Partition(4, (3, 1, 1, 1))
    anchors = anchor_centers(params, P)
    assert set(anchors) == {1, 2}  # numbers in the left extreme piece
    assert anchors[1][0] < anchors[2][0] < -Fraction(1, 2)
    assert anchors[1][1] == 0


def test_parse_expr_roundtrip():
    G = parse_graph("(1,4)(2,3)", 4)
    f = f_graph(G)
    exprs = [f,
             contraction(f, G, (2, 3), "s1"),
             ee_contraction(f, G, (1, 4), (2, 3), "s1", "s2"),
             straight(f, f.swap_xy(), "t1")]
    for e in exprs:
        assert parse_expr(e.text(), 4) == e
    with pytest.raises(ValueError):
        parse_expr("x;y", 4)


# the attack's exact search path at this seed: the first restart of each
# power check finds these, and any change to the search's arithmetic
# that moves a restart shows here
POWER_WITNESSES = [
    {"x": ["0", "0"], "y": ["0", "0"], "params": {"s1": "0"}, "trial": 0},
    {"x": ["1030301/42460806024", "0"], "y": ["-104060401/42460806024", "0"],
     "params": {"s1": "0", "t1": "5101/10201"}, "trial": 0},
]


def test_attack_finds_genuine_witnesses():
    # power check: maps with real non-basepoint content must be caught
    params = default_params(4)
    rng = random.Random(19)
    for term, pinned in zip(_power_check_terms(), POWER_WITNESSES):
        rep = attack_term(params, term, rng, restarts=40)
        assert rep["witness"] == pinned, rep
        x = [Fraction(c) for c in rep["witness"]["x"]]
        y = [Fraction(c) for c in rep["witness"]["y"]]
        vals = {k: Fraction(v) for k, v in rep["witness"]["params"].items()}
        ys = term.expr.evaluate(x, y, vals)
        assert is_nonbasepoint(params, term.label.partition, ys)


def _first_fact_term(kind):
    facts = ZeroFacts.load()
    recs = [(k, r) for k, r in sorted(facts.table.items())
            if r["kind"] == kind]
    (etext, ltext), rec = recs[0]
    expr = parse_expr(etext, rec["n"])
    label = parse_graph(ltext, rec["n"])
    sn = tuple(sorted(x for x in expr.names() if x.startswith("s")))
    tn = tuple(sorted(x for x in expr.names() if x.startswith("t")))
    return default_params(rec["n"]), Term(expr, WeightSpec(sn, tn), label)


def test_attack_certifies_an_extreme_merge_fact():
    params, term = _first_fact_term("extreme-merge")
    rep = attack_term(params, term, random.Random(23), restarts=30)
    assert rep["witness"] is None
    assert rep["best_dist2"] == "0"


def test_attack_search_path_on_an_interior_order_fact():
    # a nonzero best distance pins the search path more tightly than
    # the "0" that most facts reach
    params, term = _first_fact_term("interior-order")
    rep = attack_term(params, term, random.Random(23), restarts=30)
    assert rep["witness"] is None
    assert rep["best_dist2"] == "104060401/346582093081075488"


def test_attack_needs_a_restart_and_a_round():
    params, term = _first_fact_term("extreme-merge")
    for budget in ({"restarts": 0}, {"rounds": 0}, {"restarts": -1}):
        with pytest.raises(ValueError):
            attack_term(params, term, random.Random(1), **budget)
    for facts in (ZeroFacts.load(), ZeroFacts([])):
        with pytest.raises(ValueError):
            attack_zero_facts(facts, restarts=0)


def test_recorded_tube_widths():
    # every checked-in fact records the eps_P^2 of its own stage
    for (_, ltext), rec in ZeroFacts.load().table.items():
        P = parse_graph(ltext, rec["n"]).partition
        eps = eps_P(default_params(rec["n"]), P)
        assert rec["attack"]["eps2"] == str(eps ** 2), ltext


@pytest.mark.parametrize("name", ALL_LEMMAS)
def test_lemma_harness_quick(name):
    rep = check_lemma(name, samples=80)
    assert rep["pass"], rep["counterexamples"][:3]
