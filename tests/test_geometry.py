import hashlib
import json
import random
from fractions import Fraction

import pytest

from knotss import geometry
from knotss.chainledger import (MapExpr, Poly, Term, WeightSpec, ZeroFacts,
                                contraction, ee_contraction, f_graph, straight)
from knotss.fields import QQ
from knotss.geometry import (ALL_LEMMAS, Params, Tube, anchor_centers,
                             attack_term, attack_zero_facts, d_ab,
                             check_lemma, closed_form_projection_checks,
                             default_params, e_P, e_embed, eps_P, in_D_ab,
                             in_E, in_E_alpha, in_space, is_nonbasepoint,
                             parse_expr, project_mean, project_pi, rand_point,
                             sample_space_point, tube_dist2,
                             _ls_step, _normal_equations, _power_check_terms)
from knotss.linalg import Matrix, VerificationError, kernel_basis, solve_many
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


def test_embed_rejects_an_uncovered_piece(monkeypatch):
    # past a refinement check that lets a bad partition through, the
    # embedding itself names the piece no P-piece covers
    params = default_params(4)
    P = Partition(4, (1, 2, 2, 1))
    Q = Partition(4, (1, 1, 2, 1, 1))  # its piece (2, 3) straddles P's
    monkeypatch.setattr(geometry, "is_subdivision", lambda P, Q: True)
    with pytest.raises(VerificationError, match="not covered"):
        e_embed(params, P, Q, [rand_point(random.Random(3))] * 2)


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


def test_stage_layout_matches_its_definition():
    # each piece carries a segment of length rho*c(piece), split left to
    # right among its numbers; the extreme segments start at -1 and end
    # at 1, an internal one is centred on its coordinate.  The expected
    # centers are plain sums over params.c, so a wrong midpoint shared by
    # e_P, the anchors and the tube shows here
    rng = random.Random(41)
    for n in range(1, 6):
        params = default_params(n)
        rho, c = params.rho, params.c
        for P in enumerate_partitions(n):
            pieces = P.pieces()
            xs = [rand_point(rng) for _ in range(P.num_internal)]
            want = {}
            for pos, piece in enumerate(pieces):
                length = rho * sum(c[i] for i in piece)
                if pos == 0:
                    start, v = Fraction(-1), Fraction(0)
                elif pos == len(pieces) - 1:
                    start, v = 1 - length, Fraction(0)
                else:
                    start, v = xs[pos - 1][0] - length / 2, xs[pos - 1][1]
                for k in piece:
                    want[k] = (start + rho * c[k] / 2, v)
                    start += rho * c[k]
            centers = e_P(params, P, xs)
            assert centers == [want[k] for k in range(1, n + 1)], str(P)
            anchored = set(pieces[0] + pieces[-1]) - {0, n + 1}
            assert anchor_centers(params, P) == {k: want[k] for k in anchored}
            assert Tube(params, P).dist2(centers) == (0, xs), str(P)


def test_projection_routes_agree():
    params = default_params(5)
    P = Partition(5, (1, 3, 2, 1))
    rng = random.Random(13)
    for _ in range(10):
        ys = [rand_point(rng, 2) for _ in range(5)]
        assert project_pi(params, P, ys) == project_mean(params, P, ys)
    rep = closed_form_projection_checks(trials=20)
    assert rep["pass"], rep["failures"]


def test_tube_pencil_matches_three_point_quadratic():
    # dist2(A + tB) is the quadratic through t = 0, 1/2, 1, for every
    # stage up to five strands
    rng = random.Random(37)
    half = Fraction(1, 2)
    for n in range(1, 6):
        params = default_params(n)
        for P in enumerate_partitions(n):
            tube = Tube(params, P)
            for _ in range(2):
                A = [rand_point(rng, 2) for _ in range(n)]
                B = [rand_point(rng, 2) for _ in range(n)]
                d0, dh, d1 = (tube.dist2([(a[0] + t * b[0], a[1] + t * b[1])
                                          for a, b in zip(A, B)])[0]
                              for t in (0, half, 1))
                assert tube.pencil(A, B) == (-3 * d0 + 4 * dh - d1,
                                             2 * d0 - 4 * dh + 2 * d1), str(P)


def _component_rows(rng, P, kind):
    """(cx, cy, qu, qv) for every number under P, shaped so that the
    normal matrix of the least squares step has a chosen kernel."""
    def rand():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    pieces = P.pieces()
    per_piece = {pos: (rand(), rand()) for pos in range(len(pieces))}
    rows = []
    for k in range(1, P.n + 1):
        pos = next(i for i, piece in enumerate(pieces) if k in piece)
        cx, cy = rand(), rand()
        if kind == "translation-free":
            cy = 1 - cx
        elif kind == "cx = cy":
            cy = cx
        elif kind == "no x":
            cx = 0
        elif kind == "constant per piece":
            extreme = pos in (0, len(pieces) - 1)
            cx, cy = (0, 0) if extreme else per_piece[pos]
        rows.append((cx, cy, rand(), rand()))
    return rows


def _kernel_kind(N):
    """The kernel of N by where its one vector is last nonzero, or its
    dimension when that is not 1."""
    basis = kernel_basis(Matrix(QQ, N))
    if len(basis) != 1:
        return "nullity %d" % len(basis)
    last = max(i for i, c in enumerate(basis[0]) if c)
    return ("x", "y")[last] if last < 2 else "piece"


def test_line_search_holds_the_current_image(monkeypatch):
    # the line search moves its image along each parameter's derivative
    # instead of evaluating it again; every pencil must still start at
    # the image of the current (x, y) and parameter values
    args, checked = [], []
    derivative, pencil = MapExpr.derivative, Tube.pencil

    def spy_derivative(expr, x, y, values, name):
        args[:] = [expr, x, y, dict(values)]
        return derivative(expr, x, y, values, name)

    def spy_pencil(tube, A, B):
        expr, x, y, values = args
        checked.append(A == expr.evaluate(x, y, values))
        return pencil(tube, A, B)

    monkeypatch.setattr(MapExpr, "derivative", spy_derivative)
    monkeypatch.setattr(Tube, "pencil", spy_pencil)
    attack_zero_facts(ZeroFacts.load(), restarts=1, seed=7)
    assert len(checked) > 100 and all(checked)


def test_closed_form_step_matches_solve_many(monkeypatch):
    # the Schur/Cramer solve returns exactly the solution solve_many
    # gives on the assembled normal equations, nonsingular or singular,
    # and reaches solve_many only when S = 0
    calls = []

    def counted(M, bs):
        calls.append(M)
        return solve_many(M, bs)

    monkeypatch.setattr(geometry, "solve_many", counted)
    rng = random.Random(31)
    kinds = ("general", "translation-free", "cx = cy", "no x",
             "constant per piece")
    seen, full_rank = set(), 0
    for n in range(1, 5):
        params = default_params(n)
        for P in enumerate_partitions(n):
            tube = Tube(params, P)
            for kind in kinds:
                rows = _component_rows(rng, P, kind)
                expr = MapExpr([[Poly.const(c) for c in row] for row in rows])
                N, tu, tv = _normal_equations(tube, rows)
                su, sv = solve_many(Matrix(QQ, N, coerce=False), [tu, tv])
                before = len(calls)
                got = _ls_step(tube, expr.coefficients({}))
                assert got == ((su[0], sv[0]), (su[1], sv[1])), (str(P), kind)
                found = _kernel_kind(N)
                assert (len(calls) > before) == (found == "nullity 2")
                seen.add((found, P.num_internal > 0))
    assert seen >= {("nullity 0", True), ("nullity 0", False),
                    ("piece", True), ("y", True), ("y", False), ("x", True),
                    ("nullity 2", True)}


def test_step_fallback_rejects_inconsistent_equations(monkeypatch):
    # S = 0 (every number in an internal piece, cx and cy constant on
    # each) goes to solve_many; an inconsistent answer there is a
    # verification failure, not an assert
    params = default_params(4)
    tube = Tube(params, Partition(4, (1, 4, 1)))
    expr = parse_expr("x;x;x;x", 4)
    monkeypatch.setattr(geometry, "solve_many", lambda M, bs: [None, None])
    with pytest.raises(VerificationError, match="inconsistent normal equations"):
        _ls_step(tube, expr.coefficients({}))


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
    d = d_ab(params, P, 1, 2) + eps_P(params, P)
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


# sha256 of json.dumps(report, sort_keys=True) for four restarts at seed
# 7: the same on Python 3.10, 3.11 and 3.13
ATTACK_SEED7_SHA256 = ("27507d36117bf2d0891cdfe0c9bbdfc6"
                       "e4d7978a9a74b1c9aae89e3aad61f84b")


def test_attack_report_is_pinned():
    rep = attack_zero_facts(ZeroFacts.load(), restarts=4, seed=7)
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode())
    assert digest.hexdigest() == ATTACK_SEED7_SHA256


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
