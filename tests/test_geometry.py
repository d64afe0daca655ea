import hashlib
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from knotss import geometry
from knotss.chainledger import (MapExpr, Poly, ZeroFacts, parse_expr,
                                parse_term)
from knotss.fields import QQ
from knotss.geometry import (ALL_LEMMAS, Params, TermRows, Tube,
                             anchor_centers, attack_term, attack_zero_facts,
                             check_lemma, default_params, e_embed, eps_P,
                             in_E, project_mean, tube_dist2, _diagonal_sample,
                             _excised_sample, _ls_step, _near_tube_sample,
                             _power_check_terms, _translation_free,
                             _try_escape_excision)
from knotss.linalg import Matrix, VerificationError, kernel_basis, solve_many
from knotss.partgraph import (PGraph, Partition, discrete_partition,
                              enumerate_partitions, parse_graph)

from geometry_reference import (FractionTube, as_fractions, as_point,
                                closed_form_projection_checks,
                                fraction_line_step, fraction_slide,
                                normal_equations, project_pi, rand_point,
                                reference_in_space)


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
    tube = Tube(params, P)
    for _ in range(10):
        xs = tube.sample_space_point(rng)
        centers = as_fractions(tube.e_P(xs))
        xs = as_fractions(xs)
        assert e_embed(params, P, P, xs) == xs
        via = e_embed(params, Q, R, e_embed(params, P, Q, xs))
        assert via == e_embed(params, P, R, xs) == centers
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
    tube = Tube(params, P)
    for _ in range(10):
        xs = tube.sample_space_point(rng)
        d2, proj = tube_dist2(params, P, as_fractions(tube.e_P(xs)))
        assert d2 == 0 and proj == as_fractions(xs)


def test_compiled_tube_matches_projection_and_embedding():
    # every stage up to five strands, extreme pieces holding several
    # numbers included: the compiled tube agrees with the matrix
    # projection, the embedding e_P and the anchors
    rng = random.Random(29)
    for n in range(1, 6):
        params = default_params(n)
        for P in enumerate_partitions(n):
            anchors = anchor_centers(params, P)
            tube = Tube(params, P)
            for _ in range(3):
                ys = [rand_point(rng, 2) for _ in range(n)]
                xs = project_pi(params, P, ys)
                centers = as_fractions(tube.e_P(as_point(xs)))
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
            tube = Tube(params, P)
            centers = as_fractions(tube.e_P(as_point(xs)))
            assert centers == [want[k] for k in range(1, n + 1)], str(P)
            assert centers == e_embed(params, P, discrete_partition(n), xs)
            anchored = set(pieces[0] + pieces[-1]) - {0, n + 1}
            assert anchor_centers(params, P) == {k: want[k] for k in anchored}
            assert tube_dist2(params, P, centers) == (0, xs), str(P)


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
                d0, dh, d1 = (tube_dist2(params, P, [
                    (a[0] + t * b[0], a[1] + t * b[1])
                    for a, b in zip(A, B)])[0] for t in (0, half, 1))
                assert _pencil(tube, A, B) \
                    == (-3 * d0 + 4 * dh - d1, 2 * d0 - 4 * dh + 2 * d1), str(P)


def _over_one_den(points):
    """Integer numerators of a point list over the lcm of its
    denominators, and that lcm."""
    D = lcm(*(c.denominator for p in points for c in p))
    return [tuple(c.numerator * (D // c.denominator) for c in p)
            for p in points], D


def _pencil(tube, A, B):
    """Tube.pencil on the Fraction point lists A and B, its (numerator,
    denominator) pairs read as Fractions; every denominator positive."""
    pencil = tube.pencil(*_over_one_den(A), *_over_one_den(B))
    assert all(d > 0 for _, d in pencil)
    return tuple(Fraction(*c) for c in pencil)


def _step(tube, rows, den):
    """_ls_step's x and y as Fraction pairs, after checking that E is the
    lcm of their four coordinates' reduced denominators, the one
    denominator the image update builds on."""
    (X, Y), E = _ls_step(tube, rows, den)
    xy = [Fraction(c, E) for c in X + Y]
    assert E == lcm(*(c.denominator for c in xy))
    return tuple(xy[:2]), tuple(xy[2:])


def test_tube_embedding_matches_the_fraction_reference():
    # the tube holds one form of e_P, integers: anchors and offsets over
    # T, and per piece L / size; over T and L they are FractionTube's
    # anchors, offsets and 1 / size
    for n in range(1, 6):
        params = default_params(n)
        for P in enumerate_partitions(n):
            tube, ref = Tube(params, P), FractionTube(params, P)
            T, L = tube.T, tube.L
            assert all(type(a) is int for _, a in tube.anchored)
            assert all(type(c) is int for w, members in tube.pieces
                       for c in (w, *(off for _, off in members)))
            assert [(i, Fraction(a, T)) for i, a in tube.anchored] \
                == ref.anchored, str(P)
            assert [(Fraction(w, L), [(i, Fraction(off, T))
                                      for i, off in members])
                    for w, members in tube.pieces] == ref.pieces, str(P)


def test_integer_rounds_on_pieces_of_sizes_two_and_three():
    # the pencil against the three-point quadratic and the least squares
    # step against solve_many where L = 6 and the anchors' denominators
    # differ from each other and from the offsets': seven numbers, 1 and
    # 7 anchored, under segment lengths of unrelated denominators
    c = [Fraction(300 ** i, (i + 2) * 300 ** 8) for i in range(8)]
    c.append(1 - sum(c))
    P = Partition(7, (2, 2, 3, 2))
    params = Params(n=7, rho=Fraction(1, 2), eps=c[0] / 2000, c=c)
    tube = Tube(params, P)
    anchors = [Fraction(a, tube.T) for _, a in tube.anchored]
    assert tube.L == 6 and len(anchors) == 2
    assert anchors[0].denominator != anchors[1].denominator
    assert all(Fraction(off, tube.T).denominator != tube.T
               for _, members in tube.pieces for _, off in members)
    rng = random.Random(59)
    half = Fraction(1, 2)
    for _ in range(6):
        A = [rand_point(rng, 2) for _ in range(7)]
        B = [(u / rng.randint(1, 99), v / rng.randint(1, 99))
             for u, v in (rand_point(rng, 2) for _ in range(7))]
        B[rng.randrange(7)] = (Fraction(0), Fraction(0))
        d0, dh, d1 = (tube_dist2(params, P, [(a[0] + t * b[0], a[1] + t * b[1])
                                             for a, b in zip(A, B)])[0]
                      for t in (0, half, 1))
        assert _pencil(tube, A, B) \
            == (-3 * d0 + 4 * dh - d1, 2 * d0 - 4 * dh + 2 * d1)
    for kind in ("general", "translation-free", "cx = cy", "no x"):
        for _ in range(3):
            rows = _component_rows(rng, P, kind)
            expr = MapExpr([[Poly.const(c) for c in row] for row in rows])
            N, tu, tv = normal_equations(tube, rows)
            su, sv = solve_many(Matrix(QQ, N, coerce=False), [tu, tv])
            assert _step(tube, *TermRows(expr)({})) \
                == ((su[0], sv[0]), (su[1], sv[1])), kind


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
    args, checked = [None] * 4, []
    ls_step, compile_rows, rows_at, pencil = (
        geometry._ls_step, TermRows.__init__, TermRows.__call__, Tube.pencil)

    def spy_ls_step(tube, rows, den):
        (X, Y), E = out = ls_step(tube, rows, den)
        args[:2] = [[Fraction(c, E) for c in p] for p in (X, Y)]
        return out

    def spy_compile(compiled, expr):
        args[2] = expr
        compile_rows(compiled, expr)

    def spy_rows(compiled, values, name=None):
        args[3] = {nm: Fraction(*v) for nm, v in values.items()}
        return rows_at(compiled, values, name)

    def spy_pencil(tube, A, D, B, Db):
        x, y, expr, values = args
        checked.append([(Fraction(u, D), Fraction(v, D)) for u, v in A]
                       == expr.evaluate(x, y, values))
        return pencil(tube, A, D, B, Db)

    monkeypatch.setattr(geometry, "_ls_step", spy_ls_step)
    monkeypatch.setattr(TermRows, "__init__", spy_compile)
    monkeypatch.setattr(TermRows, "__call__", spy_rows)
    monkeypatch.setattr(Tube, "pencil", spy_pencil)
    attack_zero_facts(ZeroFacts.load(), restarts=1, seed=7)
    assert len(checked) > 100 and all(checked)


def test_closed_form_step_matches_solve_many():
    # the Schur/Cramer solve returns exactly the solution solve_many
    # gives on the assembled normal equations, nonsingular or singular,
    # S = 0 (nullity 2) included
    rng = random.Random(31)
    kinds = ("general", "translation-free", "cx = cy", "no x",
             "constant per piece")
    seen = set()
    for n in range(1, 5):
        params = default_params(n)
        for P in enumerate_partitions(n):
            tube = Tube(params, P)
            for kind in kinds:
                rows = _component_rows(rng, P, kind)
                expr = MapExpr([[Poly.const(c) for c in row] for row in rows])
                N, tu, tv = normal_equations(tube, rows)
                su, sv = solve_many(Matrix(QQ, N, coerce=False), [tu, tv])
                got = _step(tube, *TermRows(expr)({}))
                assert got == ((su[0], sv[0]), (su[1], sv[1])), (str(P), kind)
                seen.add((_kernel_kind(N), P.num_internal > 0))
    assert seen >= {("nullity 0", True), ("nullity 0", False),
                    ("piece", True), ("y", True), ("y", False), ("x", True),
                    ("nullity 2", True)}


def test_zero_schur_complement_matches_the_solve_many_reference():
    # S = 0: every number in an internal piece, cx and cy shared within
    # each piece, so N's kernel is two-dimensional and the closed form
    # zeroes two coordinates; random stages and rows, some pieces with
    # cx = cy = 0 or with proportional (cx, cy), and the inside term of
    # collapse-cases at 1+1+2+1+1, the one S = 0 term the harnesses meet
    rng = random.Random(61)

    def rand():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))

    zero_pieces = 0
    for _ in range(150):
        n = rng.randint(1, 6)
        sizes = [1]
        while sum(sizes) < n + 1:
            sizes.append(rng.randint(1, n + 1 - sum(sizes)))
        P = Partition(n, tuple(sizes + [1]))
        tube = Tube(default_params(n), P)
        shape = rng.choice(("free", "zero", "parallel"))
        per_piece = [(rand(), rand()) for _ in P.pieces()]
        if shape == "zero":
            per_piece = [(0, 0) if rng.randrange(2) else p for p in per_piece]
        elif shape == "parallel":
            per_piece = [(t * per_piece[0][0], t * per_piece[0][1])
                         for t in (rand() for _ in per_piece)]
        rows = []
        for k in range(1, n + 1):
            pos = next(i for i, piece in enumerate(P.pieces()) if k in piece)
            rows.append(per_piece[pos] + (rand(), rand()))
        zero_pieces += any(r[:2] == (0, 0) for r in rows)
        N, tu, tv = normal_equations(tube, rows)
        assert _kernel_kind(N) == "nullity 2", str(P)
        su, sv = solve_many(Matrix(QQ, N, coerce=False), [tu, tv])
        expr = MapExpr([[Poly.const(c) for c in row] for row in rows])
        assert _step(tube, *TermRows(expr)({})) \
            == ((su[0], sv[0]), (su[1], sv[1])), (str(P), rows)
    assert zero_pieces
    inside = geometry._collapse_case_instances()[0]
    tube = Tube(default_params(4), inside.label.partition)
    compiled = TermRows(inside.expr)
    for s1 in (Fraction(0), Fraction(1, 3), Fraction(-7, 5)):
        rows, den = compiled({"s1": (s1.numerator, s1.denominator)})
        N, tu, tv = normal_equations(
            tube, [[Fraction(c, den) for c in row] for row in rows])
        assert _kernel_kind(N) == "nullity 2"
        su, sv = solve_many(Matrix(QQ, N, coerce=False), [tu, tv])
        assert _step(tube, rows, den) == ((su[0], sv[0]), (su[1], sv[1]))


def test_step_fallback_rejects_inconsistent_equations(monkeypatch):
    # the normal equations are always consistent, so a singular S with a
    # nonzero reduced right-hand side has no solution: _schur_solve says
    # None, and the step raises a verification failure, not an assert
    assert geometry._schur_solve(0, 0, 0, [(1, 0, [])]) is None
    assert geometry._schur_solve(1, 1, 1, [(1, 0, [])]) is None
    tube = Tube(default_params(4), Partition(4, (1, 4, 1)))
    expr = parse_expr("x;x;x;x", 4)
    monkeypatch.setattr(geometry, "_schur_solve", lambda *args: None)
    with pytest.raises(VerificationError, match="inconsistent normal equations"):
        _ls_step(tube, *TermRows(expr)({}))


def _check_limit(limit, n, d):
    want = Fraction(n, d).limit_denominator(1 << 24)
    assert limit(n, d) == (want.numerator, want.denominator), (n, d)


def test_limit_matches_limit_denominator(monkeypatch):
    # _limit is Fraction.limit_denominator(1 << 24) on integers: 0 and 1,
    # random rationals (unreduced too) with denominators on both sides of
    # 2^24, exact ties between its two candidates, and every value a real
    # attack run caps
    N, limit = 1 << 24, geometry._limit
    rng = random.Random(83)
    for n, d in ((0, 1), (0, 9), (1, 1), (7, 7), (N, N), (1, 2 * N)):
        _check_limit(limit, n, d)
    for _ in range(500):
        d = rng.choice((rng.randrange(1, N + 1), rng.randrange(N, 4 * N),
                        rng.randrange(1, 1 << 90)))
        k = rng.choice((1, 1, rng.randrange(2, 1 << 30)))
        _check_limit(limit, rng.randrange(-3 * d, 3 * d) * k, d * k)
    # the midpoint of Farey neighbours p/q < r/s, both denominators at
    # most 2^24 with q + s past it, is as close to one as to the other
    ties = 0
    while ties < 40:
        s = rng.randrange(N // 2, N + 1)
        r = rng.randrange(1, s)
        if gcd(r, s) != 1:
            continue
        q = pow(r, -1, s)  # r q - p s = 1
        p = (r * q - 1) // s
        x = Fraction(p * s + r * q, 2 * q * s)
        if q + s > N and x.denominator > N:
            assert x - Fraction(p, q) == Fraction(r, s) - x
            _check_limit(limit, x.numerator, x.denominator)
            ties += 1
    seen = []

    def spy(n, d):
        seen.append((n, d))
        return limit(n, d)

    monkeypatch.setattr(geometry, "_limit", spy)
    attack_zero_facts(ZeroFacts.load(), restarts=1, seed=7)
    assert sum(Fraction(n, d).denominator > N for n, d in seen) > 50
    for n, d in seen:
        _check_limit(limit, n, d)


def test_a_pencil_with_a2_zero_and_b1_nonzero_is_rejected(monkeypatch):
    # a2 is the tube's semidefinite form on the derivative image and b1
    # twice its pairing with the image, so a2 = 0 forces b1 = 0; a pencil
    # corrupted to break that stops the attack with the term and the
    # parameter named
    tube, term = _first_fact_term("interior-order")
    monkeypatch.setattr(Tube, "pencil",
                        lambda self, A, D, B, Db: ((-3, 7), (0, 1)))
    named = "a2 = 0 but b1 != 0: %s on %s, s1" % (
        re.escape(term.expr.text()), re.escape(str(term.label)))
    with pytest.raises(VerificationError, match=named):
        attack_term(tube, term, random.Random(5), restarts=1)


def test_line_step_matches_the_fraction_reference():
    # the integer parameter step against the Fraction step it replaced,
    # on random images, derivatives and current values over several
    # stages: new value and moved image agree exactly on every path
    rng = random.Random(89)
    N = 1 << 24
    paths = Counter()
    for n in (2, 3, 4):
        params = default_params(n)
        for P in enumerate_partitions(n):
            tube = Tube(params, P)
            for _ in range(12):
                unit = rng.randrange(2)
                d = rng.choice((1, 7, 1 << 12, N, rng.randrange(N, 1 << 40)))
                cur = Fraction(rng.randrange(0, (1 if unit else 3) * d + 1), d)
                shape = rng.choice(("random", "random", "vertex", "still"))
                B = [rand_point(rng, rng.choice((1, Fraction(1, 1000))))
                     for _ in range(n)]
                if shape == "still":
                    B = [(Fraction(0), Fraction(0))] * n
                if shape == "vertex":
                    # dist^2 is 0 at t = v on an embedded point, so the
                    # vertex is v itself, with a small denominator
                    v = Fraction(rng.randrange(0, 3 * 64 + 1), 64)
                    base = as_fractions(tube.e_P(tube.sample_space_point(rng)))
                    A = [(p[0] + (cur - v) * b[0], p[1] + (cur - v) * b[1])
                         for p, b in zip(base, B)]
                else:
                    A = [rand_point(rng, 2) for _ in range(n)]
                (A, D), (B, Db) = as_point(A), as_point(B)
                new, A2, D2 = fraction_line_step(tube, A, D, B, Db, cur, unit)
                got = geometry._line_step(
                    tube, A, D, B, Db, (cur.numerator, cur.denominator), unit)
                assert got == ((new.numerator, new.denominator), A2, D2), \
                    (str(P), shape)
                b1, a2 = (Fraction(*c) for c in tube.pencil(A, D, B, Db))
                opt = cur - b1 / (2 * a2) if a2 else cur
                paths["a2 = 0" if not a2 else "clamped at 0" if opt < 0
                      else "clamped at 1" if unit and opt > 1
                      else "capped" if opt.denominator > N else "vertex"] += 1
                paths["unmoved"] += new == cur
    assert all(paths[k] >= 5 for k in ("a2 = 0", "clamped at 0",
                                        "clamped at 1", "capped", "vertex",
                                        "unmoved")), paths


def test_region_predicates():
    params = default_params(4)
    P = Partition(4, (1, 2, 2, 1))
    tube = Tube(params, P)
    rng = random.Random(17)
    xs = tube.sample_space_point(rng)
    assert tube.in_space(xs)
    xs = as_fractions(xs)
    assert not in_E(params, P, xs)
    # pushing a piece past its window lands in the excision region
    bad = list(xs)
    bad[0] = (Fraction(-1) + eps_P(params, P) / 4, bad[0][1])
    assert in_E(params, P, bad)
    # strictly closer than the legal spacing is deep in the diagonal
    close = list(xs)
    d = Fraction(tube.diagonals[1, 2], tube.G) + eps_P(params, P)
    close[1] = (close[0][0] + d / 2, close[0][1])
    assert tube.in_D_ab(as_point(close), 1, 2)
    assert not tube.in_space(as_point(close))
    # the minimum legal spacing sits just outside the shrunk region
    edge = list(xs)
    edge[1] = (edge[0][0] + d, edge[0][1])
    assert not tube.in_D_ab(as_point(edge), 1, 2)


def test_anchor_centers_extreme_pieces():
    params = default_params(4)
    P = Partition(4, (3, 1, 1, 1))
    anchors = anchor_centers(params, P)
    assert set(anchors) == {1, 2}  # numbers in the left extreme piece
    assert anchors[1][0] < anchors[2][0] < -Fraction(1, 2)
    assert anchors[1][1] == 0


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
        tube = Tube(params, term.label.partition)
        rep = attack_term(tube, term, rng, restarts=40)
        assert rep["witness"] == pinned, rep
        x = [Fraction(c) for c in rep["witness"]["x"]]
        y = [Fraction(c) for c in rep["witness"]["y"]]
        vals = {k: Fraction(v) for k, v in rep["witness"]["params"].items()}
        ys = term.expr.evaluate(x, y, vals)
        assert tube.nonbase_projection(as_point(ys)) is not None


def test_excision_slide_of_a_translation_free_term():
    # images at (5, 0) sit inside the discrete tube at n = 4 but are
    # excised; a translation-free term slides (x, y) into the windows,
    # and its image there, evaluated afresh, is a non-basepoint
    tube = Tube(default_params(4), discrete_partition(4))
    x = y = (Fraction(5), Fraction(0))
    values = {"s1": Fraction(1, 3)}
    for text, free in (("x;y;y;y", True),
                       ("x;y+(1*s1)v;y+(-1*s1)v;x", True),
                       ("x;y;y;0", False)):
        expr = parse_expr(text, 4)
        assert _translation_free(expr) == free
        ys = as_point(expr.evaluate(x, y, values))
        d2, xs = tube.dist2(ys)
        assert Fraction(*d2) < Fraction(*tube.eps2) and tube.excised(xs)
        slide = _try_escape_excision(tube, free, ys, d2, xs)
        if not free:
            assert slide is None, text
            continue
        s = Fraction(*slide)
        slid = as_point(expr.evaluate((x[0] + s, x[1]), (y[0] + s, y[1]),
                                      values))
        xs = tube.nonbase_projection(slid)
        assert xs is not None, text
        d2, _ = tube.dist2(slid)
        assert _try_escape_excision(tube, free, slid, d2, xs) == (0, 1)


def test_excision_slide_matches_the_fraction_reference():
    # the integer slide against the Fraction one on images inside the
    # tube of every stage with an internal piece at two to four strands,
    # excised or not: the same slide, None where the reference finds
    # none, and (0, 1) on a clear projection, where a map that is not
    # translation free also stops; it alone gets None on an excised
    # projection
    rng = random.Random(67)
    seen = Counter()
    for n in (2, 3, 4):
        params = default_params(n)
        for P in enumerate_partitions(n):
            if not P.num_internal:
                continue
            tube, ref = Tube(params, P), FractionTube(params, P)
            for k in range(12):
                sample = _excised_sample if k % 2 else _near_tube_sample
                ys = sample(tube, rng)
                d2, xs = tube.dist2(ys)
                if not geometry._less(d2, tube.eps2):
                    continue
                want = fraction_slide(ref, as_fractions(ys))
                got = _try_escape_excision(tube, True, ys, d2, xs)
                assert (None if got is None else Fraction(*got)) == want
                if want == 0:
                    assert got == (0, 1)
                assert _try_escape_excision(tube, False, ys, d2, xs) \
                    == ((0, 1) if want == 0 else None)
                seen["none" if want is None else "clear" if want == 0
                     else "slid"] += 1
    assert min(seen[k] for k in ("clear", "slid", "none")) >= 5, seen


def test_a_slide_changes_the_tube_distance_only_at_the_anchors():
    # the slide reuses the distance it starts from: moving every point
    # by (s, 0) moves each projection by s, keeps each piece's spread,
    # and adds s (2 (u - anchor) + s) per anchored number
    rng = random.Random(29)
    params = default_params(4)
    for sizes in ((1, 2, 2, 1), (2, 1, 1, 2), (3, 2, 1), (1, 1, 1, 1, 1, 1)):
        P = Partition(4, sizes)
        tube = Tube(params, P)
        for _ in range(5):
            ys = [rand_point(rng) for _ in range(4)]
            s = rng.choice((Fraction(1, 3), Fraction(-2, 7), Fraction(0)))
            d2, xs = tube_dist2(params, P, ys)
            slid2, slid_xs = tube_dist2(params, P, [(u + s, v) for u, v in ys])
            assert slid2 == d2 + sum(
                s * (2 * (ys[i][0] - Fraction(a, tube.T)) + s)
                for i, a in tube.anchored)
            assert slid_xs == [(u + s, v) for u, v in xs]


def _first_fact_term(kind):
    """The first fact of a kind, as (the tube of its stage, its term)."""
    facts = ZeroFacts.load()
    recs = [(k, r) for k, r in sorted(facts.table.items())
            if r["kind"] == kind]
    (etext, ltext), rec = recs[0]
    term = parse_term(etext, ltext, rec["n"])
    return Tube(default_params(rec["n"]), term.label.partition), term


def test_attack_certifies_an_extreme_merge_fact():
    tube, term = _first_fact_term("extreme-merge")
    rep = attack_term(tube, term, random.Random(23), restarts=30)
    assert rep["witness"] is None
    assert rep["best_dist2"] == "0"


def test_attack_search_path_on_an_interior_order_fact():
    # a nonzero best distance pins the search path more tightly than
    # the "0" that most facts reach
    tube, term = _first_fact_term("interior-order")
    rep = attack_term(tube, term, random.Random(23), restarts=30)
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
    tube, term = _first_fact_term("extreme-merge")
    for restarts in (0, -1):
        with pytest.raises(ValueError):
            attack_term(tube, term, random.Random(1), restarts=restarts)
    # the tube must be compiled for the term's own stage
    other, _ = _first_fact_term("interior-order")
    with pytest.raises(ValueError, match="not compiled for the term's stage"):
        attack_term(other, term, random.Random(1))
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


def test_check_lemma_rejects_an_unknown_name():
    assert ALL_LEMMAS == ("condensed-image", "diagonal-bound", "diagonal-incl",
                          "collapse0", "collapse-cases", "i-contraction")
    with pytest.raises(ValueError):
        check_lemma("nope")


def test_compiled_in_space_matches_the_reference():
    # the compiled membership test agrees with the per-call reference on
    # random and sampled points, on the extreme configurations (every
    # piece leftmost, rightmost or centred: gaps exact, inside), and on
    # points that break the radius, a window or a gap alone
    rng = random.Random(43)
    zero = Fraction(0)
    for n in range(1, 6):
        params = default_params(n)
        for P in enumerate_partitions(n):
            if not P.num_internal:
                continue
            tube = Tube(params, P)
            delta = tube.epsp / 1000
            space = FractionTube(params, P).space
            left = [(lo, zero) for _, lo, _ in space]
            right = [(hi, zero) for _, _, hi in space]
            middle = [((lo + hi) / 2, zero) for _, lo, hi in space]
            j = rng.randrange(P.num_internal)
            far = middle[:j] + [(middle[j][0], Fraction(1))] + middle[j + 1:]
            low = [(left[0][0] - delta, zero)] + left[1:]
            high = right[:-1] + [(right[-1][0] + delta, zero)]
            cases = [(as_fractions(tube.sample_space_point(rng)), True),
                     (left, True),
                     (right, True), (middle, True), (far, False),
                     (low, False), (high, False)]
            if P.num_internal > 1:
                near = [(middle[0][0] + delta, zero)] + middle[1:]
                cases.append((near, False))
            cases += [([rand_point(rng) for _ in range(P.num_internal)], None)
                      for _ in range(3)]
            for xs, inside in cases:
                got = tube.in_space(as_point(xs))
                assert got == reference_in_space(params, P, xs), (str(P), xs)
                assert inside is None or got == inside, (str(P), xs)


# sha256 over the reprs of the points that sample_space_point, e_P and
# the three tube samplers give on six stages at seed 7: any change to a
# draw's value, its rng call or their order shows here
SAMPLE_STREAM_SHA256 = ("05e9f3185dfa6bed4bbddac695e4f345"
                        "4d93368f35b611b3852517ec80d87fdb")


def test_sample_streams_are_pinned():
    params = default_params(4)
    rng = random.Random(7)
    h = hashlib.sha256()
    for sizes in ((1, 2, 2, 1), (2, 2, 1, 1), (1, 1, 2, 1, 1),
                  (1, 2, 1, 1, 1), (2, 1, 1, 2), (1, 1, 1, 1, 1, 1)):
        tube = Tube(params, Partition(4, sizes))
        for _ in range(5):
            xs = tube.sample_space_point(rng)
            # the points as the Fraction pairs they stand for
            for out in (xs, tube.e_P(xs), _near_tube_sample(tube, rng),
                        _excised_sample(tube, rng),
                        _diagonal_sample(tube, rng)):
                h.update(repr(as_fractions(out)).encode())
    assert h.hexdigest() == SAMPLE_STREAM_SHA256


# sha256 of json.dumps(report, sort_keys=True) for each lemma at 1000
# samples and seed 7
LEMMA_REPORT_SHA256 = {
    "condensed-image":
        "e26397e9ace269431f288963ea0256caaf221b554ff2784ecb7334b10972b97d",
    "diagonal-bound":
        "f24dc96ece7a85264527d34828ef01d98117e87ace2f9fa5da1a27c5c73b473d",
    "diagonal-incl":
        "5babad13b8b9158ed17559cfc08008d046bf0c835a00dc16a95622adba1b32ce",
    "collapse0":
        "b3a5f903e8b61833a254b381f51f7c92aa1227870424a18af444b31ba8d0224c",
    "collapse-cases":
        "73acc1ece0b8e56d4ced1f32c8b0ddd748d81050d6df8126a683952c9b4fb824",
    "i-contraction":
        "9f50bae6761c6038265f5e3647cc1b3da8e75be7fbd31dedafd11b7e63506072",
}


def test_lemma_reports_are_pinned():
    got = {name: hashlib.sha256(json.dumps(
               check_lemma(name, samples=1000, seed=7),
               sort_keys=True).encode()).hexdigest()
           for name in ALL_LEMMAS}
    assert got == LEMMA_REPORT_SHA256


# sha256 over the reprs of the points each lemma harness hands to the
# tube's membership tests, Tube.nonbase_projection, in_space and
# in_D_ab, in call order at 200 samples and seed 7.  The lemma reports
# carry only counterexamples, so a change to what the harnesses sample
# shows here and not there.  The attack that collapse-cases runs is left
# out: the attack pins cover it.
LEMMA_POINTS_SHA256 = {
    "condensed-image":
        "f6b80580d0d1a70d9cc1303b0d9eaa24260e678fe90d807b8490ab67c4351c6b",
    "diagonal-bound":
        "1535eaeec5a7f03b54fea436519d0b8a17454537fe3dbf15889dd7e82a7b6a63",
    "diagonal-incl":
        "08c7d847f5d953b67941fe0f69777b544aa245ec38fc2e3b53a38cbb4e856c55",
    "collapse0":
        "2e1048f96d7912bedb931a08e225cdd7d242b6d083564c9637baf920c9718db8",
    "collapse-cases":
        "6d5bb6e1d0b766891012aa212c496050d0af71a3e8b4c1cb55b6d0b1f4cfccd5",
    "i-contraction":
        "7ff21d3a50cfc8e365a14997fc81f614cf395eeca34ec8fd773aefdd31117ccc",
}


def test_lemma_sample_points_are_pinned(monkeypatch):
    digest, paused = [None], []

    def recorded(name):
        method = getattr(Tube, name)

        def wrapper(self, xs, *args):
            # the point as the Fraction pairs it stands for
            if not paused:
                digest[0].update(repr((name, (as_fractions(xs),) + args))
                                 .encode())
            return method(self, xs, *args)
        return wrapper

    def attack(*args, **kwargs):
        paused.append(True)
        try:
            return attack_term(*args, **kwargs)
        finally:
            paused.pop()

    for name in ("nonbase_projection", "in_space", "in_D_ab"):
        monkeypatch.setattr(Tube, name, recorded(name))
    monkeypatch.setattr(geometry, "attack_term", attack)
    got = {}
    for name in ALL_LEMMAS:
        digest[0] = hashlib.sha256()
        check_lemma(name, samples=200, seed=7)
        got[name] = digest[0].hexdigest()
    assert got == LEMMA_POINTS_SHA256


def _norm2(p):
    return p[0] * p[0] + p[1] * p[1]


def _inflated(xs, k):
    """The point xs with its numerators and denominator multiplied by k:
    the same rationals over another denominator."""
    X, D = xs
    return [(u * k, v * k) for u, v in X], D * k


def test_integer_queries_match_the_fraction_reference():
    # every stage up to five strands: dist2, nonbase_projection,
    # in_space, in_D_ab and excised on integer numerators agree with
    # the Fraction reference, on random points whose coordinates carry
    # unrelated denominators, on near-tube samples, and on both over an
    # inflated denominator
    rng = random.Random(67)

    def rand():
        den = rng.choice((1, 7, 4096, 10 ** 6, rng.randint(1, 10 ** 9)))
        return Fraction(rng.randint(-3 * 10 ** 6, 3 * 10 ** 6), den)

    for n in range(1, 6):
        params = default_params(n)
        for P in enumerate_partitions(n):
            tube, ref = Tube(params, P), FractionTube(params, P)
            points = [[(rand() / 1000, rand() / 1000) for _ in range(n)]
                      for _ in range(3)]
            if P.num_internal:
                points += [as_fractions(_near_tube_sample(tube, rng))
                           for _ in range(3)]
            for ys in points:
                for pt in (as_point(ys), _inflated(as_point(ys), 91)):
                    d2, xs = tube.dist2(pt)
                    want_d2, want_xs = ref.dist2(ys)
                    assert (Fraction(*d2), as_fractions(xs)) \
                        == (want_d2, want_xs), str(P)
                    got = tube.nonbase_projection(pt)
                    want = ref.nonbase_projection(ys)
                    assert (got and as_fractions(got)) == want, str(P)
                    assert tube.excised(xs) == ref.excised(want_xs)
                    xs = _inflated(xs, 3)
                    assert tube.in_space(xs) == ref.in_space(want_xs)
                    for a, b in ref.diagonals:
                        assert tube.in_D_ab(xs, a, b) \
                            == ref.in_D_ab(want_xs, a, b), (str(P), a, b)


def _on_circle(r, c):
    """A rational point at distance exactly r from 0 whose first
    coordinate is near c, from the rational parametrisation of the
    circle."""
    t = Fraction(math.sqrt((r - c) / (r + c))).limit_denominator(10 ** 6)
    return (r * (1 - t * t) / (1 + t * t), r * 2 * t / (1 + t * t))


def test_integer_queries_on_every_boundary_match_the_reference():
    # points exactly on each boundary, and just across it: d^2 = eps_P^2
    # (strict), u = lo and u = hi of a space window (closed) and of an
    # excision window (the region is closed), |x|^2 = r^2 of the space
    # (closed) and of the excision sphere (closed), a distance^2 = gap^2
    # (allowed) and a distance^2 = d_ab^2 (inside the diagonal region);
    # the integer queries agree with the reference and with the rule.
    # "Just across" is a step far below 1/G, so that a bound off by one
    # numerator over G shows
    zero = Fraction(0)
    seen = set()
    for n, sizes in ((4, (1, 2, 2, 1)), (4, (2, 1, 1, 2)), (4, (1, 3, 1, 1)),
                     (4, (1, 1, 1, 1, 1, 1)), (5, (2, 2, 1, 2)),
                     (5, (1, 1, 1, 3, 1))):
        params = default_params(n)
        P = Partition(n, sizes)
        tube, ref = Tube(params, P), FractionTube(params, P)
        G, eps = tube.G, tube.epsp
        tiny = Fraction(1, 1000 * G)
        middle = [((lo + hi) / 2, zero) for _, lo, hi in ref.space]

        def check(query, xs, want, *args):
            seen.add((query, want))
            for pt in (as_point(xs), _inflated(as_point(xs), 13)):
                assert getattr(tube, query)(pt, *args) == want, \
                    (str(P), query, xs)
            assert getattr(ref, query)(xs, *args) == want, (str(P), query)

        # the tube's edge: one anchored number, or two members of a piece
        # moved apart, puts the point at squared distance exactly eps_P^2
        centers = as_fractions(tube.e_P(as_point(middle)))
        moves = []
        if ref.anchored:
            moves.append({ref.anchored[0][0]: (3 * eps / 5, 4 * eps / 5)})
        for _, members in ref.pieces:
            if len(members) == 2:
                (i, _), (j, _) = members
                moves.append({i: (eps / 2, eps / 2), j: (-eps / 2, -eps / 2)})
        for move in moves:
            for scale, inside in ((1, False), (1 - tiny, True)):
                ys = [(u + scale * move[k][0], v + scale * move[k][1])
                      if k in move else (u, v)
                      for k, (u, v) in enumerate(centers)]
                assert tube_dist2(params, P, ys)[0] \
                    == scale * scale * eps * eps
                got = tube.nonbase_projection(as_point(ys))
                assert (got is not None) == inside == \
                    (ref.nonbase_projection(ys) is not None), str(P)
                seen.add(("eps2", inside))
        for j, (r2, lo, hi) in enumerate(ref.space):
            r = Fraction(tube.space[j][0], G)
            # the space window's ends and radius are inside
            for u, step in ((lo, -tiny), (hi, tiny)):
                at = middle[:j] + [(u, zero)] + middle[j + 1:]
                past = middle[:j] + [(u + step, zero)] + middle[j + 1:]
                if j in (0, len(middle) - 1) or len(middle) == 1:
                    check("in_space", at, True)
                    check("in_space", past, False)
            on = _on_circle(r, middle[j][0])
            check("in_space", middle[:j] + [on] + middle[j + 1:], True)
            out = (on[0] * (1 + tiny), on[1] * (1 + tiny))
            check("in_space", middle[:j] + [out] + middle[j + 1:], False)
            # the excision window's ends and sphere are excised
            w_r2, w_lo, w_hi = ref.windows[j]
            for u, step in ((w_lo, tiny), (w_hi, -tiny)):
                check("excised", middle[:j] + [(u, zero)] + middle[j + 1:],
                      True)
                check("excised",
                      middle[:j] + [(u + step, zero)] + middle[j + 1:], False)
            on = _on_circle(r + eps, middle[j][0])
            assert _norm2(on) == w_r2
            check("excised", middle[:j] + [on] + middle[j + 1:], True)
            inside = (on[0] * (1 - tiny), on[1] * (1 - tiny))
            check("excised", middle[:j] + [inside] + middle[j + 1:], False)
        # centres exactly a gap apart are allowed, and a little closer not
        check("in_space", middle, True)
        for i, j, gap2 in ref.gaps:
            assert _norm2((middle[j][0] - middle[i][0], zero)) == gap2
            closer = list(middle)
            closer[j] = (middle[j][0] - tiny, zero)
            check("in_space", closer, False)
        # a pair exactly d_ab apart is in the deep diagonal region
        for (a, b), (d, _) in ref.diagonals.items():
            for scale, inside in ((1, True), (1 + tiny, False)):
                xs = list(middle)
                xs[b - 1] = (xs[a - 1][0] + scale * 3 * d / 5,
                             xs[a - 1][1] + scale * 4 * d / 5)
                check("in_D_ab", xs, inside, a, b)
    assert seen >= {(q, w) for q in ("in_space", "excised", "in_D_ab", "eps2")
                    for w in (True, False)}
