"""Reference routes for the compiled tube geometry, kept beside the
tests: the least squares projection by exact elimination, the printed
constant-offset forms of two stages, and the per-call membership test
of the configuration space, each written from the stage layout rule
(`mid`, `c_piece`, `space_window`) without a compiled Tube."""

import random
from fractions import Fraction

from knotss.fields import QQ
from knotss.geometry import (c_piece, default_params, mid, project_mean,
                             rand_point, space_window)
from knotss.linalg import Matrix, solve
from knotss.partgraph import Partition

U = (Fraction(1), Fraction(0))


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _scale(c, p):
    return (Fraction(c) * p[0], Fraction(c) * p[1])


def _norm2(p):
    return p[0] * p[0] + p[1] * p[1]


def project_pi(params, P, ys):
    """Matrix route: least squares through the normal equations of the
    indicator design matrix, solved by exact elimination."""
    pieces = P.pieces()
    offs = {k: params.rho * (mid(params, (k,)) - mid(params, piece))
            for piece in pieces[1:-1] for k in piece}
    p = P.num_internal
    pos_of = {}
    for pos in range(1, len(pieces) - 1):
        for k in pieces[pos]:
            pos_of[k] = pos - 1
    rows, rhs_u, rhs_v = [], [], []
    for k in range(1, P.n + 1):
        if k not in pos_of:
            continue
        row = [QQ.zero] * p
        row[pos_of[k]] = QQ.one
        rows.append(row)
        rhs_u.append(ys[k - 1][0] - offs[k])
        rhs_v.append(ys[k - 1][1])
    A = Matrix(QQ, rows)
    At = A.transpose()
    N = At.mul_matrix(A)
    xu = solve(N, At.mul_vector(rhs_u))
    xv = solve(N, At.mul_vector(rhs_v))
    return [(xu[i], xv[i]) for i in range(p)]


def closed_form_projection_checks(trials=100, seed=20260823):
    """Exact agreement of the two projection routes, and of the printed
    constant-offset forms for the two stages used by the worked chains
    (second offset at five strands in its corrected form)."""
    rng = random.Random(seed)
    out = {"trials": trials, "seed": seed, "failures": []}
    specs = [(4, Partition(4, (1, 2, 2, 1))), (5, Partition(5, (1, 3, 2, 1)))]
    for n, P in specs:
        params = default_params(n)
        rho, c = params.rho, params.c
        for t in range(trials):
            ys = [rand_point(rng, 2) for _ in range(n)]
            route_a = project_pi(params, P, ys)
            route_b = project_mean(params, P, ys)
            if route_a != route_b:
                out["failures"].append({"n": n, "kind": "routes", "t": t})
                continue
            if n == 4:
                a = _add(_scale(Fraction(1, 2), _add(ys[0], ys[1])),
                         _scale(rho * (c[2] - c[1]) / 4, U))
                b = _add(_scale(Fraction(1, 2), _add(ys[2], ys[3])),
                         _scale(rho * (c[4] - c[3]) / 4, U))
            else:
                a = _add(_scale(Fraction(1, 3),
                                _add(_add(ys[0], ys[1]), ys[2])),
                         _scale(rho * (c[3] - c[1]) / 3, U))
                b = _add(_scale(Fraction(1, 2), _add(ys[3], ys[4])),
                         _scale(rho * (c[5] - c[4]) / 4, U))
            if [a, b] != route_b:
                out["failures"].append({"n": n, "kind": "printed", "t": t})
    out["pass"] = not out["failures"]
    return out


def reference_in_space(params, P, xs):
    """Membership in the exact clustered configuration space, with every
    radius, window and gap recomputed from the layout on each call."""
    rho = params.rho
    pieces = P.pieces()[1:-1]
    for x, piece in zip(xs, pieces):
        r = 1 - rho * c_piece(params, piece) / 2
        if _norm2(x) > r * r:
            return False
        lo, hi = space_window(params, piece)
        if not lo <= x[0] <= hi:
            return False
    mids = [mid(params, piece) for piece in pieces]
    for a in range(len(pieces)):
        for b in range(a + 1, len(pieces)):
            gap = rho * (mids[b] - mids[a])
            if _norm2((xs[a][0] - xs[b][0], xs[a][1] - xs[b][1])) < gap * gap:
                return False
    return True
