"""Reference routes for the compiled tube geometry, kept beside the
tests: the least squares projection by exact elimination, the printed
constant-offset forms of two stages, and the per-call membership test
of the configuration space, each written from the stage layout rule
(`mid`, `c_piece`, `space_window`) without a compiled Tube; the tube
queries in Fractions (`FractionTube`); the normal equations of the
attack's least squares step, for `solve_many`; and the attack's
parameter step and excision slide in Fractions (`fraction_line_step`,
`fraction_slide`)."""

import random
from fractions import Fraction
from math import lcm

from knotss.fields import QQ
from knotss.geometry import (Draw, c_piece, default_params, eps_P, mid,
                             project_mean, space_window)
from knotss.linalg import Matrix, solve
from knotss.partgraph import Partition

U = (Fraction(1), Fraction(0))


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _scale(c, p):
    return (Fraction(c) * p[0], Fraction(c) * p[1])


def _norm2(p):
    return p[0] * p[0] + p[1] * p[1]


def rand_point(rng, scale=1):
    """A Fraction point of the square [-scale, scale]^2, one Draw per
    coordinate."""
    draw = Draw(-scale, scale)
    return (Fraction(draw(rng), draw.d), Fraction(draw(rng), draw.d))


def as_point(ys):
    """Fraction (u, v) pairs as the package's point (numerators, D)."""
    D = lcm(*(c.denominator for p in ys for c in p))
    return [tuple(c.numerator * (D // c.denominator) for c in p)
            for p in ys], D


def as_fractions(xs):
    """The package's point (numerators, D) as Fraction (u, v) pairs."""
    X, D = xs
    return [(Fraction(u, D), Fraction(v, D)) for u, v in X]


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


class FractionTube:
    """The tube queries of one stage in Fractions, on lists of Fraction
    (u, v) pairs: every constant from the layout rule, and distance,
    projection, membership, diagonal and excision tests as plain
    rational formulas, with no common denominator."""

    def __init__(self, params, P):
        rho = params.rho
        pieces = P.pieces()
        width = 2 - rho
        low = {k: space_window(params, (k,))[0] for k in range(1, P.n + 1)}
        self.anchored = ([(k - 1, low[k]) for k in pieces[0][1:]]
                         + [(k - 1, low[k] + width) for k in pieces[-1][:-1]])
        self.epsp = epsp = eps_P(params, P)
        self.eps2 = epsp * epsp
        self.pieces, self.space, self.windows, lows = [], [], [], []
        for piece in pieces[1:-1]:
            lo = space_window(params, piece)[0]
            lows.append(lo)
            self.pieces.append((Fraction(1, len(piece)),
                                [(k - 1, low[k] - lo) for k in piece]))
            r = 1 - rho * c_piece(params, piece) / 2
            self.space.append((r * r, lo, lo + width))
            self.windows.append(((r + epsp) * (r + epsp),
                                 lo - epsp, lo + width + epsp))
        self.gaps, self.diagonals = [], {}
        for i in range(len(lows)):
            for j in range(i + 1, len(lows)):
                gap = lows[j] - lows[i]
                self.gaps.append((i, j, gap * gap))
                d = gap - epsp
                self.diagonals[i + 1, j + 1] = (d, d * d)

    def dist2(self, ys):
        total = Fraction(0)
        for i, a in self.anchored:
            u, v = ys[i]
            total += (u - a) * (u - a) + v * v
        xs = []
        for inv, members in self.pieces:
            zs = [(ys[i][0] - off, ys[i][1]) for i, off in members]
            mu = inv * sum(z[0] for z in zs)
            mv = inv * sum(z[1] for z in zs)
            for zu, zv in zs:
                total += (zu - mu) * (zu - mu) + (zv - mv) * (zv - mv)
            xs.append((mu, mv))
        return total, xs

    def in_space(self, xs):
        for (u, v), (r2, lo, hi) in zip(xs, self.space):
            if u * u + v * v > r2 or not lo <= u <= hi:
                return False
        for i, j, gap2 in self.gaps:
            du, dv = xs[i][0] - xs[j][0], xs[i][1] - xs[j][1]
            if du * du + dv * dv < gap2:
                return False
        return True

    def in_D_ab(self, xs, a, b):
        du, dv = xs[a - 1][0] - xs[b - 1][0], xs[a - 1][1] - xs[b - 1][1]
        return du * du + dv * dv <= self.diagonals[a, b][1]

    def excised(self, xs):
        return any(_norm2(x) >= r2 or x[0] <= lo or x[0] >= hi
                   for x, (r2, lo, hi) in zip(xs, self.windows))

    def nonbase_projection(self, ys):
        d2, xs = self.dist2(ys)
        if d2 < self.eps2 and not self.excised(xs):
            return xs
        return None


def normal_equations(tube, coeffs):
    """The normal matrix N and the u and v right-hand sides of the
    attack's least squares step in the unknowns (x_c, y_c, a_1..a_p),
    from the (cx, cy, qu, qv) of every component, for `solve_many`; the
    anchors and offsets of the tube's stage come from `FractionTube`."""
    ref = FractionTube(tube.params, tube.P)
    m = 2 + len(ref.pieces)
    N = [[Fraction(0)] * m for _ in range(m)]
    tu, tv = [Fraction(0)] * m, [Fraction(0)] * m

    def add(i, col, target):
        cx, cy, qu, qv = coeffs[i]
        bu, bv = target - qu, -qv
        N[0][0] += cx * cx
        N[0][1] += cx * cy
        N[1][1] += cy * cy
        tu[0] += cx * bu
        tu[1] += cy * bu
        tv[0] += cx * bv
        tv[1] += cy * bv
        if col is not None:
            N[0][col] -= cx
            N[1][col] -= cy
            N[col][col] += 1
            tu[col] -= bu
            tv[col] -= bv

    for i, a in ref.anchored:
        add(i, None, a)
    for j, (_, members) in enumerate(ref.pieces):
        for i, off in members:
            add(i, 2 + j, off)
    for j in range(1, m):
        for i in range(min(j, 2)):
            N[j][i] = N[i][j]
    return N, tu, tv


def fraction_line_step(tube, A, D, B, Db, cur, unit):
    """The attack's parameter step in Fractions, from cur along the image
    A/D + (t - cur) B/Db, with the same (new, A, D) return as
    `geometry._line_step`: the exact quadratic's vertex, clamped to [0,
    1] when unit and to [0, inf) otherwise, then
    Fraction.limit_denominator(1 << 24), and the image moved by the
    step.  It keeps the two branches for a2 = 0 with b1 != 0, which a
    semidefinite pencil never reaches."""
    b1, a2 = (Fraction(*c) for c in tube.pencil(A, D, B, Db))
    lo, hi = Fraction(0), (Fraction(1) if unit else None)
    a1 = b1 - 2 * cur * a2
    if a2 > 0:
        opt = -a1 / (2 * a2)
    elif a1 > 0:
        opt = Fraction(0)
    elif a1 < 0:
        opt = (cur + 1) * 2 if hi is None else Fraction(1)
    else:
        opt = cur
    if opt < lo:
        opt = lo
    elif hi is not None and opt > hi:
        opt = hi
    new = opt.limit_denominator(1 << 24)
    if new != cur:
        step = new - cur
        f, g = step.denominator * Db, step.numerator * D
        A = [(p[0] * f + g * b[0], p[1] * f + g * b[1])
             for p, b in zip(A, B)]
        D *= f
    return new, A, D


def fraction_slide(ref, ys):
    """The excision slide in Fractions on a `FractionTube`, for the
    Fraction points ys of a translation-free image inside the tube: 0
    when the projection is clear of the excision regions, else the
    middle s of the shifts that move every projection into its window,
    when the image shifted by (s, 0) stays inside the tube with its
    projection clear; None otherwise."""
    _, xs = ref.dist2(ys)
    if not ref.excised(xs):
        return Fraction(0)
    lo = max(w_lo - u for (u, _), (_, w_lo, _) in zip(xs, ref.windows))
    hi = min(w_hi - u for (u, _), (_, _, w_hi) in zip(xs, ref.windows))
    if lo >= hi:
        return None
    s = (lo + hi) / 2
    if ref.nonbase_projection([(u + s, v) for u, v in ys]) is None:
        return None
    return s
