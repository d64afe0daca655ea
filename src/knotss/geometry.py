"""Exact rational geometry of the clustered segment configurations:
parameter fixtures, the standard embeddings between partition stages,
tube projections, the excision and deep-diagonal regions, sampling
harnesses for the geometric collapse lemmas, and the witness attack
used to certify the zero facts consumed by the chain ledger.

Each stage P is compiled once under params into a Tube, which holds
one integer form of each constant: its anchors and offsets over one
denominator, its space windows, radii and gaps, its diagonal bounds and
its excision windows over another.  The lemma harnesses build one Tube
per stage and sample, embed and test on its constants; each random
draw is one exact affine map of one randrange (Draw).

All arithmetic is exact, with no tolerances, and runs on integers: a
point is (numerators, D), integer (u, v) pairs over one positive D, and
a parameter value (numerator, denominator) in lowest terms; Tube
queries cross-multiply with integer constants.  A Fraction is built
only for layout constants while a Tube compiles, for reports and
witnesses, and in the module functions on Fraction points.
"""

import random
from fractions import Fraction
from math import gcd, lcm

from .errors import VerificationError
from .partgraph import (PGraph, Partition, Record, discrete_partition,
                        is_subdivision, parse_graph)


class Params(Record):
    """Segment lengths c_0..c_{n+1} (summing to 1), scale rho, and the
    tube half-width eps, constrained so that each segment dwarfs the
    total length of everything before it.  edges[k] = c_0 + ... +
    c_{k-1} places every number on [0, 1]; it is derived, so it takes
    no part in equality, hash or repr."""
    __slots__ = ("n", "rho", "eps", "c", "edges")
    _fields = ("n", "rho", "eps", "c")

    def __init__(self, n, rho, eps, c):
        c = tuple(Fraction(x) for x in c)
        edges = [Fraction(0)]
        for x in c:
            edges.append(edges[-1] + x)
        self._set(n, Fraction(rho), Fraction(eps), c, tuple(edges))
        self.validate()

    def validate(self):
        if len(self.c) != self.n + 2:
            raise ValueError("need n+2 segment lengths")
        if self.edges[-1] != 1:
            raise ValueError("segment lengths must sum to 1")
        if not (0 < self.rho < 1):
            raise ValueError("rho must lie in (0,1)")
        if not (0 < 100 * self.eps / self.rho < self.c[0]):
            raise ValueError("eps too large for c_0")
        for i in range(1, self.n + 2):
            if not 100 * (self.eps / self.rho + self.edges[i]) < self.c[i]:
                raise ValueError("growth condition fails at c_%d" % i)


def default_params(n):
    """The fixture c_i = K 101^i with K normalizing the sum; satisfies
    the growth conditions with a factor-three margin."""
    K = Fraction(100, 101 ** (n + 2) - 1)
    c = tuple(K * 101 ** i for i in range(n + 2))
    rho = Fraction(1, 2)
    return Params(n=n, rho=rho, eps=rho * K / 300, c=c)


# ---------------------------------------------------------------------------
# stage layout: a piece, or a single number k as (k,), covers
# [edges[first], edges[last + 1]] of [0, 1].  Since the c sum to 1, every
# center, window and gap is rho times a difference of midpoints.


def eps_P(params, P):
    return params.eps / 8 ** (params.n - P.num_internal)


def c_piece(params, piece):
    return params.edges[piece[-1] + 1] - params.edges[piece[0]]


def mid(params, piece):
    return (params.edges[piece[0]] + params.edges[piece[-1] + 1]) / 2


def space_window(params, piece):
    """(lo, hi) bounding the first coordinate of the piece's center in
    the configuration space: lo is its center when it sits leftmost,
    anchored at -1, and hi when it sits rightmost, anchored at 1."""
    m = params.rho * mid(params, piece)
    return -1 + m, 1 - params.rho + m


# ---------------------------------------------------------------------------
# 2-vector and point helpers; a point is (numerators, D)


def _num(c, d):
    """The numerator of the rational c over d, a denominator multiple."""
    return c.numerator * (d // c.denominator)


def _point(ys):
    """Fraction (u, v) pairs as a point over their denominators' lcm."""
    D = lcm(*(c.denominator for p in ys for c in p))
    return [(_num(u, D), _num(v, D)) for u, v in ys], D


def _fractions(xs):
    X, D = xs
    return [(Fraction(u, D), Fraction(v, D)) for u, v in X]


def _rebase(xs, d):
    """The point xs over lcm(D, d)."""
    X, D = xs
    M = lcm(D, d)
    k = M // D
    return [(u * k, v * k) for u, v in X], M


def _less(p, q):
    """p < q for rationals given as (numerator, positive denominator)."""
    return p[0] * q[1] < q[0] * p[1]


# ---------------------------------------------------------------------------
# embeddings


def _piece_map(P, Q):
    """Internal Q-piece position -> position of the containing P-piece,
    in order of the Q-pieces."""
    qp, pp = Q.pieces(), P.pieces()
    out = {}
    for qpos in range(1, len(qp) - 1):
        beta = qp[qpos]
        for ppos, piece in enumerate(pp):
            if piece[0] <= beta[0] and beta[-1] <= piece[-1]:
                out[qpos] = ppos
                break
        else:
            raise VerificationError("piece %r of %s is not covered by %s"
                                    % (beta, Q, P))
    return out


def e_embed(params, P, Q, xs):
    """The standard embedding from the configuration coordinates of the
    coarser partition P to those of the finer Q: each P-piece carries a
    segment of length rho*c(piece) split left to right among the
    Q-pieces it contains; the output lists the centers at the internal
    Q-pieces.  The extreme P-pieces are anchored at -1 and 1."""
    if P.n != Q.n or not (P == Q or is_subdivision(P, Q)):
        raise ValueError("Q must refine P")
    if len(xs) != P.num_internal:
        raise ValueError("coordinate count mismatch")
    p_pieces, q_pieces = P.pieces(), Q.pieces()
    out = []
    for qpos, ppos in _piece_map(P, Q).items():
        beta, piece = q_pieces[qpos], p_pieces[ppos]
        if 0 < ppos < len(p_pieces) - 1:
            off = params.rho * (mid(params, beta) - mid(params, piece))
            out.append((xs[ppos - 1][0] + off, xs[ppos - 1][1]))
        else:
            out.append((space_window(params, beta)[ppos > 0], Fraction(0)))
    return out


def anchor_centers(params, P):
    """Centers of the numbers lying in the extreme pieces (constants):
    each sits at its own window's end on the side of its anchor."""
    tube = Tube(params, P)
    return {i + 1: (Fraction(a, tube.T), Fraction(0))
            for i, a in tube.anchored}


# ---------------------------------------------------------------------------
# the compiled stage


class Tube:
    """The tube of one stage P under params, compiled once; numbers by
    index k - 1, internal pieces by position - 1.  Over T, the lcm of
    their denominators: anchored holds the anchored numbers with the
    first coordinates of their anchors, pieces per internal piece L /
    size, for L the lcm of the sizes above 1, and its members'
    u-offsets; together the embedding e_P.  Over one denominator G:
    space and windows, (r, lo, hi) per internal piece, the radius and
    first-coordinate window of the configuration space and of the
    excision region (widened by eps = eps_P); gaps, (i, j, gap), the
    least distance of two centers; diagonals, d_ab = gap - eps_P per
    positions a < b.  eps2 is eps_P^2 as (numerator, denominator).
    draws holds per piece the Draw of a first coordinate in the middle
    three quarters of its window and its factor to S, the draws' lcm.
    A query cross-multiplies a point (X, E) of any E."""

    def __init__(self, params, P):
        self.params, self.P = params, P
        rho = params.rho
        pieces = P.pieces()
        self.n = n = P.n
        # every window is 2 - rho wide, and an anchor, an offset or a gap
        # is a difference of window ends
        width = 2 - rho
        margin = width / 8
        low = {k: space_window(params, (k,))[0] for k in range(1, n + 1)}
        # (k - 1, anchor u); anchors sit at v = 0
        anchored = ([(k - 1, low[k]) for k in pieces[0][1:]]
                    + [(k - 1, low[k] + width) for k in pieces[-1][:-1]])
        self.epsp = epsp = eps_P(params, P)
        offsets, space, draws = [], [], []
        for piece in pieces[1:-1]:
            lo = low[piece[0]] if len(piece) == 1 else \
                space_window(params, piece)[0]
            offsets.append([(k - 1, low[k] - lo) for k in piece])
            r = 1 - rho * c_piece(params, piece) / 2
            space.append((r, lo, lo + width))
            draws.append(Draw(lo + margin, lo + width - margin))
        self.G = G = lcm(epsp.denominator,
                         *(c.denominator for s in space for c in s))
        self.eps = e = _num(epsp, G)
        self.eps2 = (e * e, G * G)
        self.space = [tuple(_num(c, G) for c in s) for s in space]
        self.windows = [(r + e, lo - e, hi + e) for r, lo, hi in self.space]
        self.gaps, self.diagonals = [], {}
        for i, (_, lo, _) in enumerate(self.space):
            for j in range(i + 1, len(space)):
                gap = self.space[j][1] - lo
                self.gaps.append((i, j, gap))
                self.diagonals[i + 1, j + 1] = gap - e
        self.S = S = lcm(_TRANSVERSE.d, *(d.d for d in draws))
        self.draws = [(d, S // d.d) for d in draws]
        self.T = T = lcm(*(a.denominator for _, a in anchored),
                         *(off.denominator for members in offsets
                           for _, off in members))
        self.L = L = lcm(*(len(members) for members in offsets
                           if len(members) > 1))
        self.anchored = [(i, _num(a, T)) for i, a in anchored]
        # (L / size, [(k - 1, u-offset over T)]) per internal piece
        self.pieces = [(L // len(members),
                        [(i, _num(off, T)) for i, off in members])
                       for members in offsets]

    def e_P(self, xs):
        """The embedding of xs = (X, E) into the discrete stage, one
        center per number 1..n over lcm(E, T): an anchored number at its
        anchor, any other at its piece's center moved by its u-offset."""
        X, M = _rebase(xs, self.T)
        t = M // self.T
        out = [None] * self.n
        for i, a in self.anchored:
            out[i] = (a * t, 0)
        for (u, v), (_, members) in zip(X, self.pieces):
            for i, off in members:
                out[i] = (u + off * t, v)
        return out, M

    def in_space(self, xs):
        """Membership of xs = (X, E) in the exact clustered configuration
        space, each side of every test multiplied by G E."""
        X, E = xs
        G = self.G
        for (u, v), (r, lo, hi) in zip(X, self.space):
            u, v, r = u * G, v * G, r * E
            if u * u + v * v > r * r or not lo * E <= u <= hi * E:
                return False
        for i, j, gap in self.gaps:
            du, dv = (X[i][0] - X[j][0]) * G, (X[i][1] - X[j][1]) * G
            if du * du + dv * dv < gap * gap * E * E:
                return False
        return True

    def in_D_ab(self, xs, a, b):
        """xs = (X, E) lies in the deep diagonal region of the internal
        pieces at positions a < b."""
        X, E = xs
        d = self.diagonals[a, b] * E
        du, dv = ((p - q) * self.G for p, q in zip(X[a - 1], X[b - 1]))
        return du * du + dv * dv <= d * d

    def sample_space_point(self, rng):
        """A point of the configuration space over S, sampled inside the
        first-coordinate windows with small transverse jitter; up to 50
        draws."""
        S, t = self.S, self.S // _TRANSVERSE.d
        for _ in range(50):
            xs = [(draw(rng) * k, _TRANSVERSE(rng) * t)
                  for draw, k in self.draws], S
            if self.in_space(xs):
                return xs
        raise RuntimeError("could not sample the configuration space")

    def dist2(self, ys):
        """Exact squared distance from ys = (A, D) to the embedded space as
        (numerator, denominator), and the projection over D T L: per
        piece of m members, the mean of z = A T - offset D, whose spread
        sum |z|^2 - |sum z|^2 / m is the piece's distance over (D T)^2.
        Every sum is multiplied by L, so that 1/m is the integer L/m."""
        A, D = ys
        T = self.T
        total = cent = 0  # the plain sum, and the pieces' centring terms
        for i, a in self.anchored:
            u, v = A[i]
            u, v = u * T - a * D, v * T
            total += u * u + v * v
        X = []
        for w, members in self.pieces:
            zu = zv = 0
            for i, off in members:
                u, v = A[i]
                u, v = u * T - off * D, v * T
                zu += u
                zv += v
                total += u * u + v * v
            cent += w * (zu * zu + zv * zv)
            X.append((w * zu, w * zv))
        L = self.L
        return (L * total - cent, D * D * T * T * L), (X, D * T * L)

    def pencil(self, A, D, B, Db):
        """(b1, a2), each (numerator, positive denominator), with
        dist2(A/D + t B/Db) = dist2(A/D) + b1 t + a2 t^2 for the integer
        point lists A and B over D, Db > 0.  An anchored number adds
        2<A/D - anchor, B/Db> and |B/Db|^2, a piece the same centred on
        its members' mean as in dist2, with z = A/D - offset over D T
        (offsets from A only) and w = B/Db over Db: a1 = b1/2 sits over
        D T Db L and a2 over Db^2 L.  A zero coordinate of B adds no
        product, and a piece where B is 0 adds nothing."""
        T = self.T
        a1 = a2 = 0  # plain sums, multiplied by L below
        c1 = c2 = 0  # the pieces' centring terms, already times L
        for i, a in self.anchored:
            (zu, zv), (wu, wv) = A[i], B[i]
            if wu:
                a1 += (zu * T - a * D) * wu
                a2 += wu * wu
            if wv:
                a1 += zv * T * wv
                a2 += wv * wv
        for w, members in self.pieces:
            if len(members) == 1 or not any(B[i][0] or B[i][1]
                                            for i, _ in members):
                continue
            zu = zv = wu = wv = 0
            for i, off in members:
                (au, av), (bu, bv) = A[i], B[i]
                au = au * T - off * D
                av *= T
                zu += au
                zv += av
                if bu:
                    wu += bu
                    a1 += au * bu
                    a2 += bu * bu
                if bv:
                    wv += bv
                    a1 += av * bv
                    a2 += bv * bv
            c1 += w * (zu * wu + zv * wv)
            c2 += w * (wu * wu + wv * wv)
        L = self.L
        return ((2 * (L * a1 - c1), D * T * Db * L),
                (L * a2 - c2, Db * Db * L))

    def excised(self, xs):
        """in_E at the projection xs = (X, E): an internal piece near the
        outer sphere of its excision window, or beyond its
        first-coordinate window on either side."""
        X, E = xs
        G = self.G
        for (u, v), (r, lo, hi) in zip(X, self.windows):
            u, v, r = u * G, v * G, r * E
            if u * u + v * v >= r * r or u <= lo * E or u >= hi * E:
                return True
        return False

    def nonbase_projection(self, ys):
        """The projection of ys = (A, D) when ys represents a
        non-basepoint of the collapsed tube (inside the tube, projection
        clear of every excision region), else None."""
        d2, xs = self.dist2(ys)
        if _less(d2, self.eps2) and not self.excised(xs):
            return xs
        return None


def tube_dist2(params, P, ys):
    """Exact squared distance from the Fraction points ys to the embedded
    configuration space, with the projection coordinates."""
    d2, xs = Tube(params, P).dist2(_point(ys))
    return Fraction(*d2), _fractions(xs)


def project_mean(params, P, ys):
    """Closed form for the nearest configuration: per internal piece,
    the mean of the member positions with their offsets subtracted."""
    return _fractions(Tube(params, P).dist2(_point(ys))[1])


def in_E(params, P, xs):
    """The excision region at the Fraction projection coordinates xs."""
    return Tube(params, P).excised(_point(xs))


# ---------------------------------------------------------------------------
# random rational sampling


class Draw:
    """lo + (hi - lo) k / 2^12 for a uniform k in 0..2^12, compiled once
    into the exact affine map (a + b k) / d; a call gives the numerator
    over d."""

    def __init__(self, lo, hi):
        # ints and Fractions alike have a numerator and a denominator
        d = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (d // lo.denominator)
        b = hi.numerator * (d // hi.denominator) - a
        self.a, self.b, self.d = a << 12, b, d << 12

    def __call__(self, rng):
        return self.a + self.b * rng.randrange((1 << 12) + 1)

    def pair(self, rng):
        """A draw as (numerator, denominator) in lowest terms."""
        n = self(rng)
        g = gcd(n, self.d)
        return n // g, self.d // g


_TRANSVERSE = Draw(Fraction(-1, 100), Fraction(1, 100))
_UNIT = Draw(-1, 1)
_UNIT_INTERVAL = Draw(0, 1)


def jitter(rng, ys, scale):
    """Perturb each coordinate of the point ys so the total norm stays
    below scale."""
    bound = Fraction(scale) / (2 * len(ys[0]))
    draw = Draw(-bound, bound)
    Y, M = _rebase(ys, draw.d)
    t = M // draw.d
    return [(u + draw(rng) * t, v + draw(rng) * t) for u, v in Y], M


def _near_tube_sample(tube, rng):
    """Point at controlled distance from the tube: embed a space point
    and jitter at scales straddling the tube width."""
    ys = tube.e_P(tube.sample_space_point(rng))
    scale = tube.epsp * rng.choice(
        (Fraction(1, 8), Fraction(1, 2), Fraction(7, 8), Fraction(9, 8), 4))
    return jitter(rng, ys, scale)


def _excised_sample(tube, rng):
    """Tube point whose projection sits inside an excision region: push
    one piece past a first-coordinate window before embedding."""
    xs = tube.sample_space_point(rng)
    pos = rng.randrange(1, len(tube.pieces) + 1)
    _, lo, hi = tube.space[pos - 1]
    bad = lo - 2 * tube.eps if rng.randrange(2) else hi + 2 * tube.eps
    X, M = _rebase(xs, tube.G)
    X[pos - 1] = (bad * (M // tube.G), X[pos - 1][1])
    return jitter(rng, tube.e_P((X, M)),
                  tube.epsp * rng.choice((Fraction(1, 2), Fraction(9, 8))))


def _diagonal_sample(tube, rng):
    """Tube point whose projection sits deep inside a diagonal region
    of a random pair of internal pieces."""
    m = len(tube.pieces) + 1
    a = rng.randrange(1, m - 1)
    b = rng.randrange(a + 1, m)
    xs = tube.sample_space_point(rng)
    close = Draw(0, Fraction(3, 4))  # a share of d_ab: over G close.d
    X, M = _rebase(xs, tube.G * close.d)
    X[b - 1] = (X[a - 1][0] + tube.diagonals[a, b] * close(rng)
                * (M // (tube.G * close.d)), X[a - 1][1])
    return jitter(rng, tube.e_P((X, M)),
                  tube.epsp * rng.choice((Fraction(1, 2), Fraction(9, 8))))


# ---------------------------------------------------------------------------
# witness attack: exact alternating least squares


def _schur_solve(s00, s01, s11, rhs):
    """The (x_c, y_c) part of the solution solve_many picks for N z = t,
    per right-hand side, from the Schur complement S = (s00 s01; s01
    s11) left once the piece unknowns are eliminated, as the (x, y)
    numerators of each over one positive M, the lcm of the Cramer
    determinants; None when a singular system is inconsistent.  rhs
    holds per right-hand side the integer (r0, r1) and per piece (sum
    cx, sum cy, sum b); a common positive scale of the equations moves
    neither x, y nor N's kernel.  Cramer's rule when S is invertible.
    Otherwise solve_many zeroes the coordinates where the echelon basis
    of N's kernel, (k, a_j = (sum cx k_0 + sum cy k_1) / size_j) for k
    in ker S, is last nonzero; each zero (x = 0, y = 0 or a_j = 0) is an
    equation sum cx x + sum cy y = sum b, solved with S's own equation
    (rank 1) or the next independent zero (S = 0)."""
    det = s00 * s11 - s01 * s01
    if det:
        out = [(r0 * s11 - s01 * r1, s00 * r1 - s01 * r0, det)
               for r0, r1, _ in rhs]
    else:
        out = []
        for r0, r1, pieces in rhs:
            if (s00 * r1 != s01 * r0 or s01 * r1 != s11 * r0
                    or not (s00 or s11) and (r0 or r1)):
                return None
            # the equations of the coordinates a zero may fall on, last first
            eqs = [p for p in reversed(pieces) if p[0] or p[1]]
            eqs += [(0, 1, 0), (1, 0, 0)]
            a, b, e = ((s00, s01, r0) if s00 else (0, s11, r1) if s11
                       else eqs.pop(0))
            c, d, f = next(q for q in eqs if a * q[1] != b * q[0])
            out.append((e * d - b * f, a * f - e * c, a * d - b * c))
    M = lcm(*(m for _, _, m in out))
    return [(x * (M // m), y * (M // m)) for x, y, m in out], M


def _ls_step(tube, rows, den):
    """One exact least squares step for the configuration (x, y) at
    fixed parameters, from the (cx, cy, qu, qv) of every component as
    integer numerators rows over den (TermRows): (X, Y), E, x and y over
    the lcm of their coordinates' reduced denominators.  Number k asks
    cx_k x_c + cy_k y_c - a_(piece of k) = offset_k - q_k in an internal
    piece, and cx_k x_c + cy_k y_c = anchor_k - q_k when anchored; the
    a_j, a diagonal block of the shared normal matrix N, are eliminated
    and the 2x2 Schur complement S is solved (_schur_solve).  Every
    equation is multiplied by K = den T and a_j replaced by K a_j, and S
    and r by L, so that 1/size_j is the integer L/size_j."""
    T = tube.T
    s00 = s01 = s11 = ru0 = ru1 = rv0 = rv1 = 0
    sums = []  # per piece: (L / size or 0, sum ex, sum ey, sum bu, sum bv)
    for w, group in [(None, tube.anchored)] + tube.pieces:
        # a single-member a_j absorbs its one equation: nothing reaches S
        alone = w is not None and len(group) == 1
        ex = ey = eu = ev = 0
        for i, target in group:
            cx, cy, qu, qv = rows[i]
            cx *= T
            cy *= T
            bu, bv = target * den - qu * T, -qv * T
            if w is not None:
                ex += cx
                ey += cy
                eu += bu
                ev += bv
            if alone:
                continue
            if cx:
                s00 += cx * cx
                ru0 += cx * bu
                rv0 += cx * bv
                if cy:
                    s01 += cx * cy
            if cy:
                s11 += cy * cy
                ru1 += cy * bu
                rv1 += cy * bv
        if w is not None:
            sums.append((0 if alone else w, ex, ey, eu, ev))
    L = tube.L
    s00, s01, s11, ru0, ru1, rv0, rv1 = (
        L * v for v in (s00, s01, s11, ru0, ru1, rv0, rv1))
    for w, ex, ey, eu, ev in sums:
        if not w:
            continue
        if ex:
            s00 -= w * ex * ex
            ru0 -= w * ex * eu
            rv0 -= w * ex * ev
        if ey:
            s11 -= w * ey * ey
            ru1 -= w * ey * eu
            rv1 -= w * ey * ev
            if ex:
                s01 -= w * ex * ey
    solved = _schur_solve(s00, s01, s11,
                          [(ru0, ru1, [e[1:4] for e in sums]),
                           (rv0, rv1, [e[1:3] + e[4:] for e in sums])])
    if solved is None:  # normal equations are always consistent
        raise VerificationError(
            "inconsistent normal equations for the coefficient rows %s over %d"
            % (rows, den))
    ((xu, yu), (xv, yv)), M = solved
    g = gcd(M, xu, yu, xv, yv)
    return ((xu // g, xv // g), (yu // g, yv // g)), M // g


def _image(rows, X, Y, E):
    """Numerators of the image of x = X/E, y = Y/E under coefficient
    numerators rows over den: the image sits over den E."""
    return [(cx * X[0] + cy * Y[0] + qu * E, cx * X[1] + cy * Y[1] + qv * E)
            for cx, cy, qu, qv in rows]


class TermRows:
    """A map expression compiled once for the attack: (slot, c Dp, mask)
    per monomial of each coefficient, slot its place in the flattened
    (cx, cy, qu, qv) of every component, Dp the lcm of the coefficients'
    denominators, bit j of mask set when the monomial holds names[j]."""

    def __init__(self, expr):
        self.names = names = sorted(expr.names())
        bit = {nm: 1 << j for j, nm in enumerate(names)}
        self.dp = dp = lcm(*(c.denominator for comp in expr.comps
                             for p in comp for c in p.terms.values()))
        self.size = 4 * expr.n
        self.monomials = [(4 * i + k, c.numerator * (dp // c.denominator),
                           sum(bit[x] for x in m))
                          for i, comp in enumerate(expr.comps)
                          for k, p in enumerate(comp)
                          for m, c in p.terms.items()]

    def __call__(self, values, name=None):
        """(rows, den): the coefficients (cx, cy, qu, qv) at values as
        integer numerators over den = Dp prod d_x, values[x] = (n_x, d_x)
        in lowest terms; a monomial m weighs prod_{x in m} n_x prod_{x
        not in m} d_x.  With name, the same for the derivative along
        name, over den / d_name: the image is affine in each parameter,
        so at name = t it is the image at values plus (t - values[name])
        times the image under these rows."""
        w = [1]  # the weight of each mask, one name at a time
        for nm in self.names:
            if nm == name:  # n = d = 1, and monomials without name drop
                w = [0] * len(w) + w
            else:
                n, d = values[nm]
                w = [a * d for a in w] + [a * n for a in w]
        out = [0] * self.size
        for i, c, m in self.monomials:
            out[i] += c * w[m]
        den = self.dp * (w[1 << self.names.index(name)] if name else w[0])
        return [out[i:i + 4] for i in range(0, self.size, 4)], den


def _limit(n, d):
    """n / d (d > 0) in lowest terms as Fraction.limit_denominator(1 <<
    24) caps it: the closer of the last convergent p1 / q1 within 2^24
    and the semiconvergent past it, p1 / q1 on a tie."""
    g, N = gcd(n, d), 1 << 24
    n, d = n // g, d // g
    if d <= N:
        return n, d
    p0, q0, p1, q1, m, e = 0, 1, 1, 0, n, d
    while True:
        a = m // e
        q2 = q0 + a * q1
        if q2 > N:
            break
        p0, q0, p1, q1, m, e = p1, q1, p0 + a * p1, q2, e, m - a * e
    k = (N - q0) // q1
    # the candidates lie 1 / (q1 (q0 + k q1)) apart, p1 / q1 at e / (q1 d)
    if 2 * e * (q0 + k * q1) <= d:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _line_step(tube, A, D, B, Db, cur, unit):
    """The step from cur = (n, d) along the image A/D + (t - cur) B/Db,
    as (new, A, D) with the image moved to new: the vertex of the
    Tube.pencil quadratic (cur when a2 = b1 = 0), clamped to [0, 1] if
    unit else to [0, inf), capped by _limit.  None when a2 = 0 but b1 !=
    0, which Cauchy-Schwarz rules out for the semidefinite tube form."""
    (bn, bd), (an, ad) = tube.pencil(A, D, B, Db)
    n, d = cur
    if an:  # the vertex cur - b1 / (2 a2)
        n, d = n * 2 * an * bd - bn * ad * d, 2 * an * bd * d
    elif bn:
        return None
    n = max(n, 0)
    new = _limit(min(n, d) if unit else n, d)
    if new != cur:
        sn, sd = new[0] * cur[1] - cur[0] * new[1], new[1] * cur[1]
        g = gcd(sn, sd)  # the step new - cur in lowest terms
        f, g = sd // g * Db, sn // g * D
        A = [(p[0] * f + g * b[0], p[1] * f + g * b[1]) for p, b in zip(A, B)]
        D *= f
    return new, A, D


def attack_term(tube, term, rng, restarts=200):
    """Search for a non-basepoint witness of a ledger term by exact
    alternating minimization of the squared tube distance over the
    configuration (x, y) and the bound parameters, three rounds per
    restart, on tube, the compiled Tube of the term's stage.  Each
    parameter, (numerator, denominator) in lowest terms, takes a
    _line_step, over [0, inf) for s-names and [0, 1] for the others.

    A witness is an exact rational input whose image lies inside the
    tube with projection clear of every excision region, after the
    slide _try_escape_excision finds; finding one disproves the zero
    fact for the term.  Fractions are built only for the report."""
    if restarts < 1:
        raise ValueError("the attack needs at least one restart")
    if tube.P != term.label.partition:
        raise ValueError("the tube is not compiled for the term's stage")
    expr, free = term.expr, _translation_free(term.expr)
    coefficients = TermRows(expr)
    best = witness = None
    scale_hint = tube.params.rho * min(tube.params.c)
    spans = [Draw(0, scale_hint * k) for k in (1, 4, 16, 64)]
    ranges = [(nm, not nm.startswith("s")) for nm in coefficients.names]
    for trial in range(restarts):
        values = {nm: (_UNIT_INTERVAL if unit else rng.choice(spans)).pair(rng)
                  for nm, unit in ranges}
        for _ in range(3):
            rows, den = coefficients(values)
            (X, Y), E = _ls_step(tube, rows, den)
            A, D = _image(rows, X, Y, E), den * E
            for nm, unit in ranges:
                # the image is affine in any single parameter, A/D + (t -
                # cur) B/Db at nm = t, so dist^2 is an exact quadratic in t
                drows, dden = coefficients(values, nm)
                step = _line_step(tube, A, D, _image(drows, X, Y, E),
                                  dden * E, values[nm], unit)
                if step is None:
                    raise VerificationError("a2 = 0 but b1 != 0: %s on %s, %s"
                                            % (expr.text(), term.label, nm))
                values[nm], A, D = step
        # A / D is the image at the final (x, y) and values
        d2, xs = tube.dist2((A, D))
        if best is None or _less(d2, best):
            best = d2
        if _less(d2, tube.eps2):
            slide = _try_escape_excision(tube, free, (A, D), d2, xs)
            if slide is not None:
                s = Fraction(*slide)
                witness = {"x": [str(Fraction(X[0], E) + s),
                                 str(Fraction(X[1], E))],
                           "y": [str(Fraction(Y[0], E) + s),
                                 str(Fraction(Y[1], E))],
                           "params": {k: str(Fraction(*v))
                                      for k, v in values.items()},
                           "trial": trial}
                break
    return {"expr": expr.text(), "label": str(term.label),
            "restarts": restarts, "witness": witness,
            "best_dist2": str(Fraction(*best)),
            "eps2": str(Fraction(*tube.eps2))}


def _translation_free(expr):
    """True when every component is an affine combination of x and y,
    so a common shift of x and y shifts the whole image."""
    return all((cx + cy).terms == {(): 1} for cx, cy, _, _ in expr.comps)


def _try_escape_excision(tube, free, ys, d2, xs):
    """The slide s along the first coordinate, as (numerator, positive
    denominator), that makes a witness of an input (x, y) whose image ys
    = (A, D) lies inside the tube at squared distance d2 = (numerator,
    denominator) with projection xs = (X, E): (0, 1) when that projection
    already avoids the excision regions, None when no slide is tried or
    works.  Only a translation-free map (free) slides, to the middle of
    the allowed windows (lo and hi over G E, s over F = 2 G E): each
    projection moves by s and each piece keeps its spread, so d2 changes
    only at anchored numbers, by s (2 (u - anchor) + s) each."""
    if not tube.excised(xs):
        return 0, 1
    if not free:
        return None
    (X, E), G = xs, tube.G
    lo = max(w_lo * E - u * G for (u, _), (_, w_lo, _) in zip(X, tube.windows))
    hi = min(w_hi * E - u * G for (u, _), (_, _, w_hi) in zip(X, tube.windows))
    if lo >= hi:
        return None
    (A, D), (n, d), T = ys, d2, tube.T
    s, F, DT = lo + hi, 2 * G * E, D * T
    # the sum of u - anchor over D T; d2 plus s (2 z + k s) over d F^2 D T
    z = sum(A[i][0] * T - a * D for i, a in tube.anchored)
    d2 = (n * F * F * DT + s * (2 * z * F + len(tube.anchored) * s * DT)
          * d, d * F * F * DT)
    if _less(d2, tube.eps2) and not tube.excised(
            ([(2 * G * u + s, 2 * G * v) for u, v in X], F)):
        return s, F
    return None


def attack_zero_facts(facts, restarts=200, seed=20260823):
    """Attack every recorded zero fact, on one compiled Tube per stage
    and one (immutable) Params per arity; the table passes when no term
    admits a witness."""
    from .chainledger import parse_term
    if restarts < 1:
        raise ValueError("the attack needs at least one restart")
    terms = [(parse_term(etext, ltext, rec["n"]), rec)
             for (etext, ltext), rec in sorted(facts.table.items())]
    stages = {term.label.partition for term, _ in terms}
    params = {n: default_params(n) for n in {P.n for P in stages}}
    tubes = {P: Tube(params[P.n], P) for P in stages}
    reports, rng = [], random.Random(seed)
    for term, rec in terms:
        rep = attack_term(tubes[term.label.partition], term, rng,
                          restarts=restarts)
        rep["kind"] = rec.get("kind", "")
        reports.append(rep)
    return {"reports": reports,
            "pass": all(r["witness"] is None for r in reports)}


# ---------------------------------------------------------------------------
# lemma harnesses


def check_lemma(name, samples=1000, seed=20260823):
    fn = _LEMMAS.get(name)
    if fn is None:
        raise ValueError("unknown lemma %r" % name)
    return fn(random.Random("%s:%d" % (name, seed)), samples, seed)


def _report(lemma, samples, counterexamples, seed):
    return {"lemma": lemma, "samples": samples, "seed": seed,
            "counterexamples": counterexamples,
            "pass": not counterexamples}


def _refinement_pairs():
    """Strict refinements at four strands (coarse stage, finer stage)."""
    return [(Partition(4, (1, 2, 2, 1)), Partition(4, (1, 2, 1, 1, 1))),
            (Partition(4, (1, 2, 2, 1)), discrete_partition(4)),
            (Partition(4, (2, 2, 1, 1)), discrete_partition(4)),
            (Partition(4, (1, 4, 1)), Partition(4, (1, 2, 2, 1)))]


def _tubes(params, partitions):
    """One compiled tube per distinct partition."""
    return {P: Tube(params, P) for P in set(partitions)}


def _check_diagonal_bound(rng, samples, seed):
    """Basepoints of the finer stage stay basepoints of the coarser
    stage, so the collapse map between the two is well defined."""
    params = default_params(4)
    bad = []
    pairs = _refinement_pairs()
    tubes = _tubes(params, [P for pair in pairs for P in pair])
    for k in range(samples):
        P, Q = pairs[k % len(pairs)]
        src = (P, Q)[k % 2]
        if k % 3 == 0:
            ys = _excised_sample(tubes[src], rng)
        else:
            ys = _near_tube_sample(tubes[src], rng)
        if (tubes[Q].nonbase_projection(ys) is None
                and tubes[P].nonbase_projection(ys) is not None):
            bad.append({"P": str(P), "Q": str(Q),
                        "y": [list(map(str, v)) for v in _fractions(ys)]})
    return _report("diagonal-bound", samples, bad, seed)


def _check_diagonal_incl(rng, samples, seed):
    """A non-basepoint of the finer stage sitting in a deep diagonal
    region maps into the corresponding diagonal region downstream, or
    to the basepoint when the pair merges or touches an extreme
    piece."""
    params = default_params(4)
    bad = []
    pairs = _refinement_pairs()
    tubes = _tubes(params, [P for pair in pairs for P in pair])
    maps = [_piece_map(P, Q) for P, Q in pairs]
    for k in range(samples):
        P, Q = pairs[k % len(pairs)]
        ys = _diagonal_sample(tubes[Q], rng)
        xq = tubes[Q].nonbase_projection(ys)
        if xq is None:
            continue
        where = maps[k % len(pairs)]
        xp = tubes[P].nonbase_projection(ys)
        at_base = xp is None
        for a, b in tubes[Q].diagonals:
            if not tubes[Q].in_D_ab(xq, a, b):
                continue
            pa, pb = where[a], where[b]
            if pa == pb or pa == 0 or pb == P.num_pieces - 1:
                ok = at_base
            else:
                ok = at_base or tubes[P].in_D_ab(xp, pa, pb)
            if not ok:
                bad.append({"P": str(P), "Q": str(Q), "pair": (a, b),
                            "y": [list(map(str, v)) for v in _fractions(ys)]})
    return _report("diagonal-incl", samples, bad, seed)


def _check_collapse0(rng, samples, seed):
    """Non-basepoint tube membership pins every component into its
    refined first-coordinate window and its exact in-piece gaps, up to
    twice the tube width."""
    n = 4
    params = default_params(n)
    rho = params.rho
    bad = []
    parts = [Partition(n, (1, 2, 2, 1)), Partition(n, (2, 2, 1, 1)),
             Partition(n, (1, 4, 1)), Partition(n, (2, 3, 1))]
    ends = (space_window(params, (0,))[0], space_window(params, (n + 1,))[1])
    tubes = _tubes(params, parts)
    numbers = [space_window(params, (k,)) for k in range(1, n + 1)]
    # per stage: (a, b) for each number's window (a = None) and each
    # in-piece gap, and over one B the two ends and the (lo, hi) of each
    # window and gap, widened by twice the tube width
    bounds = {}
    for P, tube in tubes.items():
        e2 = 2 * tube.epsp
        pairs = [(a, b) for piece in P.pieces()
                 for i, a in enumerate(piece) for b in piece[i + 1:]]
        spans = [(lo - e2, hi + e2) for lo, hi in numbers] + [
            (gap - e2, gap + e2) for gap in
            (rho * (mid(params, (b,)) - mid(params, (a,))) for a, b in pairs)]
        nums, B = _point([ends] + spans)
        pairs = [(None, k) for k in range(1, n + 1)] + pairs
        bounds[P] = B, nums[0], list(zip(pairs, nums[1:]))
    for k in range(samples):
        P = parts[k % len(parts)]
        ys = _near_tube_sample(tubes[P], rng)
        if tubes[P].nonbase_projection(ys) is None:
            continue
        (Y, D), (B, (first, last), checks) = ys, bounds[P]
        # the first coordinates of numbers 0..n + 1 over B D
        us = [first * D] + [u * B for u, _ in Y] + [last * D]
        for (a, b), (lo, hi) in checks:
            if not lo * D < us[b] - (0 if a is None else us[a]) < hi * D:
                bad.append({"P": str(P), "k": b, "kind": "window"}
                           if a is None else
                           {"P": str(P), "pair": (a, b), "kind": "gap"})
    return _report("collapse0", samples, bad, seed)


def _condensed_instances():
    """Maps with their stage and the edges whose diagonal regions must
    absorb any tube intersection of the image."""
    from .chainledger import contraction, f_graph, straight
    from .partgraph import delta_graph
    G1 = parse_graph("(1,4)(2,3)", 4)
    G2 = parse_graph("(1,3)(2,4)", 4)
    f1, f2 = f_graph(G1), f_graph(G2)
    dG, _ = delta_graph(3, G1)
    psi = straight(f1, f2.swap_xy(), "t1")
    return [(f1, G1.partition, G1.edges),
            (f2, G2.partition, G2.edges),
            (psi, dG.partition, dG.edges),
            (contraction(psi, dG, dG.edges[0], "s1"),
             dG.partition, dG.edges[1:])]


def _aimed_inputs(tube, gap, rng, names):
    """Configuration aimed at the tube, x and y as numerators over one E:
    y near a window point, x to its right by gap, the in-piece spacing
    of the last two strands."""
    xs, S = tube.sample_space_point(rng)
    base = xs[rng.randrange(len(xs))]
    ep = tube.epsp
    near = Draw(-ep, ep)
    E = lcm(S, near.d, gap.denominator)
    k, m = E // S, E // near.d
    y = (base[0] * k + near(rng) * m, base[1] * k + near(rng) * m)
    x = (y[0] + _num(gap, E) + near(rng) * m, y[1] + near(rng) * m)
    values = {nm: (_UNIT_INTERVAL if nm.startswith("t")
                   else Draw(0, 4 * ep)).pair(rng) for nm in names}
    return x, y, E, values


def _check_condensed_image(rng, samples, seed):
    """Condensed maps, their contractions, and their straightening
    homotopies only meet the tube along the deep diagonal regions of
    their stage graph."""
    params = default_params(4)
    instances = [(TermRows(expr), expr, part, edges)
                 for expr, part, edges in _condensed_instances()]
    tubes = _tubes(params, [part for _, _, part, _ in instances])
    gap = params.rho * (mid(params, (4,)) - mid(params, (3,)))
    bad = []
    for k in range(samples):
        rows, expr, part, edges = instances[k % len(instances)]
        names = rows.names  # draw in sorted name order, not hash order
        if k % 2:
            x, y, E, values = _aimed_inputs(tubes[part], gap, rng, names)
        else:
            x, y = [(_UNIT(rng), _UNIT(rng)) for _ in "xy"]
            E = _UNIT.d
            values = {nm: (_UNIT_INTERVAL if nm.startswith("t")
                           else Draw(0, params.rho)).pair(rng) for nm in names}
        coeffs, den = rows(values)
        xp = tubes[part].nonbase_projection(
            (_image(coeffs, x, y, E), den * E))
        if xp is None:
            continue
        for (a, b) in edges:
            if not tubes[part].in_D_ab(xp, a, b):
                bad.append({"edge": (a, b), "expr": expr.text(),
                            "x": [str(Fraction(c, E)) for c in x],
                            "y": [str(Fraction(c, E)) for c in y]})
    return _report("condensed-image", samples, bad, seed)


def _collapse_case_instances():
    """Terms that must collapse: an edge contracted inside one merged
    piece, and an extreme merge pinning a cluster to an anchor."""
    from .chainledger import Term, WeightSpec, parse_expr
    inside = parse_expr("x;y+(1*s1)v;y+(-1*s1)v;x", 4)
    P_in = Partition(4, (1, 1, 2, 1, 1))
    extreme = parse_expr("y+(1*s1)v;x;y+(-1*s1)v;x", 4)
    P_ex = Partition(4, (2, 1, 1, 1, 1))
    w = WeightSpec(("s1",), ())
    return [Term(inside, w, PGraph(P_in, ())),
            Term(extreme, w, PGraph(P_ex, ()))]


def _power_check_terms():
    """Terms with genuine non-basepoint content; the attack must find
    witnesses for these or it has no teeth."""
    from .chainledger import Term, WeightSpec, parse_expr
    f2 = parse_expr("x;y+(1*s1)v;y+(-1*s1)v;x", 4)
    psi1 = parse_expr("(1-1*t1)x+(1*t1)y+(1*s1)v;(1*t1)x+(1-1*t1)y+(-1*s1)v;"
                      "y+(-1*s1)v;x+(-1*s1)v", 4)
    return [Term(f2, WeightSpec(("s1",), ()),
                 PGraph(discrete_partition(4), ())),
            Term(psi1, WeightSpec(("s1",), ("t1",)),
                 PGraph(Partition(4, (1, 2, 2, 1)), ()))]


def _check_collapse_cases(rng, samples, seed):
    """The two collapse mechanisms behind the zero facts admit no
    witnesses, while the attack does find witnesses for two maps that
    genuinely survive (its power check)."""
    params = default_params(4)
    cases = _collapse_case_instances()
    bad = []
    per = max(1, samples // (2 * len(cases)))
    for term in cases:
        tube = Tube(params, term.label.partition)
        rep = attack_term(tube, term, rng, restarts=per)
        if rep["witness"] is not None:
            bad.append({"kind": "collapse-witness", "detail": rep})
        compiled = TermRows(term.expr)
        for _ in range(per):
            x, y = [(_UNIT(rng), _UNIT(rng)) for _ in "xy"]
            rows, den = compiled({"s1": Draw(0, params.rho).pair(rng)})
            if tube.nonbase_projection(
                    (_image(rows, x, y, _UNIT.d), den * _UNIT.d)) is not None:
                bad.append({"expr": term.expr.text(),
                            "kind": "random-witness"})
    for term in _power_check_terms():
        rep = attack_term(Tube(params, term.label.partition), term, rng,
                          restarts=40)
        if rep["witness"] is None:
            bad.append({"kind": "power-check", "detail": rep})
    return _report("collapse-cases", samples, bad, seed)


def _check_i_contraction(rng, samples, seed):
    """Pulling two adjacent components apart along the first coordinate
    keeps the image inside the diagonal regions of the merged stage."""
    from .chainledger import contraction, f_graph, i_contraction
    from .partgraph import delta_graph
    n = 5
    params = default_params(n)
    G = parse_graph("(1,3)(2,3)(4,5)", n)
    # the split direction matching the merged spacing; the opposite one
    # reverses the first-coordinate order and never meets the tube
    F = i_contraction(contraction(f_graph(G), G, (1, 3), "s1"), 1, "s2", -1)
    rest = PGraph(G.partition, ((2, 3), (4, 5)))
    dg, _ = delta_graph(1, rest)
    part, edges = dg.partition, dg.edges
    bad = []
    tube = Tube(params, part)
    ep = tube.epsp
    # s drawn below rho or rho / 64; near the merged spacing, s1 below
    # twice the tube width and s2 within it of half the in-piece gap
    spans = (Draw(0, params.rho), Draw(0, params.rho / 64))
    half_gap = params.rho * (mid(params, (2,)) - mid(params, (1,))) / 2
    near_s1 = Draw(0, 2 * ep)
    near_s2 = Draw(half_gap - 2 * ep, half_gap + 2 * ep)
    compiled = TermRows(F)
    for k in range(samples):
        x, y = [(_UNIT(rng), _UNIT(rng)) for _ in "xy"]
        E = _UNIT.d
        s1, s2 = (rng.choice(spans).pair(rng) for _ in "12")
        if k % 3 == 0:
            xs, E = tube.sample_space_point(rng)
            x, y = xs[0], xs[-1]
            s1, s2 = near_s1.pair(rng), near_s2.pair(rng)
        rows, den = compiled({"s1": s1, "s2": s2})
        xp = tube.nonbase_projection((_image(rows, x, y, E), den * E))
        if xp is None:
            continue
        for (a, b) in edges:
            if not tube.in_D_ab(xp, a, b):
                bad.append({"edge": (a, b), "s1": str(Fraction(*s1)),
                            "s2": str(Fraction(*s2)),
                            "x": [str(Fraction(c, E)) for c in x],
                            "y": [str(Fraction(c, E)) for c in y]})
    return _report("i-contraction", samples, bad, seed)


# the harnesses by lemma name, in report order
_LEMMAS = {"condensed-image": _check_condensed_image,
           "diagonal-bound": _check_diagonal_bound,
           "diagonal-incl": _check_diagonal_incl,
           "collapse0": _check_collapse0,
           "collapse-cases": _check_collapse_cases,
           "i-contraction": _check_i_contraction}
ALL_LEMMAS = tuple(_LEMMAS)
