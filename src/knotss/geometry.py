"""Exact rational geometry of the clustered segment configurations:
parameter fixtures, the standard embeddings between partition stages,
tube projections, the excision and deep-diagonal regions, sampling
harnesses for the geometric collapse lemmas, and the witness attack
used to certify the zero facts consumed by the chain ledger.

All arithmetic is exact (fractions); there are no tolerances.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import Matrix, VerificationError, solve, solve_many
from .fields import QQ
from .partgraph import PGraph, Partition, discrete_partition, is_subdivision

U = (Fraction(1), Fraction(0))


@dataclass(frozen=True)
class Params:
    """Segment lengths c_0..c_{n+1} (summing to 1), scale rho, and the
    tube half-width eps, constrained so that each segment dwarfs the
    total length of everything before it.  edges[k] = c_0 + ... +
    c_{k-1} places every number on [0, 1]."""
    n: int
    rho: Fraction
    eps: Fraction
    c: tuple
    edges: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", Fraction(self.rho))
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "c", tuple(Fraction(x) for x in self.c))
        edges = [Fraction(0)]
        for x in self.c:
            edges.append(edges[-1] + x)
        object.__setattr__(self, "edges", tuple(edges))
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


def d_ab(params, P, pos_a, pos_b):
    pieces = P.pieces()
    gap = mid(params, pieces[pos_b]) - mid(params, pieces[pos_a])
    return params.rho * abs(gap) - eps_P(params, P)


# ---------------------------------------------------------------------------
# 2-vector helpers


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _scale(c, p):
    return (Fraction(c) * p[0], Fraction(c) * p[1])


def _norm2(p):
    return p[0] * p[0] + p[1] * p[1]


# ---------------------------------------------------------------------------
# embeddings


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
    for qpos in range(1, len(q_pieces) - 1):
        beta = q_pieces[qpos]
        for ppos, piece in enumerate(p_pieces):
            if piece[0] <= beta[0] and beta[-1] <= piece[-1]:
                break
        else:
            raise VerificationError("piece %r of %s is not covered by %s"
                                    % (beta, Q, P))
        if 0 < ppos < len(p_pieces) - 1:
            off = params.rho * (mid(params, beta) - mid(params, piece))
            out.append(_add(xs[ppos - 1], (off, Fraction(0))))
        else:
            out.append((space_window(params, beta)[ppos > 0], Fraction(0)))
    return out


def e_P(params, P, xs):
    """Embedding into the discrete stage: one center per number 1..n."""
    return e_embed(params, P, discrete_partition(P.n), xs)


def anchor_centers(params, P):
    """Centers of the numbers lying in the extreme pieces (constants):
    each sits at its own window's end on the side of its anchor."""
    pieces = P.pieces()
    return {k: (space_window(params, (k,))[side], Fraction(0))
            for side, pos in ((0, 0), (1, len(pieces) - 1))
            for k in pieces[pos] if 1 <= k <= P.n}


def _offsets(params, P):
    """u-offsets of each number inside its internal piece."""
    return {k: params.rho * (mid(params, (k,)) - mid(params, piece))
            for piece in P.pieces()[1:-1] for k in piece}


# ---------------------------------------------------------------------------
# tube projection, two independent routes


def project_mean(params, P, ys):
    """Closed form for the nearest configuration: per internal piece,
    the mean of the member positions with their offsets subtracted."""
    return Tube(params, P).dist2(ys)[1]


def project_pi(params, P, ys):
    """Matrix route: least squares through the normal equations of the
    indicator design matrix, solved by exact elimination."""
    offs = _offsets(params, P)
    pieces = P.pieces()
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


class Tube:
    """The tube of one stage P under params, compiled once for callers
    that query it many times: the anchored numbers with the first
    coordinates of their anchors, the internal pieces with the
    u-offsets of their members, eps_P^2, and the excision window of
    each internal piece.  Numbers are stored by index k - 1."""

    def __init__(self, params, P):
        offs = _offsets(params, P)
        # (k - 1, anchor u); anchors sit at v = 0
        self.anchored = [(k - 1, a[0])
                         for k, a in anchor_centers(params, P).items()]
        # (1 / size, [(k - 1, u-offset)]) per internal piece
        self.pieces = [(Fraction(1, len(piece)),
                        [(k - 1, offs[k]) for k in piece])
                       for piece in P.pieces()[1:-1]]
        epsp = eps_P(params, P)
        self.eps2 = epsp * epsp
        self.windows = [_excision_window(params, P, pos)
                        for pos in range(1, P.num_pieces - 1)]

    def dist2(self, ys):
        """Exact squared distance from ys to the embedded configuration
        space, with the projection coordinates.  The projection of a
        piece is the mean of its members' positions less their offsets,
        so each member's distance to its center is its distance, less
        its offset, to that mean."""
        total = Fraction(0)
        for i, a in self.anchored:
            u, v = ys[i]
            total += (u - a) * (u - a) + v * v
        xs = []
        for inv, members in self.pieces:
            if len(members) == 1:
                i, off = members[0]
                xs.append((ys[i][0] - off, ys[i][1]))
                continue
            zs = [(ys[i][0] - off, ys[i][1]) for i, off in members]
            mu = inv * sum(z[0] for z in zs)
            mv = inv * sum(z[1] for z in zs)
            for zu, zv in zs:
                total += (zu - mu) * (zu - mu) + (zv - mv) * (zv - mv)
            xs.append((mu, mv))
        return total, xs

    def pencil(self, A, B):
        """(a1, a2) with dist2(A + tB) = dist2(A) + a1 t + a2 t^2.  An
        anchored number adds 2<A - anchor, B> and |B|^2; a piece adds
        the same over its members' positions centred on their mean, the
        offsets taken from A only.  Over m members with sums of z = A -
        offset and w = B, the centred sums are sum z.w - (sum z).(sum
        w) / m and sum w.w - |sum w|^2 / m.  A zero coordinate of B adds
        no product, and a piece where B is 0 adds nothing."""
        a1 = a2 = Fraction(0)
        for i, a in self.anchored:
            (zu, zv), (wu, wv) = A[i], B[i]
            if wu:
                a1 += (zu - a) * wu
                a2 += wu * wu
            if wv:
                a1 += zv * wv
                a2 += wv * wv
        for inv, members in self.pieces:
            if len(members) == 1 or not any(B[i][0] or B[i][1]
                                            for i, _ in members):
                continue
            zu = zv = wu = wv = Fraction(0)
            for i, off in members:
                (au, av), (bu, bv) = A[i], B[i]
                au -= off
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
            a1 -= inv * (zu * wu + zv * wv)
            a2 -= inv * (wu * wu + wv * wv)
        return 2 * a1, a2

    def excised(self, xs):
        """in_E at the projection coordinates xs."""
        return any(_excised(x, w) for x, w in zip(xs, self.windows))

    def nonbase_projection(self, ys):
        """The projection coordinates of ys when ys represents a
        non-basepoint of the collapsed tube (inside the tube, projection
        clear of every excision region), else None."""
        d2, xs = self.dist2(ys)
        if d2 < self.eps2 and not self.excised(xs):
            return xs
        return None


def tube_dist2(params, P, ys):
    """Exact squared distance from ys to the embedded configuration
    space, with the projection coordinates."""
    return Tube(params, P).dist2(ys)


# ---------------------------------------------------------------------------
# regions


def _excision_window(params, P, pos):
    """(r^2, lo, hi) at an internal piece: its center is excised when
    |x|^2 >= r^2 or its first coordinate is at most lo or at least hi:
    the space window and the outer sphere, widened by eps_P."""
    epsp = eps_P(params, P)
    piece = P.pieces()[pos]
    r = 1 - params.rho * c_piece(params, piece) / 2 + epsp
    lo, hi = space_window(params, piece)
    return r * r, lo - epsp, hi + epsp


def _excised(x, window):
    r2, lo, hi = window
    return _norm2(x) >= r2 or x[0] <= lo or x[0] >= hi


def in_E_alpha(params, P, xs, pos):
    """Excision region at an internal piece: near the outer sphere, or
    beyond the first-coordinate window on either side."""
    return _excised(xs[pos - 1], _excision_window(params, P, pos))


def in_E(params, P, xs):
    return any(in_E_alpha(params, P, xs, pos)
               for pos in range(1, P.num_pieces - 1))


def in_D_ab(params, P, xs, pos_a, pos_b):
    d = d_ab(params, P, pos_a, pos_b)
    gap2 = _norm2(_sub(xs[pos_a - 1], xs[pos_b - 1]))
    return gap2 <= d * d


def in_space(params, P, xs):
    """Membership in the exact clustered configuration space."""
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
            if _norm2(_sub(xs[a], xs[b])) < gap * gap:
                return False
    return True


def is_nonbasepoint(params, P, ys):
    """A point of the ambient space represents a non-basepoint of the
    collapsed tube iff it lies inside the tube and its projection
    avoids every excision region."""
    return Tube(params, P).nonbase_projection(ys) is not None


# ---------------------------------------------------------------------------
# random rational sampling


def rand_frac(rng, lo, hi, denom=1 << 12):
    lo, hi = Fraction(lo), Fraction(hi)
    return lo + (hi - lo) * Fraction(rng.randrange(denom + 1), denom)


def rand_point(rng, scale=1):
    return (rand_frac(rng, -scale, scale), rand_frac(rng, -scale, scale))


def sample_space_point(params, P, rng, tries=50):
    """A point of the configuration space, sampled inside the
    first-coordinate windows with small transverse jitter."""
    windows = [space_window(params, piece) for piece in P.pieces()[1:-1]]
    for _ in range(tries):
        xs = []
        for lo, hi in windows:
            u0 = lo + (hi - lo) * rand_frac(rng, Fraction(1, 8), Fraction(7, 8))
            xs.append((u0, rand_frac(rng, Fraction(-1, 100), Fraction(1, 100))))
        if in_space(params, P, xs):
            return xs
    raise RuntimeError("could not sample the configuration space")


def jitter(rng, ys, scale):
    """Perturb each coordinate so the total norm stays below scale."""
    bound = Fraction(scale) / (2 * len(ys))
    return [_add(y, (rand_frac(rng, -bound, bound),
                     rand_frac(rng, -bound, bound))) for y in ys]


def _near_tube_sample(params, P, rng):
    """Point at controlled distance from the tube: embed a space point
    and jitter at scales straddling the tube width."""
    xs = sample_space_point(params, P, rng)
    ys = e_P(params, P, xs)
    scale = eps_P(params, P) * rng.choice(
        (Fraction(1, 8), Fraction(1, 2), Fraction(7, 8), Fraction(9, 8), 4))
    return jitter(rng, ys, scale)


def _excised_sample(params, P, rng):
    """Tube point whose projection sits inside an excision region: push
    one piece past a first-coordinate window before embedding."""
    xs = sample_space_point(params, P, rng)
    pos = rng.randrange(1, P.num_pieces - 1)
    epsp = eps_P(params, P)
    lo, hi = space_window(params, P.pieces()[pos])
    bad = lo - 2 * epsp if rng.randrange(2) else hi + 2 * epsp
    xs = list(xs)
    xs[pos - 1] = (bad, xs[pos - 1][1])
    ys = e_P(params, P, xs)
    return jitter(rng, ys, epsp * rng.choice((Fraction(1, 2), Fraction(9, 8))))


def _diagonal_sample(params, P, rng):
    """Tube point whose projection sits deep inside a diagonal region
    of a random pair of internal pieces."""
    m = P.num_pieces - 1
    a = rng.randrange(1, m - 1)
    b = rng.randrange(a + 1, m)
    xs = list(sample_space_point(params, P, rng))
    close = d_ab(params, P, a, b) * rand_frac(rng, 0, Fraction(3, 4))
    xs[b - 1] = _add(xs[a - 1], (close, Fraction(0)))
    ys = e_P(params, P, xs)
    epsp = eps_P(params, P)
    return jitter(rng, ys, epsp * rng.choice((Fraction(1, 2), Fraction(9, 8))))


# ---------------------------------------------------------------------------
# witness attack: exact alternating least squares


def _normal_equations(tube, coeffs):
    """The normal matrix N and the u and v right-hand sides of the least
    squares step in the unknowns (x_c, y_c, a_1..a_p), from the evaluated
    (cx, cy, qu, qv) of every component."""
    m = 2 + len(tube.pieces)
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

    for i, a in tube.anchored:
        add(i, None, a)
    for j, (_, members) in enumerate(tube.pieces):
        for i, off in members:
            add(i, 2 + j, off)
    for j in range(1, m):
        for i in range(min(j, 2)):
            N[j][i] = N[i][j]
    return N, tu, tv


def _schur_solve(s00, s01, s11, rhs):
    """The (x_c, y_c) part of the solution solve_many picks for N z = t,
    for each right-hand side, from the Schur complement S = (s00 s01;
    s01 s11) left once the piece unknowns are eliminated.  rhs holds,
    per right-hand side, the reduced (r0, r1) and, per piece, (sum cx,
    sum cy, sum b) over its members.

    Cramer's rule when S is invertible.  When S has rank 1, N has the one
    kernel vector (k, a_j = (sum cx k_0 + sum cy k_1) / size_j), and
    solve_many sets to 0 the coordinate where it is last nonzero: any
    solution, less the multiple of that vector that zeroes the
    coordinate.  None when S = 0 or a rank-1 system is inconsistent."""
    det = s00 * s11 - s01 * s01
    if det:
        return [((r0 * s11 - s01 * r1) / det, (s00 * r1 - s01 * r0) / det)
                for r0, r1, _ in rhs]
    if not (s00 or s11):
        return None
    # k spans the kernel of S; s00 = 0 forces s01 = 0
    k0, k1 = (-s01, s00) if s00 else (s11, -s01)
    out = []
    for r0, r1, pieces in rhs:
        if s00:
            x, y = r0 / s00, Fraction(0)
            if s01 * x != r1:
                return None
        else:
            x, y = Fraction(0), r1 / s11
            if r0:
                return None
        for ex, ey, e in reversed(pieces):
            ka = ex * k0 + ey * k1
            if ka:
                c = (ex * x + ey * y - e) / ka  # a_j over its kernel entry
                break
        else:
            c = y / k1 if k1 else x / k0
        out.append((x - c * k0, y - c * k1))
    return out


def _ls_step(tube, coeffs):
    """One exact least squares step for the configuration (x, y) at
    fixed parameters, from the evaluated (cx, cy, qu, qv) of every
    component (MapExpr.coefficients).  Unknowns (x_c, y_c, a_1..a_p):
    number k asks cx_k x_c + cy_k y_c - a_(piece of k) = offset_k - q_k
    when it lies in an internal piece, and cx_k x_c + cy_k y_c =
    anchor_k - q_k when it is anchored.  Both coordinates share the
    normal matrix N.  The a_j form a diagonal block of N, holding the
    size of piece j, so they are eliminated and the 2x2 Schur complement
    S is solved (_schur_solve); only S = 0 is left to solve_many."""
    s00 = s01 = s11 = ru0 = ru1 = rv0 = rv1 = Fraction(0)
    sums = []  # per piece: (sum cx, sum cy, sum bu, sum bv)
    for inv, group in [(None, tube.anchored)] + tube.pieces:
        if len(group) == 1 and inv is not None:
            # a_j absorbs its one equation: nothing reaches S
            i, off = group[0]
            cx, cy, qu, qv = coeffs[i]
            sums.append((cx, cy, off - qu, -qv))
            continue
        ex = ey = eu = ev = Fraction(0)
        for i, target in group:
            cx, cy, qu, qv = coeffs[i]
            bu = target - qu
            if cx:
                s00 += cx * cx
                ru0 += cx * bu
                ex += cx
                if cy:
                    s01 += cx * cy
                if qv:
                    rv0 -= cx * qv
            if cy:
                s11 += cy * cy
                ru1 += cy * bu
                ey += cy
                if qv:
                    rv1 -= cy * qv
            if inv is not None:
                eu += bu
                ev -= qv
        if inv is None:
            continue
        if ex:
            s00 -= inv * ex * ex
            ru0 -= inv * ex * eu
            rv0 -= inv * ex * ev
        if ey:
            s11 -= inv * ey * ey
            ru1 -= inv * ey * eu
            rv1 -= inv * ey * ev
            if ex:
                s01 -= inv * ex * ey
        sums.append((ex, ey, eu, ev))
    uv = _schur_solve(s00, s01, s11,
                      [(ru0, ru1, [e[:3] for e in sums]),
                       (rv0, rv1, [e[:2] + e[3:] for e in sums])])
    if uv is not None:
        (xu, yu), (xv, yv) = uv
        return (xu, xv), (yu, yv)
    N, tu, tv = _normal_equations(tube, coeffs)
    su, sv = solve_many(Matrix(QQ, N, coerce=False), [tu, tv])
    if su is None or sv is None:  # normal equations are always consistent
        raise VerificationError(
            "inconsistent normal equations for the coefficients %s"
            % [[str(c) for c in comp] for comp in coeffs])
    return (su[0], sv[0]), (su[1], sv[1])


def _param_domain(name):
    return (Fraction(0), None) if name.startswith("s") else (Fraction(0), Fraction(1))


def _clamp(v, lo, hi):
    if v < lo:
        return lo
    if hi is not None and v > hi:
        return hi
    return v


def attack_term(params, term, rng, restarts=200, rounds=3, denom=1 << 24):
    """Search for a non-basepoint witness of a ledger term by exact
    alternating minimization of the squared tube distance over the
    configuration (x, y) and the bound parameters.

    A witness is an exact rational input whose image lies inside the
    tube with projection clear of every excision region; finding one
    disproves the zero fact for the term."""
    if restarts < 1 or rounds < 1:
        raise ValueError("the attack needs at least one restart and one round")
    tube = Tube(params, term.label.partition)
    expr = term.expr
    names = sorted(expr.names())
    best = None
    witness = None
    scale_hint = params.rho * min(params.c)
    for trial in range(restarts):
        values = {}
        for nm in names:
            lo, hi = _param_domain(nm)
            if hi is None:
                values[nm] = rand_frac(rng, 0, scale_hint
                                       * rng.choice((1, 4, 16, 64)))
            else:
                values[nm] = rand_frac(rng, 0, 1)
        for _ in range(rounds):
            coeffs = expr.coefficients(values)
            x, y = _ls_step(tube, coeffs)
            ys = expr.image(coeffs, x, y)
            for nm in names:
                lo, hi = _param_domain(nm)
                cur = values[nm]
                # the image is affine in any single parameter, ys + (t -
                # cur) B at nm = t, so dist^2 is an exact quadratic in t
                B = expr.derivative(x, y, values, nm)
                b1, a2 = tube.pencil(ys, B)
                a1 = b1 - 2 * cur * a2
                if a2 > 0:
                    opt = -a1 / (2 * a2)
                elif a1 > 0:
                    opt = Fraction(0)
                elif a1 < 0:
                    opt = (cur + 1) * 2 if hi is None else Fraction(1)
                else:
                    opt = cur
                values[nm] = new = _clamp(opt, lo, hi).limit_denominator(denom)
                if new != cur:
                    step = new - cur
                    ys = [(p[0] + step * b[0], p[1] + step * b[1])
                          if b[0] or b[1] else p for p, b in zip(ys, B)]
        d2, xs = tube.dist2(expr.evaluate(x, y, values))
        if best is None or d2 < best:
            best = d2
        if d2 < tube.eps2:
            hit = _try_escape_excision(tube, expr, values, x, y, xs)
            if hit is not None:
                witness = {"x": [str(c) for c in hit[0]],
                           "y": [str(c) for c in hit[1]],
                           "params": {k: str(v) for k, v in values.items()},
                           "trial": trial}
                break
    return {"expr": expr.text(), "label": str(term.label),
            "restarts": restarts, "witness": witness,
            "best_dist2": str(best), "eps2": str(tube.eps2)}


def _translation_free(expr):
    """True when every component is an affine combination of x and y,
    so a common shift of x and y shifts the whole image."""
    one = Fraction(1)
    for cx, cy, _, _ in expr.comps:
        if (cx + cy).terms != {(): one}:
            return False
    return True


def _try_escape_excision(tube, expr, values, x, y, xs):
    """The image of (x, y) lies inside the tube with projection xs.  It
    is a witness only if that projection avoids the excision regions;
    when the map is translation equivariant, slide it along the first
    coordinate into the allowed windows."""
    if not tube.excised(xs):
        return x, y
    if not _translation_free(expr):
        return None
    lo = max(w_lo - xc[0] for xc, (_, w_lo, _) in zip(xs, tube.windows))
    hi = min(w_hi - xc[0] for xc, (_, _, w_hi) in zip(xs, tube.windows))
    if lo >= hi:
        return None
    shift = ((lo + hi) / 2, Fraction(0))
    x2, y2 = _add(x, shift), _add(y, shift)
    if tube.nonbase_projection(expr.evaluate(x2, y2, values)) is not None:
        return x2, y2
    return None


def attack_zero_facts(facts, restarts=200, seed=20260823):
    """Attack every recorded zero fact; the table passes when no term
    admits a witness."""
    from .chainledger import Term, WeightSpec
    from .partgraph import parse_graph
    if restarts < 1:
        raise ValueError("the attack needs at least one restart")
    reports = []
    rng = random.Random(seed)
    for (etext, ltext), rec in sorted(facts.table.items()):
        n = rec["n"]
        label = parse_graph(ltext, n)
        expr = parse_expr(etext, n)
        snames = tuple(sorted(x for x in expr.names() if x.startswith("s")))
        tnames = tuple(sorted(x for x in expr.names() if x.startswith("t")))
        term = Term(expr, WeightSpec(snames, tnames), label)
        rep = attack_term(default_params(n), term, rng, restarts=restarts)
        rep["kind"] = rec.get("kind", "")
        reports.append(rep)
    return {"reports": reports,
            "pass": all(r["witness"] is None for r in reports)}


# ---------------------------------------------------------------------------
# expression text parsing (for the data-driven fact table)


def parse_expr(text, n):
    """Inverse of MapExpr.text for the restricted grammar it emits."""
    from .chainledger import MapExpr, Poly
    comps = []
    for part in text.split(";"):
        comp = {b: Poly() for b in "xyuv"}
        for piece, sign in _split_signed(part):
            if piece == "0":
                continue
            if piece.startswith("("):
                body, base = piece[1:].split(")", 1)
                poly = _parse_poly(body)
            else:
                base = piece
                poly = Poly.const(1)
            if base not in comp:
                raise ValueError("bad basis %r" % base)
            comp[base] = comp[base] + (-poly if sign < 0 else poly)
        comps.append([comp["x"], comp["y"], comp["u"], comp["v"]])
    expr = MapExpr(comps)
    if expr.n != n:
        raise ValueError("component count mismatch")
    return expr


def _split_signed(text):
    out, cur, sign, depth = [], "", 1, 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0:
            if cur:
                out.append((cur, sign))
            cur, sign = "", (1 if ch == "+" else -1)
        else:
            cur += ch
    if cur:
        out.append((cur, sign))
    return out


def _parse_poly(text):
    from .chainledger import Poly
    total = Poly()
    for piece, sign in _split_signed(text):
        coeff = Fraction(sign)
        mono = []
        for factor in piece.split("*"):
            try:
                coeff *= Fraction(factor)
            except ValueError:
                mono.append(factor)
        total = total + Poly({tuple(sorted(mono)): coeff})
    return total


# ---------------------------------------------------------------------------
# lemma harnesses


ALL_LEMMAS = ("condensed-image", "diagonal-bound", "diagonal-incl",
              "collapse0", "collapse-cases", "i-contraction")


def check_lemma(name, samples=1000, seed=20260823):
    rng = random.Random("%s:%d" % (name, seed))
    fn = {"condensed-image": _check_condensed_image,
          "diagonal-bound": _check_diagonal_bound,
          "diagonal-incl": _check_diagonal_incl,
          "collapse0": _check_collapse0,
          "collapse-cases": _check_collapse_cases,
          "i-contraction": _check_i_contraction}.get(name)
    if fn is None:
        raise ValueError("unknown lemma %r" % name)
    return fn(rng, samples, seed)


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
            ys = _excised_sample(params, src, rng)
        else:
            ys = _near_tube_sample(params, src, rng)
        if (tubes[Q].nonbase_projection(ys) is None
                and tubes[P].nonbase_projection(ys) is not None):
            bad.append({"P": str(P), "Q": str(Q),
                        "y": [[str(c) for c in v] for v in ys]})
    return _report("diagonal-bound", samples, bad, seed)


def _piece_map(P, Q):
    """Internal Q-piece position -> position of the containing P-piece."""
    qp, pp = Q.pieces(), P.pieces()
    out = {}
    for qpos in range(1, len(qp) - 1):
        for ppos, piece in enumerate(pp):
            if piece[0] <= qp[qpos][0] and qp[qpos][-1] <= piece[-1]:
                out[qpos] = ppos
                break
    return out


def _check_diagonal_incl(rng, samples, seed):
    """A non-basepoint of the finer stage sitting in a deep diagonal
    region maps into the corresponding diagonal region downstream, or
    to the basepoint when the pair merges or touches an extreme
    piece."""
    params = default_params(4)
    bad = []
    pairs = _refinement_pairs()
    tubes = _tubes(params, [P for pair in pairs for P in pair])
    for k in range(samples):
        P, Q = pairs[k % len(pairs)]
        ys = _diagonal_sample(params, Q, rng)
        xq = tubes[Q].nonbase_projection(ys)
        if xq is None:
            continue
        where = _piece_map(P, Q)
        xp = tubes[P].nonbase_projection(ys)
        at_base = xp is None
        m = Q.num_pieces - 1
        for a in range(1, m):
            for b in range(a + 1, m):
                if not in_D_ab(params, Q, xq, a, b):
                    continue
                pa, pb = where[a], where[b]
                if pa == pb or pa == 0 or pb == P.num_pieces - 1:
                    ok = at_base
                else:
                    ok = at_base or in_D_ab(params, P, xp, pa, pb)
                if not ok:
                    bad.append({"P": str(P), "Q": str(Q), "pair": (a, b),
                                "y": [[str(c) for c in v] for v in ys]})
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
    ext = {0: (space_window(params, (0,))[0], Fraction(0)),
           n + 1: (space_window(params, (n + 1,))[1], Fraction(0))}
    tubes = _tubes(params, parts)
    for k in range(samples):
        P = parts[k % len(parts)]
        ys = _near_tube_sample(params, P, rng)
        if tubes[P].nonbase_projection(ys) is None:
            continue
        epsp = eps_P(params, P)
        for kk in range(1, n + 1):
            lo, hi = space_window(params, (kk,))
            if not (lo - 2 * epsp < ys[kk - 1][0] < hi + 2 * epsp):
                bad.append({"P": str(P), "k": kk, "kind": "window"})
        for piece in P.pieces():
            for i in range(len(piece)):
                for j in range(i + 1, len(piece)):
                    a, b = piece[i], piece[j]
                    pa = ext[a] if a in ext else ys[a - 1]
                    pb = ext[b] if b in ext else ys[b - 1]
                    gap = pb[0] - pa[0]
                    cab = rho * (mid(params, (b,)) - mid(params, (a,)))
                    if not (cab - 2 * epsp < gap < cab + 2 * epsp):
                        bad.append({"P": str(P), "pair": (a, b),
                                    "kind": "gap"})
    return _report("collapse0", samples, bad, seed)


def _condensed_instances():
    """Maps with their stage and the edges whose diagonal regions must
    absorb any tube intersection of the image."""
    from .chainledger import contraction, f_graph, straight
    from .partgraph import delta_graph, parse_graph
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


def _aimed_inputs(params, P, rng, names):
    """Configuration aimed at the tube of P: y near a window point, x
    to its right by the in-piece spacing of the last two strands."""
    xs = sample_space_point(params, P, rng)
    base = xs[rng.randrange(len(xs))]
    n = params.n
    gap = params.rho * (mid(params, (n,)) - mid(params, (n - 1,)))
    ep = eps_P(params, P)
    y = _add(base, (rand_frac(rng, -ep, ep), rand_frac(rng, -ep, ep)))
    x = _add(y, (gap + rand_frac(rng, -ep, ep), rand_frac(rng, -ep, ep)))
    values = {nm: (rand_frac(rng, 0, 1) if nm.startswith("t")
                   else rand_frac(rng, 0, 4 * ep)) for nm in names}
    return x, y, values


def _check_condensed_image(rng, samples, seed):
    """Condensed maps, their contractions, and their straightening
    homotopies only meet the tube along the deep diagonal regions of
    their stage graph."""
    params = default_params(4)
    instances = _condensed_instances()
    tubes = _tubes(params, [part for _, part, _ in instances])
    bad = []
    for k in range(samples):
        expr, part, edges = instances[k % len(instances)]
        if k % 2:
            x, y, values = _aimed_inputs(params, part, rng, expr.names())
        else:
            x, y = rand_point(rng), rand_point(rng)
            values = {nm: (rand_frac(rng, 0, 1) if nm.startswith("t")
                           else rand_frac(rng, 0, params.rho))
                      for nm in expr.names()}
        xp = tubes[part].nonbase_projection(expr.evaluate(x, y, values))
        if xp is None:
            continue
        for (a, b) in edges:
            if not in_D_ab(params, part, xp, a, b):
                bad.append({"edge": (a, b), "expr": expr.text(),
                            "x": [str(c) for c in x],
                            "y": [str(c) for c in y]})
    return _report("condensed-image", samples, bad, seed)


def _collapse_case_instances():
    """Terms that must collapse: an edge contracted inside one merged
    piece, and an extreme merge pinning a cluster to an anchor."""
    from .chainledger import Term, WeightSpec
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
    from .chainledger import Term, WeightSpec
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
        rep = attack_term(params, term, rng, restarts=per)
        if rep["witness"] is not None:
            bad.append({"kind": "collapse-witness", "detail": rep})
        tube = Tube(params, term.label.partition)
        for _ in range(per):
            x, y = rand_point(rng), rand_point(rng)
            s = rand_frac(rng, 0, params.rho)
            ys = term.expr.evaluate(x, y, {"s1": s})
            if tube.nonbase_projection(ys) is not None:
                bad.append({"expr": term.expr.text(),
                            "kind": "random-witness"})
    for term in _power_check_terms():
        rep = attack_term(params, term, rng, restarts=40)
        if rep["witness"] is None:
            bad.append({"kind": "power-check", "detail": rep})
    return _report("collapse-cases", samples, bad, seed)


def _check_i_contraction(rng, samples, seed):
    """Pulling two adjacent components apart along the first coordinate
    keeps the image inside the diagonal regions of the merged stage."""
    from .chainledger import contraction, f_graph, i_contraction
    from .partgraph import delta_graph, parse_graph
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
    ep = eps_P(params, part)
    tube = Tube(params, part)
    for k in range(samples):
        x, y = rand_point(rng), rand_point(rng)
        s1 = rand_frac(rng, 0, params.rho * rng.choice((1, Fraction(1, 64))))
        s2 = rand_frac(rng, 0, params.rho * rng.choice((1, Fraction(1, 64))))
        if k % 3 == 0:
            xs = sample_space_point(params, part, rng)
            x, y = xs[0], xs[-1]
            s1 = rand_frac(rng, 0, 2 * ep)
            s2 = params.rho * (mid(params, (2,)) - mid(params, (1,))) / 2 \
                + rand_frac(rng, -2 * ep, 2 * ep)
        xp = tube.nonbase_projection(F.evaluate(x, y, {"s1": s1, "s2": s2}))
        if xp is None:
            continue
        for (a, b) in edges:
            if not in_D_ab(params, part, xp, a, b):
                bad.append({"edge": (a, b), "s1": str(s1), "s2": str(s2),
                            "x": [str(c) for c in x],
                            "y": [str(c) for c in y]})
    return _report("i-contraction", samples, bad, seed)


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
