"""Hochschild-style complex of an operad with multiplication, built on
the dual spaces, and its arity-filtered spectral sequence.

For an operad O with distinguished elements mu_l in O(l) of degree
l - 2, the complex has slots Hoch^{p,q} = (O(p)_q)^dual and total
differential (dual internal differential) + delta, where

    delta(x) = sum_l ( x o_1 mu_l + sum_i mu_l o_i x + x o_l mu_l )

with (x o_i mu_l)(y) = x(mu_l o_i y) for 1 <= i <= l and
(mu_l o_i x)(y) = x(y o_i mu_l) for 1 <= i <= p - l + 1.  Each l-term
lowers arity by l - 1 and lowers the internal degree by l - 2, so the
blocks fit the filtered-complex pattern (p, q) -> (p - r, q - r + 1)
with r = l - 1 and the arity filtration gives a spectral sequence.

In "verbatim" mode every summand has coefficient +1 (a differential in
characteristic 2 only); in "signed" mode the summands above carry
+1, (-1)^i, (-1)^{p-l+2} in the order listed, i.e. (-1)^position.

The motivating operad is the homology of the framed little-intervals
tower whose dual pieces are the configuration-space cohomology rings of
confcoh; for it delta is exactly the alternating (or plain) sum of the
coface pullbacks.
"""

from .confcoh import (admissible_basis, class_to_vector, coface_pullback,
                      codegeneracy_pullback, dim_cohomology, normal_form)
from .linalg import (Eliminator, Matrix, VerificationError, kernel_basis,
                     rank, solve, sparse)
from .spectral import FilteredComplex, ss_pages

MODES = ("signed", "verbatim")


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError("unknown mode %r; expected one of %s" % (mode, MODES))


class OperadPresentation:
    """Finite graded pieces O(p)_q plus composition against the
    distinguished mu_l, all given as explicit matrices.

    dims: {(p, q): dimension}.
    mu_arities: the l with mu_l possibly nonzero.
    left[(l, i, p, q)]: matrix of y -> mu_l o_i y as a map
        O(p - l + 1)_q -> O(p)_{q + l - 2}, for 1 <= i <= l.
    right[(l, i, p, q)]: matrix of y -> y o_i mu_l, same shape, for
        1 <= i <= p - l + 1.
    internal_d[(p, q)]: matrix of the differential O(p)_q -> O(p)_{q-1}.

    Missing keys mean zero maps.  The Hochschild differential is built
    from the duals (transposes) of these.
    """

    def __init__(self, field, dims, mu_arities, left=None, right=None,
                 internal_d=None, name="operad"):
        self.field = field
        self.dims = {k: int(v) for k, v in dims.items() if v}
        self.mu_arities = sorted(set(mu_arities))
        for l in self.mu_arities:
            if l < 2:
                raise ValueError("mu arities start at 2")
        self.left = dict(left or {})
        self.right = dict(right or {})
        self.internal_d = dict(internal_d or {})
        self.name = name
        for (l, i, p, q), M in self.left.items():
            self._check_shape(M, l, i, p, q, 1 <= i <= l)
        for (l, i, p, q), M in self.right.items():
            self._check_shape(M, l, i, p, q, 1 <= i <= p - l + 1)

    def dim(self, p, q):
        return self.dims.get((p, q), 0)

    def _check_shape(self, M, l, i, p, q, slot_ok):
        if not slot_ok:
            raise ValueError("slot %d out of range for mu_%d at arity %d" % (i, l, p))
        src = self.dim(p - l + 1, q)
        tgt = self.dim(p, q + l - 2)
        if M.nrows != tgt or M.ncols != src:
            raise ValueError("composition matrix for (mu_%d, slot %d, arity %d, "
                             "degree %d) has shape %dx%d, expected %dx%d"
                             % (l, i, p, q, M.nrows, M.ncols, tgt, src))

    def dual_terms(self, l, p, q):
        """The delta summands for mu_l out of the dual slot (p, q).

        Returns (target slot, list of dual matrices in position order:
        x o_1 mu_l, then mu_l o_i x for i = 1..p-l+1, then x o_l mu_l).
        Positions whose primal matrix is absent contribute zero.
        """
        tp, tq = p - l + 1, q - l + 2
        src, tgt = self.dim(p, q), self.dim(tp, tq)
        zero = Matrix.zeros(self.field, tgt, src)
        if tp < 1 or src == 0 or tgt == 0:
            return (tp, tq), []

        def dual(M):
            return M.transpose() if M is not None else zero

        mats = [dual(self.left.get((l, 1, p, tq)))]
        for i in range(1, p - l + 2):
            mats.append(dual(self.right.get((l, i, p, tq))))
        mats.append(dual(self.left.get((l, l, p, tq))))
        return (tp, tq), mats


def _delta_blocks(O, p, q, mode):
    """delta out of the dual slot (p, q) as {target slot: matrix}, one
    block per contributing mu_l: the sum of its dual summands, the one
    at position i signed (-1)^i in signed mode.  No two mu_l share a
    target slot, since each lowers the arity by a different l - 1."""
    F = O.field
    minus = F.neg(F.one) if mode == "signed" else F.one
    out = {}
    for l in O.mu_arities:
        (tp, tq), mats = O.dual_terms(l, p, q)
        if not mats:
            continue
        rows = [[F.zero] * mats[0].ncols for _ in range(mats[0].nrows)]
        for pos, M in enumerate(mats):
            sign = minus if pos % 2 else F.one
            for acc, row in zip(rows, M.rows):
                for j, a in enumerate(row):
                    if a:
                        acc[j] = F.add(acc[j], F.mul(sign, a))
        out[(tp, tq)] = Matrix(F, rows, coerce=False)
    return out


def hochschild_delta(O, x, p, q, mode="signed"):
    """delta applied to a dual coordinate vector x at slot (p, q).

    Returns {(p', q'): vector} with one entry per contributing mu_l.
    """
    _check_mode(mode)
    if len(x) != O.dim(p, q):
        raise ValueError("vector of length %d at slot %s of dimension %d"
                         % (len(x), (p, q), O.dim(p, q)))
    out = {}
    for slot, block in _delta_blocks(O, p, q, mode).items():
        vec = block.mul_vector(x)
        if any(vec):
            out[slot] = vec
    return out


def hochschild_complex(O, max_p=None, mode="signed"):
    """The dual Hochschild complex of O as a FilteredComplex.

    Slots are (p, q) with the arity p as filtration degree.  The dual
    internal differential (transpose of internal_d, an r = 0 block) is
    added with coefficient +1; presentations with a nonzero internal
    differential must hand in data for which the total map squares to
    zero, and FilteredComplex verifies that on construction.
    """
    _check_mode(mode)
    F = O.field
    keys = sorted(k for k in O.dims if max_p is None or k[0] <= max_p)
    offsets, slots, labels = {}, [], []
    for (p, q) in keys:
        offsets[(p, q)] = len(slots)
        d = O.dim(p, q)
        slots.extend([(p, q)] * d)
        labels.extend([(p, q, t) for t in range(d)])
    columns = {}
    for (p, q) in keys:
        blocks = [(offsets[slot], block.rows) for slot, block
                  in _delta_blocks(O, p, q, mode).items() if slot in offsets]
        # the dual internal differential is an r = 0 block into slot
        # (p, q + 1), which no mu_l block reaches (l >= 2 lowers the arity)
        dmat = O.internal_d.get((p, q + 1))
        if dmat is not None and (p, q + 1) in offsets:
            blocks.append((offsets[(p, q + 1)], dmat.transpose().rows))
        for t in range(O.dim(p, q)):
            columns[offsets[(p, q)] + t] = {base + s: row[t]
                                            for base, rows in blocks
                                            for s, row in enumerate(rows)
                                            if row[t]}
    return FilteredComplex(F, slots, columns, labels=labels)


# ---------------------------------------------------------------------------
# the configuration-space tower as an operad presentation (dual side)

class ConfTower:
    """Dual presentation of the configuration tower up to arity max_p:
    slot (p, q) is H^q(Conf_p(R^2)) on the admissible basis.

    Only mu_2 acts; its dual summands in position order 0..p are the
    coface pullbacks 0..p, so signed delta is the alternating coface
    sum and verbatim delta is the plain sum.
    """

    mu_arities = [2]
    internal_d = {}
    name = "conf-tower"

    def __init__(self, field, max_p):
        self.field = field
        self.dims = {(p, q): dim_cohomology(p, q)
                     for p in range(1, max_p + 1) for q in range(p)}

    def dim(self, p, q):
        return self.dims.get((p, q), 0)

    def dual_terms(self, l, p, q):
        if l != 2 or not self.dim(p, q) or not self.dim(p - 1, q):
            return (p - l + 1, q - l + 2), []
        F = self.field
        tgt_basis = admissible_basis(p - 1, q)
        cols = [[] for _ in range(p + 1)]
        for m in admissible_basis(p, q):
            x = normal_form(p, m, F)
            for i in range(p + 1):
                cols[i].append(class_to_vector(coface_pullback(i, x), tgt_basis))
        return (p - 1, q), [Matrix.from_columns(F, c, ambient=len(tgt_basis))
                            for c in cols]


def conf_delta_matrix(p, q, field, mode="signed"):
    """Matrix of delta on the admissible basis, slot (p, q) -> (p-1, q).

    Column j is the sum of the coface pullbacks of the j-th admissible
    monomial, the i-th signed (-1)^i in signed mode.  This route keeps
    its own signs, apart from ConfTower.dual_terms and hochschild_delta.
    """
    _check_mode(mode)
    F = field
    tgt_basis = admissible_basis(p - 1, q) if p >= 2 else []
    index = {m: t for t, m in enumerate(tgt_basis)}
    signs = [F.neg(F.one) if mode == "signed" and i % 2 else F.one
             for i in range(p + 1)] if tgt_basis else []
    cols = []
    for m in admissible_basis(p, q):
        x = normal_form(p, m, F)
        col = [F.zero] * len(tgt_basis)
        for i, sign in enumerate(signs):
            for mm, c in coface_pullback(i, x).terms.items():
                t = index[mm]
                col[t] = F.add(col[t], F.mul(sign, c))
        cols.append(col)
    return Matrix.from_columns(F, cols, ambient=len(tgt_basis))


def _unit_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return v


def degenerate_subspace_matrix(p, q, field):
    """Columns spanning the degenerate subspace of slot (p, q): images
    of the codegeneracy pullbacks from arity p - 1."""
    tgt_basis = admissible_basis(p, q)
    cols = []
    for m in admissible_basis(p - 1, q):
        x = normal_form(p - 1, m, field)
        for i in range(p):
            img = codegeneracy_pullback(i, x)
            v = class_to_vector(img, tgt_basis)
            if any(v):
                cols.append(v)
    return Matrix.from_columns(field, cols, ambient=len(tgt_basis))


def normalized_slot(p, q, field):
    """Representatives (as coordinate vectors on the admissible basis)
    of the quotient by the degenerate subspace, plus the eliminator of
    the degenerate span for reduction."""
    elim = Eliminator(field, track=True)
    deg = degenerate_subspace_matrix(p, q, field)
    for col in deg.columns():
        elim.add(sparse(col))
    n_deg = elim.rank
    one = field.one
    reps = [t for t in range(len(admissible_basis(p, q)))
            if elim.add({t: one})]
    return reps, n_deg, elim


def build_sinha_complex(max_p, field, normalized=True, mode="signed"):
    """FilteredComplex of the configuration-space tower up to arity max_p.

    With normalized=True each slot is the quotient of H^q(Conf_p) by
    the span of the codegeneracy pullback images (delta descends to the
    quotient; the second page is unchanged).  Slots are (p, q) for
    1 <= p <= max_p, 0 <= q <= p - 1.
    """
    _check_mode(mode)
    if not (1 <= max_p <= 8):
        raise ValueError("max_p must be between 1 and 8")
    F = field
    if not normalized:
        return hochschild_complex(ConfTower(F, max_p), mode=mode)
    keys = [(p, q) for p in range(1, max_p + 1) for q in range(p)
            if dim_cohomology(p, q)]

    # normalized: per slot a basis of unit-vector representatives mod the
    # degenerate span; the differential is delta followed by reduction
    info = {k: normalized_slot(k[0], k[1], F) for k in keys}
    offsets, slots, labels = {}, [], []
    for k in keys:
        reps = info[k][0]
        offsets[k] = len(slots)
        slots.extend([k] * len(reps))
        basis = admissible_basis(*k)
        labels.extend([(k[0], k[1], basis[t]) for t in reps])
    columns = {}
    for (p, q) in keys:
        if p < 2 or (p - 1, q) not in offsets:
            continue
        reps = info[(p, q)][0]
        _, t_deg, t_elim = info[(p - 1, q)]
        base = offsets[(p - 1, q)]
        delta = conf_delta_matrix(p, q, F, mode=mode)
        for s, t in enumerate(reps):
            coords = t_elim.coords_in_span(sparse(delta.column(t)))
            if coords is None:
                # image is independent of degenerates + earlier reps; this
                # cannot happen since unit vectors exhaust the space
                raise VerificationError("normalization failed at slot %s"
                                        % ((p, q),))
            # coordinates past the degenerate ones are on the target reps
            columns[offsets[(p, q)] + s] = {base + idx - t_deg: c
                                            for idx, c in enumerate(coords)
                                            if c and idx >= t_deg}
    return FilteredComplex(F, slots, columns, labels=labels)


def mu3_obstruction_rank(field):
    """Rank of delta from slot (4, 1) to slot (3, 1): the pairing that
    detects the nontrivial ternary bracket on the second page."""
    return rank(conf_delta_matrix(4, 1, field, mode="signed"))


def e2_report(x, mode="signed"):
    """Second-page data for a cohomology class x at slot (p, q).

    Returns is_cycle, is_boundary, the slot's E_2 dimension, and the
    coordinates of [x] on chosen representatives (None for non-cycles).
    """
    F = x.field
    p, q = x.arity, x.degree
    basis = admissible_basis(p, q)
    v = class_to_vector(x, basis)
    d_out = conf_delta_matrix(p, q, F, mode=mode)
    d_in = conf_delta_matrix(p + 1, q, F, mode=mode)
    img = d_out.mul_vector(v) if d_out.ncols else []
    is_cycle = not any(img)
    is_boundary = is_cycle and (solve(d_in, v) is not None if d_in.ncols
                                else not any(v))
    elim = Eliminator(F, track=True)
    for j in range(d_in.ncols):
        elim.add(sparse(d_in.column(j)))
    n_bnd = elim.rank
    dim_e2 = sum(elim.add(sparse(w)) for w in kernel_basis(d_out))
    coords = None
    if is_cycle:
        sol = elim.coords_in_span(sparse(v))
        coords = sol[n_bnd:] if sol is not None else None
    return {"slot": (p, q), "is_cycle": is_cycle, "is_boundary": is_boundary,
            "dim_e2": dim_e2, "coordinates": coords}


def d2_via_lifting(O, x, p, q, mode="signed"):
    """The second-page differential by the lifting formula.

    For a class x at slot (p, q) whose mu_2 image vanishes up to an
    internal-differential correction dy = mu_2 * x, returns the chain
    mu_2 * y + mu_3 * x at slot (p - 2, q - 1).  Raises ValueError when
    x is not a first-page cycle.
    """
    _check_mode(mode)
    F = O.field
    parts = hochschild_delta(O, x, p, q, mode=mode)
    m2x = parts.get((p - 1, q), [F.zero] * O.dim(p - 1, q))
    y = [F.zero] * O.dim(p - 1, q - 1)
    if any(m2x):
        dmat = O.internal_d.get((p - 1, q), None)
        sol = None
        if dmat is not None:
            sol = solve(dmat.transpose(), m2x)
        if sol is None:
            raise ValueError("mu_2 image of x does not vanish on the first page")
        y = sol
    out = [F.zero] * O.dim(p - 2, q - 1)
    if any(y):
        y_parts = hochschild_delta(O, y, p - 1, q - 1, mode=mode)
        for t, val in enumerate(y_parts.get((p - 2, q - 1), [])):
            out[t] = F.add(out[t], val)
    m3x = parts.get((p - 2, q - 1))
    if m3x is not None:
        for t, val in enumerate(m3x):
            out[t] = F.add(out[t], val)
    return out


def higher_differentials_vanish(max_p, field, r_max=None, normalized=True,
                                mode="signed"):
    """Report on d_r for r >= 2 on the configuration tower up to max_p."""
    C = build_sinha_complex(max_p, field, normalized=normalized, mode=mode)
    if r_max is None:
        r_max = max_p
    pages = ss_pages(C, r_max)
    nonzero = []
    for r in range(2, r_max + 1):
        for (mp, qq), e in pages[r].table.items():
            if e["d_rank"]:
                nonzero.append({"r": r, "slot": [mp, qq], "rank": e["d_rank"]})
    e2 = {str(k): v for k, v in sorted(pages[2].dims().items())}
    return {"max_p": max_p, "field": field.name, "mode": mode,
            "normalized": normalized, "r_max": r_max, "e2_dims": e2,
            "nonzero_higher": nonzero, "pass": not nonzero}


# ---------------------------------------------------------------------------
# synthetic presentations for cross-checking the page machinery

def pointwise_presentation(rng, field, max_arity=5, max_dim=4, degree=None):
    """A strictly associative multiplication, disguised by a random
    change of basis in every arity.

    The underlying operad is functions on a finite set with pointwise
    composition; mu_2 is multiplication by a fixed invertible vector u.
    Conjugating each arity by a random invertible matrix produces
    oracle matrices with no visible structure while keeping every
    operad axiom exact.
    """
    F = field
    m = rng.randint(1, max_dim)
    q0 = rng.randint(0, 2) if degree is None else degree
    dims = {(p, q0): m for p in range(1, max_arity + 1)}

    def rand_invertible():
        while True:
            M = Matrix(F, [[rng.randint(-3, 3) for _ in range(m)]
                           for _ in range(m)])
            if rank(M) == m:
                return M

    g = {p: rand_invertible() for p in range(1, max_arity + 1)}
    ginv = {}
    for p, M in g.items():
        cols = [solve(M, _unit_vector(F, m, i)) for i in range(m)]
        ginv[p] = Matrix.from_columns(F, cols, ambient=m)
    u = [F.of(rng.choice([1, 1, 2, -1])) for _ in range(m)]
    mult = Matrix.zeros(F, m, m)
    for i in range(m):
        mult.rows[i][i] = u[i]
    left, right = {}, {}
    for p in range(2, max_arity + 1):
        M = g[p].mul_matrix(mult).mul_matrix(ginv[p - 1])
        for i in (1, 2):
            left[(2, i, p, q0)] = M
        for i in range(1, p):
            right[(2, i, p, q0)] = M
    return OperadPresentation(F, dims, [2], left=left, right=right,
                              name="pointwise-%dd" % m)


def toy_mu3_presentation(field):
    """Minimal presentation with mu_2 = 0 and a nonzero mu_3 oracle.

    Slots (4,2), (3,1), (2,1), each one-dimensional; the only nonzero
    composition is mu_3 o_1 -: O(2)_1 -> O(4)_2.  The page-2
    differential out of slot (4,2) is then forced nonzero, and the
    lifting formula must reproduce it with lift y = 0.
    """
    F = field
    dims = {(4, 2): 1, (3, 1): 1, (2, 1): 1}
    left = {(3, 1, 4, 1): Matrix(F, [[1]])}
    return OperadPresentation(F, dims, [3], left=left, name="toy-mu3")
