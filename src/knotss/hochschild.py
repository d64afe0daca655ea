"""Hochschild-style complex of an operad with multiplication, built on
the dual spaces, and its arity-filtered spectral sequence.

For an operad O with distinguished elements mu_l in O(l) of degree
l - 2, the complex has slots Hoch^{p,q} = (O(p)_q)^dual and
differential delta, where

    delta(x) = sum_l ( x o_1 mu_l + sum_i mu_l o_i x + x o_l mu_l )

with (x o_i mu_l)(y) = x(mu_l o_i y) for 1 <= i <= l and
(mu_l o_i x)(y) = x(y o_i mu_l) for 1 <= i <= p - l + 1.  Each l-term
lowers arity by l - 1 and lowers the internal degree by l - 2, so the
blocks fit the filtered-complex pattern (p, q) -> (p - r, q - r + 1)
with r = l - 1 and the arity filtration gives a spectral sequence.

The summands carry +1, (-1)^i, (-1)^{p-l+2} in the order listed, i.e.
(-1)^position.

The motivating operad is the homology of the framed little-intervals
tower whose dual pieces are the configuration-space cohomology rings of
confcoh; for it delta is Sinha's d_1, the alternating sum of the coface
pullbacks.  build_sinha_complex takes that d_1 from one sparse integer
route, delta_columns, on the slots' monomials in source and target: all
admissible monomials for the plain complex, the normalized ones for the
normalized complex.  conf_delta_matrix is its dense view;
confcoh.sinha_d1 computes the same sum on classes, and the tests compare
the two.
"""

from .confcoh import admissible_basis, coface_terms, dim_cohomology
from .linalg import (Eliminator, Matrix, column_kernel, rank, solve_many,
                     sub_scaled)
from .spectral import FilteredComplex

MAX_ARITY = 8  # largest max_p of build_sinha_complex


class OperadPresentation:
    """Finite graded pieces O(p)_q plus composition against the
    distinguished mu_l, all given as explicit matrices.

    dims: {(p, q): dimension}.
    mu_arities: the l with mu_l possibly nonzero.
    left[(l, i, p, q)]: matrix of y -> mu_l o_i y as a map
        O(p - l + 1)_q -> O(p)_{q + l - 2}, for 1 <= i <= l.
    right[(l, i, p, q)]: matrix of y -> y o_i mu_l, same shape, for
        1 <= i <= p - l + 1.

    Missing keys mean zero maps.  The Hochschild differential is the
    sum of the duals (transposes) of these, read off their rows.
    """

    def __init__(self, field, dims, mu_arities, left=None, right=None):
        self.field = field
        self.dims = {k: int(v) for k, v in dims.items() if v}
        self.mu_arities = sorted(set(mu_arities))
        for l in self.mu_arities:
            if l < 2:
                raise ValueError("mu arities start at 2")
        self.left = dict(left or {})
        self.right = dict(right or {})
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


def _delta_blocks(O, p, q):
    """delta out of the dual slot (p, q) as {target slot: columns}, one
    block per contributing mu_l, columns[t] the image of the t-th dual
    basis vector.  The dual of a composition matrix sends that vector to
    the matrix's row t, so columns[t] sums row t of each summand's
    matrix in position order (x o_1 mu_l, then mu_l o_i x for i =
    1..p-l+1, then x o_l mu_l), the one at position i signed (-1)^i; an
    absent matrix adds nothing.  No two mu_l share a target slot, since
    each lowers the arity by a different l - 1."""
    F = O.field
    src = O.dim(p, q)
    out = {}
    for l in O.mu_arities:
        tp, tq = p - l + 1, q - l + 2
        tgt = O.dim(tp, tq)
        if tp < 1 or not src or not tgt:
            continue
        mats = ([O.left.get((l, 1, p, tq))]
                + [O.right.get((l, i, p, tq)) for i in range(1, p - l + 2)]
                + [O.left.get((l, l, p, tq))])
        cols = [[F.zero] * tgt for _ in range(src)]
        for pos, M in enumerate(mats):
            if M is None:
                continue
            add = F.sub if pos % 2 else F.add
            for col, row in zip(cols, M.rows):
                for j, a in enumerate(row):
                    if a:
                        col[j] = add(col[j], a)
        out[(tp, tq)] = cols
    return out


def hochschild_delta(O, x, p, q):
    """delta applied to a dual coordinate vector x at slot (p, q).

    Returns {(p', q'): vector} with one entry per contributing mu_l.
    """
    if len(x) != O.dim(p, q):
        raise ValueError("vector of length %d at slot %s of dimension %d"
                         % (len(x), (p, q), O.dim(p, q)))
    F = O.field
    out = {}
    for slot, cols in _delta_blocks(O, p, q).items():
        vec = [F.zero] * len(cols[0])
        for c, col in zip(x, cols):
            if c:
                vec = [F.add(v, F.mul(c, a)) for v, a in zip(vec, col)]
        if any(vec):
            out[slot] = vec
    return out


def hochschild_complex(O):
    """The dual Hochschild complex of O as a FilteredComplex.

    Slots are (p, q) with the arity p as filtration degree; D is delta,
    and FilteredComplex verifies D^2 = 0 on construction.
    """
    F = O.field
    keys = sorted(O.dims)
    offsets, slots = {}, []
    for (p, q) in keys:
        offsets[(p, q)] = len(slots)
        slots.extend([(p, q)] * O.dim(p, q))
    columns = {}
    for (p, q) in keys:
        blocks = [(offsets[slot], cols) for slot, cols
                  in _delta_blocks(O, p, q).items() if slot in offsets]
        for t in range(O.dim(p, q)):
            columns[offsets[(p, q)] + t] = {base + s: a
                                            for base, cols in blocks
                                            for s, a in enumerate(cols[t])
                                            if a}
    return FilteredComplex(F, slots, columns)


def delta_columns(p, q, sources, index):
    """d_1 over Z out of slot (p, q): yields one sparse column per source.

    index maps admissible monomials of slot (p - 1, q) to rows.  Each
    column sums the coface images of its source, the i-th signed (-1)^i,
    as {row: int}, read off the (monomial, int) pairs of coface_terms;
    images outside index are dropped, and a sum that cancels stays as a
    0 entry for the caller to skip.  One rewrite memo serves the call.
    """
    signs = [(-1) ** i for i in range(p + 1)] if index else []
    memo = {}
    for m in sources:
        col = {}
        for i, sign in enumerate(signs):
            for mm, z in coface_terms(i, p, m, memo):
                t = index.get(mm)
                if t is not None:
                    col[t] = col.get(t, 0) + sign * z
        yield col


def conf_delta_matrix(p, q, field, mode="signed"):
    """Matrix of delta on the admissible basis, slot (p, q) -> (p-1, q):
    the dense view of delta_columns, coerced once per nonzero entry."""
    # signed only; the keyword stays because perfbench's flip_one_entry passes it
    if mode != "signed":
        raise ValueError("conf_delta_matrix is signed only, got mode %r" % (mode,))
    tgt = admissible_basis(p - 1, q) if p >= 2 else []
    source = admissible_basis(p, q)
    M = Matrix.zeros(field, len(tgt), len(source))
    index = {m: t for t, m in enumerate(tgt)}
    for j, col in enumerate(delta_columns(p, q, source, index)):
        for t, z in col.items():
            if z:
                M.rows[t][j] = field.of(z)
    return M


def _field_columns(field, cols):
    """The integer columns of delta_columns as sparse field columns."""
    for col in cols:
        yield {t: x for t in sorted(col) if (x := field.of(col[t]))}


def normalized_slot(p, q):
    """The monomials of admissible_basis(p, q), in order, whose factors
    touch every index 1..p: a basis of the quotient by the degenerate
    subspace.

    The codegeneracy s^i is strictly monotone on indices, so it sends an
    admissible monomial to one admissible monomial (coefficient 1) that
    misses index i + 1, and a monomial missing index k is s^(k-1) of its
    own down-shift.  The degenerate span is therefore the coordinate
    subspace of the monomials that miss some index.
    """
    return [m for m in admissible_basis(p, q)
            if len({a for f in m for a in f}) == p]


def build_sinha_complex(max_p, field, normalized=True):
    """FilteredComplex of the configuration-space tower up to arity max_p.

    Slots are (p, q) for 1 <= p <= max_p, 0 <= q <= p - 1, and D is
    delta_columns on each slot's monomials in source and target.  The
    plain complex takes every admissible monomial.  With normalized=True
    a slot keeps the monomials touching every index 1..p
    (normalized_slot), a basis of the quotient of H^q(Conf_p) by the
    codegeneracy pullback images; delta maps degenerates to degenerates,
    so D is delta on the quotient.
    """
    if not (1 <= max_p <= MAX_ARITY):
        raise ValueError("max_p must be between 1 and %d" % MAX_ARITY)
    F = field
    basis = normalized_slot if normalized else admissible_basis
    keys = [(p, q) for p in range(1, max_p + 1) for q in range(p)
            if dim_cohomology(p, q)]
    reps, offsets, slots = {}, {}, []
    for k in keys:
        reps[k] = basis(*k)
        offsets[k] = len(slots)
        slots.extend([k] * len(reps[k]))
    columns = {}
    for (p, q) in keys:
        if (p - 1, q) in offsets:
            base = offsets[(p - 1, q)]
            index = {m: base + i for i, m in enumerate(reps[(p - 1, q)])}
            cols = delta_columns(p, q, reps[(p, q)], index)
            columns.update(enumerate(_field_columns(F, cols), offsets[(p, q)]))
    return FilteredComplex(F, slots, columns)


def mu3_obstruction_rank(field):
    """Rank of delta from slot (4, 1) to slot (3, 1): the pairing that
    detects the nontrivial ternary bracket on the second page."""
    return rank(conf_delta_matrix(4, 1, field))


def e2_report(x):
    """Second-page data for a cohomology class x at slot (p, q).

    Returns is_cycle, is_boundary, the slot's E_2 dimension, and the
    coordinates of [x] on chosen representatives (None for non-cycles).
    """
    F = x.field
    p, q = x.arity, x.degree
    basis = admissible_basis(p, q)
    index = {m: t for t, m in enumerate(basis)}
    # as in conf_delta_matrix, nothing lies below arity 1
    below = ({m: t for t, m in enumerate(admissible_basis(p - 1, q))}
             if p >= 2 else {})
    d_out = list(_field_columns(F, delta_columns(p, q, basis, below)))
    d_in = _field_columns(F, delta_columns(p + 1, q, admissible_basis(p + 1, q),
                                           index))
    v = {index[m]: c for m, c in x.terms.items() if c}
    image = {}
    for j, c in v.items():
        sub_scaled(F, F.zero, image, F.neg(c), d_out[j].items())
    is_cycle = not image
    # the kept columns are independent, so [x] has unique coordinates on
    # them, and x is a boundary exactly when those past n_bnd vanish
    elim = Eliminator(F, track=True)
    for col in d_in:
        elim.add(col)
    n_bnd = elim.rank
    dim_e2 = sum(elim.add(w) for w in column_kernel(F, d_out)[1])
    coords = None
    if is_cycle:
        sol = elim.coords_in_span(v)
        coords = sol[n_bnd:] if sol is not None else None
    is_boundary = coords is not None and not any(coords)
    return {"slot": (p, q), "is_cycle": is_cycle, "is_boundary": is_boundary,
            "dim_e2": dim_e2, "coordinates": coords}


def d2_via_lifting(O, x, p, q):
    """The second-page differential by the lifting formula.

    For a class x at slot (p, q) whose mu_2 image vanishes, the lift y
    with dy = mu_2 * x is 0 (no presentation has an internal
    differential), so d_2 x is the chain mu_3 * x at slot
    (p - 2, q - 1).  Raises ValueError when x is not a first-page cycle.
    """
    F = O.field
    parts = hochschild_delta(O, x, p, q)
    if (p - 1, q) in parts:
        raise ValueError("mu_2 image of x does not vanish on the first page")
    return parts.get((p - 2, q - 1), [F.zero] * O.dim(p - 2, q - 1))


# ---------------------------------------------------------------------------
# synthetic presentations for cross-checking the page machinery

def pointwise_presentation(rng, field):
    """A strictly associative multiplication, disguised by a random
    change of basis in every arity.

    The underlying operad is functions on a finite set with pointwise
    composition; mu_2 is multiplication by a fixed invertible vector u.
    Conjugating each arity by a random invertible matrix produces
    oracle matrices with no visible structure while keeping every
    operad axiom exact.
    """
    F = field
    m = rng.randint(1, 4)
    q0 = rng.randint(0, 2)
    dims = {(p, q0): m for p in range(1, 6)}

    def rand_invertible():
        while True:
            M = Matrix(F, [[rng.randint(-3, 3) for _ in range(m)]
                           for _ in range(m)])
            if rank(M) == m:
                return M

    g = {p: rand_invertible() for p in range(1, 6)}
    unit = Matrix.identity(F, m).columns()
    ginv = {p: Matrix.from_columns(F, solve_many(M, unit), ambient=m)
            for p, M in g.items()}
    u = [F.of(rng.choice([1, 1, 2, -1])) for _ in range(m)]
    mult = Matrix.zeros(F, m, m)
    for i in range(m):
        mult.rows[i][i] = u[i]
    left, right = {}, {}
    for p in range(2, 6):
        M = g[p].mul_matrix(mult).mul_matrix(ginv[p - 1])
        for i in (1, 2):
            left[(2, i, p, q0)] = M
        for i in range(1, p):
            right[(2, i, p, q0)] = M
    return OperadPresentation(F, dims, [2], left=left, right=right)


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
    return OperadPresentation(F, dims, [3], left=left)
