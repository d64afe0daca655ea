"""The dense presentation route of the Hochschild complex, kept beside
the tests: an operad given by explicit composition matrices
(OperadPresentation), its dual differential delta as blocks of dense
columns (_delta_blocks, hochschild_delta), the complex it defines
(hochschild_complex), the second-page differential by lifting
(d2_via_lifting), and two synthetic presentations that cross-check the
page machinery (pointwise_presentation, toy_mu3_presentation).  The
engine builds the Sinha complex from hochschild.delta_columns and needs
none of it.  delta_columns here is the engine's d_1 loop as it was
before it skipped cofaces: every coface pullback of every source."""

from knotss.confcoh import coface_terms
from knotss.linalg import Matrix, rank, solve_many
from knotss.spectral import FilteredComplex


def delta_columns(p, q, sources, index):
    """d_1 over Z out of slot (p, q), one sparse column {row: int} per
    source: the sum of all p + 1 coface images, the i-th signed (-1)^i,
    images outside index dropped; a sum that cancels stays as a 0 entry."""
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
