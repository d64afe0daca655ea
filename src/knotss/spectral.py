"""Spectral sequence of a filtered cochain complex, by exact linear algebra.

Basis elements carry a bigrading (p, q): p is the filtration degree,
n = q - p the total degree.  The differential raises n by one and never
raises p; its blocks go (p, q) -> (p - r, q - r + 1) for r >= 0.  Pages
are the classical subquotients

    Z_r(p, n) = {x in F_p, degree n : D x in F_{p-r}}
    E_r(p, n) = Z_r(p, n) / (Z_{r-1}(p-1, n) + D Z_{r-1}(p+r-1, n-1))

with d_r induced by D, over the complex's field.  D is stored once, as
its nonzero columns {j: {i: value}}; FilteredComplex.apply multiplies
by it with the field arithmetic inline, as linalg.sub_scaled does.

Two routes compute the pages.  ss_pages builds every Z, B,
representative and induced d_r matrix by subquotients of sparse vectors
(only the d_r matrices are dense); the callers that need representatives
or the d_r matrices read it.
page_ranks and einf_dims read dimensions and ranks off one column
reduction of D in filtration order, as in persistent homology, which
linalg.Eliminator runs on D's rows renamed to that order: a pair
(tau, sigma) with r = p_sigma - p_tau lives on E_0 .. E_r at both of its
slots and adds 1 to the rank of d_r out of sigma's slot, and an unpaired
element survives to E_infinity.  einf_dims reads the pairs.
`knotss ss-table` reads neither route: its complex has every entry in a
block (p, q) -> (p - 1, q), and hochschild's block route gives its pages
from one rank per block.
total_homology_graded, the oracle for E_infinity, reads neither route:
it takes ranks of images and filtered kernels of D's sparse columns,
with one column_kernel per total degree in (p, index) order, whose
prefixes are the filtered kernels, and the same Eliminator (the tests
keep a separate reduction loop and the per-prefix oracle).
"""

from .linalg import (Eliminator, Matrix, Subspace, VerificationError,
                     column_kernel, induced_map, rank, sub_scaled, subquotient)


class FilteredComplex:
    """Finite cochain complex with a filtration; D given as sparse columns.

    slots: (p, q) per basis element; columns: {j: {i: value}}, the
    nonzero entries of D(basis j) as field values.  The constructor
    checks that every index lies in the basis, that no stored value is
    zero, that D squares to zero and that every entry fits the
    filtration pattern.
    """

    def __init__(self, field, slots, columns):
        self.field = field
        self.slots = [tuple(s) for s in slots]
        n = len(self.slots)
        self.columns = {}
        for j, col in columns.items():
            if not 0 <= j < n:
                raise ValueError("column %r outside the basis of %d" % (j, n))
            for i, val in col.items():
                if not 0 <= i < n:
                    raise ValueError("row %r of column %d outside the basis of %d"
                                     % (i, j, n))
                if not val:
                    raise ValueError("stored zero at (%d, %d)" % (i, j))
            if col:
                self.columns[j] = dict(col)
        for j, col in self.columns.items():
            if self.apply(col):
                raise VerificationError("differential does not square to zero "
                                        "(witness column %d)" % j)
            pj, qj = self.slots[j]
            for i in col:
                pi, qi = self.slots[i]
                r = pj - pi
                if r < 0 or qi != qj - r + 1:
                    raise ValueError(
                        "block (%s)->(%s) violates the filtration pattern"
                        % ((pj, qj), (pi, qi)))

    @property
    def D(self):
        """D as a dense Matrix, built on each access."""
        D = Matrix.zeros(self.field, self.dim, self.dim)
        for j, col in self.columns.items():
            for i, val in col.items():
                D.rows[i][j] = val
        return D

    def apply(self, v):
        """The sparse product D v of a sparse vector v."""
        p, zero = self.field.p, self.field.zero
        out = {}
        for j, x in v.items():
            col = self.columns.get(j)
            if col is None:
                continue
            for i, a in col.items():
                s = out.get(i, zero) + a * x
                if p is not None:
                    s %= p
                if s:
                    out[i] = s
                else:
                    del out[i]
        return out

    @property
    def dim(self):
        return len(self.slots)

    def filtration_range(self):
        ps = [p for (p, _) in self.slots]
        return (min(ps), max(ps)) if ps else (0, 0)

    def indices(self, max_p=None, degree=None):
        out = []
        for j, (p, q) in enumerate(self.slots):
            if max_p is not None and p > max_p:
                continue
            if degree is not None and q - p != degree:
                continue
            out.append(j)
        return out


def _z_subspace(C, r, p, n):
    """{x in F_p, total degree n : D x in F_{p-r}} as an ambient subspace."""
    cols = C.indices(max_p=p, degree=n)
    # D x lies in degree n + 1, so only the filtration of its rows counts
    bad = [{i: x for i, x in C.columns.get(j, {}).items()
            if C.slots[i][0] > p - r} for j in cols]
    _, kernel = column_kernel(C.field, bad)
    return Subspace(C.field, C.dim, [{cols[k]: x for k, x in v.items()}
                                     for v in kernel])


def _span(field, ambient, vectors):
    elim = Eliminator(field)
    return Subspace(field, ambient, [v for v in vectors if v and elim.add(v)])


class SSPage:
    """One page: per slot (-p, q) an entry with the dimension ("dim"),
    the rank of d_r out of the slot ("d_rank") and its target slot
    ("target"); ss_pages adds representatives in the total complex as
    sparse vectors ("reps") and the matrix of d_r ("d")."""

    def __init__(self, r, table=None):
        self.r = r
        self.table = {} if table is None else table  # (-p, q) -> entry dict

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.r, self.table) == (other.r, other.table)

    def __repr__(self):
        return "SSPage(r=%r, table=%r)" % (self.r, self.table)

    def dim(self, mp, q):
        e = self.table.get((mp, q))
        return e["dim"] if e else 0

    def dims(self):
        return {slot: e["dim"] for slot, e in self.table.items() if e["dim"]}


def ss_pages(C, r_max):
    """Pages E_0 .. E_{r_max} with induced differentials.

    Each step also verifies dim E_{r+1} = dim ker d_r - rank d_r at
    every slot (homology consistency of consecutive pages); a mismatch
    raises VerificationError.
    """
    F = C.field
    pq_slots = sorted(set(C.slots))
    pages = []
    cache_z, cache_slot = {}, {}

    def Z(r, p, n):
        key = (r, p, n)
        if key not in cache_z:
            cache_z[key] = _z_subspace(C, r, p, n)
        return cache_z[key]

    def slot(r, p, q):
        """(b, dim, reps) of E_r at (p, q), computed once."""
        key = (r, p, q)
        if key not in cache_slot:
            n = q - p
            if r == 0:
                b = Z(0, p - 1, n)
            else:
                img = [C.apply(v) for v in Z(r - 1, p + r - 1, n - 1).basis]
                b = _span(F, C.dim, Z(r - 1, p - 1, n).basis + img)
            cache_slot[key] = (b,) + subquotient(Z(r, p, n), b)
        return cache_slot[key]

    for r in range(r_max + 1):
        page = SSPage(r)
        for (p, q) in pq_slots:
            b, dim, reps = slot(r, p, q)
            tp, tq = p - r, q - r + 1
            tb, _, treps = slot(r, tp, tq)
            d = induced_map(C.apply, b, reps, tb, treps)
            page.table[(-p, q)] = {"dim": dim, "reps": reps,
                                   "d": d, "d_rank": rank(d),
                                   "target": (-tp, tq)}
        pages.append(page)
    # consistency: dim E_{r+1} = ker/im dimension count of (E_r, d_r)
    for r in range(r_max):
        cur, nxt = pages[r], pages[r + 1]
        for (mp, q), e in cur.table.items():
            incoming = 0
            sp, sq = -mp + r, q + r - 1
            src = cur.table.get((-sp, sq))
            if src is not None and src["target"] == (mp, q):
                incoming = src["d_rank"]
            expected = e["dim"] - e["d_rank"] - incoming
            got = nxt.dim(mp, q)
            if got != expected:
                raise VerificationError(
                    "page inconsistency at r=%d slot %s: E_{r+1}=%d, "
                    "homology of (E_r,d_r)=%d" % (r, (mp, q), got, expected))
    return pages


def total_homology_graded(C):
    """Associated graded of H(Tot) by plain rank arithmetic.

    Independent of the page machinery: for each total degree n and
    filtration level p computes

        dim (ker D_n cap F_p + im D_{n-1}) - dim (ker D_n cap F_{p-1} + im D_{n-1})

    One column_kernel per degree n runs over D's columns of degree n in
    (p, index) order.  The kernel vector of a non-pivot column c is 0
    past c, so it lies in F_{p_c}, and those with p_c <= p span
    ker D_n cap F_p (a kernel of the prefix through level p).  An
    Eliminator holding im D_{n-1} takes them in column order, and each
    one that raises its rank adds 1 at its column's slot.
    """
    F = C.field
    by_degree = {}
    for j, (p, q) in enumerate(C.slots):
        by_degree.setdefault(q - p, []).append(j)
    out = {}
    for n in sorted(by_degree):
        elim = Eliminator(F)
        for j in by_degree.get(n - 1, ()):
            if j in C.columns:
                elim.add(C.columns[j])
        cols = sorted(by_degree[n], key=lambda j: (C.slots[j][0], j))
        _, kernel = column_kernel(F, [C.columns.get(j, {}) for j in cols])
        for v in kernel:
            if elim.add({cols[k]: x for k, x in v.items()}):
                p = C.slots[cols[max(v)]][0]
                out[(p, n + p)] = out.get((p, n + p), 0) + 1
    return out


def random_filtered_complex(rng, field, max_basis=30):
    """Random filtered complex with D^2 = 0, for oracle testing: slots
    with filtration p <= 4 and q - p <= 3.

    Built as a sum of two-term complexes plus free generators, then
    conjugated by a random unipotent, filtration-lowering change of
    basis g = 1 + N (which preserves the allowed block pattern and
    D^2 = 0), on sparse columns: D is {source: (target, weight)}, with
    no entry where a weight vanishes in the field.  N strictly lowers
    p, so one pass in increasing p gives g^-1 e_j = e_j - sum_i
    N_ij g^-1 e_i from columns already known, and column j of
    g D g^-1 sums, over D's entries, w e_s -> e_t, the entry of
    g^-1 e_j at s times w (e_t + N e_t).
    """
    n_pairs = rng.randint(0, max_basis // 2)
    n_free = rng.randint(0, max_basis - 2 * n_pairs)
    slots = []
    pairs = []
    for _ in range(n_pairs):
        p = rng.randint(0, 4)
        deg = rng.randint(0, 2)
        r = rng.randint(0, p)
        src = (p, p + deg)
        tgt = (p - r, p + deg - r + 1)
        pairs.append((len(slots), len(slots) + 1))
        slots.extend([src, tgt])
    for _ in range(n_free):
        p = rng.randint(0, 4)
        deg = rng.randint(0, 3)
        slots.append((p, p + deg))
    dim = len(slots)
    one = field.one
    D = {}
    for (j, t) in pairs:
        if w := field.of(rng.randint(1, 4)):
            D[j] = (t, w)
    # N = g - 1, by columns: same degree, strictly lower p
    N = [{} for _ in range(dim)]
    for j in range(dim):
        pj, qj = slots[j]
        for i in range(dim):
            pi, qi = slots[i]
            if qi - pi == qj - pj and pi < pj and rng.random() < 0.3:
                if x := field.of(rng.randint(-2, 2)):
                    N[j][i] = x
    ginv = [None] * dim
    for j in sorted(range(dim), key=lambda j: slots[j][0]):
        ginv[j] = h = {j: one}
        for i, x in N[j].items():
            sub_scaled(field, h, x, ginv[i].items())
    columns = {}
    for j in range(dim):
        col = {}
        for k, (t, w) in D.items():
            x = ginv[j].get(k)
            if x:
                sub_scaled(field, col, field.neg(field.mul(x, w)),
                           ((t, one), *N[t].items()))
        if col:
            columns[j] = {i: col[i] for i in sorted(col)}
    return FilteredComplex(field, slots, columns)


def _reduce(C):
    """Column reduction of D in filtration order: (order, R, V).

    order[j] is the place of basis element j in the (p, j) order.  D's
    rows are renamed to these places, so a column's pivot (its entry
    latest in the order) is its largest index, and one Eliminator takes
    the columns in the order, labelled by index.  An independent column
    j reads back its stored row as R[j] and the row's coefficients as
    V[j]; a dependent one has R[j] = {} and V[j] its relation plus j.
    So R[j] = D V[j]; R and V hold only the nonzero columns of D.
    """
    F = C.field
    basis = sorted(range(C.dim), key=lambda j: (C.slots[j][0], j))
    order = {j: k for k, j in enumerate(basis)}
    elim = Eliminator(F, track=True)
    R, V, reduced = {}, {}, []
    for j in sorted(C.columns, key=order.get):
        relation = elim.insert({order[i]: x for i, x in C.columns[j].items()}, j)
        if relation is None:
            reduced.append(j)
        else:
            relation[j] = F.one
            R[j], V[j] = {}, relation
    # the stored columns keep their insertion order
    for j, (row, comb) in zip(reduced, elim.rows.values()):
        R[j], V[j] = {basis[k]: x for k, x in row.items()}, comb
    return order, R, V


def filtration_pairs(C):
    """(pairs, unpaired) of the reduction of D in filtration order.

    pairs lists (tau, sigma) with tau the pivot of sigma's reduced
    column, in increasing tau; unpaired lists the other basis elements.
    _reduce's output is checked before it is read: every V[j] must be
    triangular in the order with a nonzero diagonal entry, D V[j] must
    equal R[j], and no two reduced columns may share a pivot.  A
    violation raises VerificationError naming the column.
    """
    order, R, V = _reduce(C)
    owner = {}
    for j in C.columns:
        v, r = V.get(j, {}), R.get(j, {})
        if not v.get(j) or any(order[t] > order[j] for t in v):
            raise VerificationError("column operations of column %d are not "
                                    "triangular in filtration order" % j)
        if C.apply(v) != r:
            raise VerificationError("reduced column %d is not D applied to "
                                    "its column operations" % j)
        if r:
            i = max(r, key=order.get)
            if i in owner:
                raise VerificationError("reduced columns %d and %d share the "
                                        "pivot %d" % (owner[i], j, i))
            owner[i] = j
    paired = set(owner) | set(owner.values())
    return (sorted(owner.items()),
            [j for j in range(C.dim) if j not in paired])


def page_ranks(C, r_max):
    """Pages E_0 .. E_{r_max} read off filtration_pairs.

    The tables have the keys of ss_pages' tables, zero-dimensional slots
    included, but each entry holds only "dim", "d_rank" and "target".
    """
    pairs, unpaired = filtration_pairs(C)
    pages = [SSPage(r, {(-p, q): {"dim": 0, "d_rank": 0,
                                  "target": (r - p, q - r + 1)}
                        for (p, q) in sorted(set(C.slots))})
             for r in range(r_max + 1)]
    for j in unpaired:
        p, q = C.slots[j]
        for page in pages:
            page.table[(-p, q)]["dim"] += 1
    for tau, sigma in pairs:
        (pt, qt), (ps, qs) = C.slots[tau], C.slots[sigma]
        r = ps - pt
        for page in pages[:r + 1]:
            page.table[(-pt, qt)]["dim"] += 1
            page.table[(-ps, qs)]["dim"] += 1
        if r <= r_max:
            pages[r].table[(-ps, qs)]["d_rank"] += 1
    return pages


def einf_dims(C):
    """E_infinity dimensions: the unpaired elements of filtration_pairs,
    counted per slot (p, q)."""
    out = {}
    for j in filtration_pairs(C)[1]:
        out[C.slots[j]] = out.get(C.slots[j], 0) + 1
    return out
