"""Spectral sequence of a filtered cochain complex, by exact subquotients.

Basis elements carry a bigrading (p, q): p is the filtration degree,
n = q - p the total degree.  The differential raises n by one and never
raises p; its blocks go (p, q) -> (p - r, q - r + 1) for r >= 0.  Pages
are the classical subquotients

    Z_r(p, n) = {x in F_p, degree n : D x in F_{p-r}}
    E_r(p, n) = Z_r(p, n) / (Z_{r-1}(p-1, n) + D Z_{r-1}(p+r-1, n-1))

with d_r induced by D, all by exact linear algebra over the complex's
field.  ss_pages applies D through a sparse view of its nonzero columns,
built per call and dropped with it; subspaces stay dense vectors of
field values that are never coerced again.  total_homology_graded, the
independent oracle, keeps its own dense route through D.
"""

from dataclasses import dataclass, field as dc_field

from .linalg import (Eliminator, Matrix, Subspace, VerificationError,
                     induced_map, kernel_basis, rank, solve, subquotient)


class FilteredComplex:
    """Finite cochain complex with a filtration; D given as one matrix.

    labels: external names per basis element (opaque); slots: (p, q)
    per basis element; differential column j = D(basis j).
    """

    def __init__(self, field, slots, differential, labels=None, check=True):
        self.field = field
        self.slots = [tuple(s) for s in slots]
        self.labels = list(labels) if labels is not None else list(range(len(slots)))
        self.D = differential
        n = len(self.slots)
        if self.D.nrows != n or self.D.ncols != n:
            raise ValueError("differential must be square on the basis")
        if check:
            self._validate()

    def _validate(self):
        columns = {j: dict(col)
                   for j, col in enumerate(_SparseColumns(self.D).cols) if col}
        _sparse_squares_to_zero(self.field, columns)
        for j, col in columns.items():
            pj, qj = self.slots[j]
            for i in col:
                pi, qi = self.slots[i]
                r = pj - pi
                if r < 0 or qi != qj - r + 1:
                    raise ValueError(
                        "block (%s)->(%s) violates the filtration pattern"
                        % ((pj, qj), (pi, qi)))

    @property
    def dim(self):
        return len(self.slots)

    def degrees(self):
        return sorted({q - p for (p, q) in self.slots})

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


def _coordinate_subspace(field, dim, indices):
    basis = []
    for j in indices:
        v = [field.zero] * dim
        v[j] = field.one
        basis.append(v)
    return Subspace(field, dim, basis, check=False)


def _z_subspace(C, r, p, n):
    """{x in F_p, total degree n : D x in F_{p-r}} as an ambient subspace."""
    F = C.field
    cols = C.indices(max_p=p, degree=n)
    if not cols:
        return Subspace(F, C.dim, [], check=False)
    bad_rows = [i for i in C.indices(degree=n + 1) if C.slots[i][0] > p - r]
    if not bad_rows:
        return _coordinate_subspace(F, C.dim, cols)
    A = Matrix(F, [[C.D.rows[i][j] for j in cols] for i in bad_rows], coerce=False)
    small = kernel_basis(A)
    basis = []
    for v in small.basis:
        w = [F.zero] * C.dim
        for j, c in zip(cols, v):
            w[j] = c
        basis.append(w)
    return Subspace(F, C.dim, basis, check=False)


def _span(field, ambient, vectors):
    elim = Eliminator(field)
    chosen = [v for v in vectors if any(v) and elim.add(v)]
    return Subspace(field, ambient, chosen, check=False)


def _sparse_squares_to_zero(field, columns):
    """D^2 = 0 for D given as sparse columns {j: {i: val}}."""
    F = field
    for j, col in columns.items():
        acc = {}
        for i, val in col.items():
            for t, w in columns.get(i, {}).items():
                s = F.add(acc.get(t, F.zero), F.mul(val, w))
                if s:
                    acc[t] = s
                elif t in acc:
                    del acc[t]
        if acc:
            raise VerificationError("differential does not square to zero "
                                    "(witness column %d)" % j)


class _SparseColumns:
    """D as its nonzero columns, j -> [(i, D[i][j])]; mul_vector walks
    only the support of its argument."""

    def __init__(self, D):
        self.field = D.field
        self.nrows = D.nrows
        self.cols = [[] for _ in range(D.ncols)]
        for i, row in enumerate(D.rows):
            for j, x in enumerate(row):
                if x:
                    self.cols[j].append((i, x))

    def mul_vector(self, v):
        F = self.field
        out = [F.zero] * self.nrows
        for j, x in enumerate(v):
            if x:
                for i, a in self.cols[j]:
                    out[i] = F.add(out[i], F.mul(a, x))
        return out


@dataclass
class SSPage:
    """One page: per slot (-p, q) a dimension, representatives in the
    total complex, and the matrix of d_r out of the slot."""

    r: int
    table: dict = dc_field(default_factory=dict)  # (-p, q) -> entry dict

    def dim(self, mp, q):
        e = self.table.get((mp, q))
        return e["dim"] if e else 0

    def dims(self):
        return {slot: e["dim"] for slot, e in self.table.items() if e["dim"]}

    def dr_rank(self, mp, q):
        e = self.table.get((mp, q))
        return e["d_rank"] if e else 0


def ss_pages(C, r_max):
    """Pages E_0 .. E_{r_max} with induced differentials.

    Each step also verifies dim E_{r+1} = dim ker d_r - rank d_r at
    every slot (homology consistency of consecutive pages); a mismatch
    raises VerificationError.
    """
    F = C.field
    D = _SparseColumns(C.D)
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
                img = [D.mul_vector(v) for v in Z(r - 1, p + r - 1, n - 1).basis]
                b = _span(F, C.dim, Z(r - 1, p - 1, n).basis + img)
            cache_slot[key] = (b,) + subquotient(Z(r, p, n), b)
        return cache_slot[key]

    for r in range(r_max + 1):
        page = SSPage(r)
        for (p, q) in pq_slots:
            b, dim, reps = slot(r, p, q)
            tp, tq = p - r, q - r + 1
            tb, _, treps = slot(r, tp, tq)
            d = induced_map(D, b, reps, tb, treps)
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

    via ranks of stacked column matrices only.
    """
    F = C.field
    out = {}
    for n in C.degrees():
        deg_idx = C.indices(degree=n)
        prev_idx = C.indices(degree=n - 1)
        # im D_{n-1}
        im_cols = []
        for j in prev_idx:
            col = C.D.column(j)
            if any(col):
                im_cols.append(col)
        # ker D_n inside the degree-n coordinate block
        A_rows = C.indices(degree=n + 1)
        if deg_idx:
            A = Matrix(F, [[C.D.rows[i][j] for j in deg_idx] for i in A_rows],
                       coerce=False)
            kb = kernel_basis(A) if A_rows else None
            if kb is None:
                small = [[F.one if a == b else F.zero for a in range(len(deg_idx))]
                         for b in range(len(deg_idx))]
            else:
                small = kb.basis
            ker_vecs = []
            for v in small:
                w = [F.zero] * C.dim
                for j, c in zip(deg_idx, v):
                    w[j] = c
                ker_vecs.append(w)
        else:
            ker_vecs = []

        # intersection of the kernel with F_p, done by elimination on the
        # coordinates above filtration p
        def ker_cap_dim(p):
            if not ker_vecs:
                return 0, []
            high = [j for j in deg_idx if C.slots[j][0] > p]
            if not high:
                return len(ker_vecs), ker_vecs
            M = Matrix(F, [[v[j] for v in ker_vecs] for j in high], coerce=False)
            kb = kernel_basis(M)
            vecs = []
            for coeffs in kb.basis:
                w = [F.zero] * C.dim
                for v, c in zip(ker_vecs, coeffs):
                    if c:
                        for t in range(C.dim):
                            if v[t]:
                                w[t] = F.add(w[t], F.mul(c, v[t]))
                vecs.append(w)
            return len(vecs), vecs

        ps = sorted({C.slots[j][0] for j in deg_idx})
        if not ps:
            continue
        lo = ps[0] - 1
        prev_rank = None
        for p in [lo] + ps:
            _, vecs = ker_cap_dim(p)
            cols = im_cols + vecs
            rk = rank(Matrix.from_columns(F, cols, ambient=C.dim)) if cols else 0
            if prev_rank is not None:
                d = rk - prev_rank
                if d:
                    out[(p, n + p)] = d
            prev_rank = rk
    return out


def random_filtered_complex(rng, field, max_basis=30, max_p=4, max_degree=3):
    """Random filtered complex with D^2 = 0, for oracle testing.

    Built as a sum of two-term complexes plus free generators, then
    conjugated by a random unipotent, filtration-lowering change of
    basis (which preserves the allowed block pattern and D^2 = 0).
    """
    n_pairs = rng.randint(0, max_basis // 2)
    n_free = rng.randint(0, max_basis - 2 * n_pairs)
    slots = []
    pairs = []
    for _ in range(n_pairs):
        p = rng.randint(0, max_p)
        deg = rng.randint(0, max_degree - 1)
        r = rng.randint(0, p)
        src = (p, p + deg)
        tgt = (p - r, p + deg - r + 1)
        pairs.append((len(slots), len(slots) + 1))
        slots.extend([src, tgt])
    for _ in range(n_free):
        p = rng.randint(0, max_p)
        deg = rng.randint(0, max_degree)
        slots.append((p, p + deg))
    dim = len(slots)
    D = Matrix.zeros(field, dim, dim)
    for (j, i) in pairs:
        D.rows[i][j] = field.of(rng.randint(1, 4))
    # unipotent change of basis: g = I + (same degree, strictly lower p)
    g = Matrix.identity(field, dim)
    for j in range(dim):
        for i in range(dim):
            pi, qi = slots[i]
            pj, qj = slots[j]
            if qi - pi == qj - pj and pi < pj and rng.random() < 0.3:
                g.rows[i][j] = field.of(rng.randint(-2, 2))
    ginv_cols = [solve(g, Matrix.identity(field, dim).column(j)) for j in range(dim)]
    ginv = Matrix.from_columns(field, ginv_cols, ambient=dim)
    Dc = g.mul_matrix(D).mul_matrix(ginv)
    return FilteredComplex(field, slots, Dc)


def einf_dims(C):
    """E_infinity dimensions through the page machinery."""
    lo, hi = C.filtration_range()
    r_stab = max(hi - lo + 1, 1)
    pages = ss_pages(C, r_stab + 1)
    last = pages[-1]
    return {(-mp, q): e["dim"] for (mp, q), e in last.table.items() if e["dim"]}
