"""Exact linear algebra over a Field: rank, kernels, solving,
subquotients, and induced maps on subquotients.

Matrices are dense lists of lists, but the kernels walk supports:
mul_vector sums over the nonzero entries of its vector, and _rref and
Eliminator update over those of the pivot row.  induced_map also takes
any map with .field and .mul_vector, such as the sparse view of
spectral.ss_pages.  Entries pass through Field.of only at the edges:
Matrix(field, rows), Subspace(..., check=True) and the right-hand side
of solve (solve_many takes field values); what is built from field
values (from_columns, products, kernels) keeps them as they are.
"""


class VerificationError(ValueError):
    """An exactness check failed on computed data; the message names
    the witness (a column, a slot or a vector)."""


class Matrix:
    """Dense matrix; entries are raw field values (see fields.Field)."""

    def __init__(self, field, rows, coerce=True):
        self.field = field
        if coerce:
            rows = [[field.of(x) for x in row] for row in rows]
        else:
            rows = [list(row) for row in rows]
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = widths.pop() if rows else 0

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero
        m = cls(field, [], coerce=False)
        m.rows = [[z] * ncols for _ in range(nrows)]
        m.nrows, m.ncols = nrows, ncols
        return m

    @classmethod
    def identity(cls, field, n):
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.rows[i][i] = field.one
        return m

    @classmethod
    def from_columns(cls, field, cols, ambient=None):
        """Matrix with the given columns, whose entries must already be
        field values; ambient is the row count when there are none."""
        nrows = len(cols[0]) if cols else ambient or 0
        m = cls(field, [[c[i] for c in cols] for i in range(nrows)], coerce=False)
        m.nrows, m.ncols = nrows, len(cols)
        return m

    def column(self, j):
        return [row[j] for row in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        t = Matrix(self.field, [], coerce=False)
        t.rows = [list(col) for col in zip(*self.rows)] if self.rows else []
        t.nrows, t.ncols = self.ncols, self.nrows
        return t

    def mul_vector(self, v):
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch: %d cols, vector of %d" % (self.ncols, len(v)))
        F = self.field
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.rows:
            acc = F.zero
            for j, x in support:
                a = row[j]
                if a:
                    acc = F.add(acc, F.mul(a, x))
            out.append(acc)
        return out

    def mul_matrix(self, other):
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        cols = [self.mul_vector(other.column(j)) for j in range(other.ncols)]
        return Matrix.from_columns(self.field, cols, ambient=self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.ncols == other.ncols)

    def __repr__(self):
        return "Matrix(%s, %dx%d)" % (self.field.name, self.nrows, self.ncols)


def _rref(field, rows, ncols):
    """In-place reduced row echelon form; returns pivot column list."""
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rr = rows[r]
        inv = field.inv(rr[c])
        if inv != field.one:
            rows[r] = rr = [field.mul(inv, x) for x in rr]
        support = [(t, b) for t, b in enumerate(rr) if b]
        for i, ri in enumerate(rows):
            f = ri[c]
            if f and i != r:
                for t, b in support:
                    ri[t] = field.sub(ri[t], field.mul(f, b))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(M):
    rows = [list(r) for r in M.rows]
    return len(_rref(M.field, rows, M.ncols))


def kernel_basis(M):
    """Subspace spanned by {v : Mv = 0}."""
    F = M.field
    rows = [list(r) for r in M.rows]
    pivots = _rref(F, rows, M.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(M.ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [F.zero] * M.ncols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(rows[i][fc])
        basis.append(v)
    # independent by construction: only basis vector k is nonzero at free[k]
    return Subspace(F, M.ncols, basis, check=False)


def solve(M, b):
    """Some x with Mx = b, or None if inconsistent."""
    F = M.field
    return solve_many(M, [[F.of(x) for x in b]])[0]


def solve_many(M, bs):
    """One reduction of M for several right-hand sides of field values:
    for each b, some x with Mx = b, or None if inconsistent.  Pivots come
    from M's columns only, so each x is the one solve(M, b) returns."""
    for b in bs:
        if len(b) != M.nrows:
            raise ValueError("dimension mismatch: %d rows, rhs of %d" % (M.nrows, len(b)))
    F = M.field
    n = M.ncols
    rows = [list(r) + [b[i] for b in bs] for i, r in enumerate(M.rows)]
    pivots = _rref(F, rows, n)
    out = []
    for j in range(n, n + len(bs)):
        if any(rows[i][j] for i in range(len(pivots), M.nrows)):
            out.append(None)
            continue
        x = [F.zero] * n
        for i, pc in enumerate(pivots):
            x[pc] = rows[i][j]
        out.append(x)
    return out


class Eliminator:
    """Incremental Gaussian elimination over a field.

    Maintains a row-echelon set of vectors, each kept as its support
    [(t, value), ...] in increasing t with 1 at the pivot; add() reports
    independence, and with track=True coordinates of dependent vectors in
    terms of the previously inserted independent ones are available.
    """

    def __init__(self, field, track=False):
        self.field = field
        # (pivot, support of the reduced vector, its coefficients on the
        # independent vectors inserted up to it)
        self.rows = []
        self.track = track

    def _reduce(self, v, comb):
        F = self.field
        v = list(v)
        for pivot, row, rcomb in self.rows:
            c = v[pivot]
            if c:
                for t, x in row:
                    v[t] = F.sub(v[t], F.mul(c, x))
                if comb is not None:
                    for t in range(len(rcomb)):
                        if rcomb[t]:
                            comb[t] = F.sub(comb[t], F.mul(c, rcomb[t]))
        return v, comb

    def add(self, v):
        """Insert v; returns True when v was independent of the span."""
        F = self.field
        comb = [F.zero] * self.rank + [F.one] if self.track else None
        v, comb = self._reduce(v, comb)
        row = [(t, x) for t, x in enumerate(v) if x]
        if not row:
            return False
        inv = F.inv(row[0][1])
        if inv != F.one:
            row = [(t, F.mul(inv, x)) for t, x in row]
            if comb is not None:
                comb = [F.mul(inv, c) for c in comb]
        self.rows.append((row[0][0], row, comb))
        return True

    @property
    def rank(self):
        return len(self.rows)

    def coords_in_span(self, v):
        """Coordinates of v in the inserted independent vectors, or None."""
        if not self.track:
            raise ValueError("eliminator built without tracking")
        F = self.field
        comb = [F.zero] * self.rank
        v, comb = self._reduce(v, comb)
        if any(v):
            return None
        return [F.neg(c) for c in comb]


class Subspace:
    """Span of independent column vectors inside an ambient k^n.

    check=True coerces every entry and verifies independence; check=False
    takes independent vectors of field values as they are.
    """

    def __init__(self, field, ambient, basis, check=True):
        self.field = field
        self.ambient = ambient
        if check:
            self.basis = [[field.of(x) for x in v] for v in basis]
        else:
            self.basis = [list(v) for v in basis]
        for v in self.basis:
            if len(v) != ambient:
                raise ValueError("basis vector of wrong length")
        if check and self.basis:
            if rank(Matrix.from_columns(field, self.basis)) != len(self.basis):
                raise ValueError("basis vectors are dependent")

    @property
    def dim(self):
        return len(self.basis)


def subquotient(Z, B):
    """Dimension and representatives of Z/B; B must sit inside Z."""
    if Z.field != B.field or Z.ambient != B.ambient:
        raise ValueError("incompatible subspaces")
    zspan = Eliminator(Z.field)
    for v in Z.basis:
        zspan.add(v)
    zrank = zspan.rank
    for v in B.basis:
        if zspan.add(v):
            raise ValueError("quotient subspace not contained in the ambient one")
    if zspan.rank != zrank:
        raise VerificationError("the quotient vectors raise the rank of Z "
                                "from %d to %d" % (zrank, zspan.rank))
    elim = Eliminator(Z.field)
    for v in B.basis:
        elim.add(v)
    reps = [v for v in Z.basis if elim.add(v)]
    if len(reps) != Z.dim - B.dim:
        raise VerificationError("%d representatives for dim Z - dim B = %d - %d"
                                % (len(reps), Z.dim, B.dim))
    return len(reps), reps


def induced_map(f, source_b, source_reps, target_b, target_reps):
    """Matrix of the map induced by f on (source Z/B) -> (target Z/B).

    Each side is given by its boundary subspace B and the
    representatives of Z/B that subquotient returned, so B and the
    representatives together span Z.  f is a Matrix or any linear map
    with .field and .mul_vector.  Checks that f carries Z into Z and B
    into B; a violation raises VerificationError with the witness vector.
    """
    F = f.field
    belim = Eliminator(F)
    for v in target_b.basis:
        belim.add(v)
    brank = belim.rank
    for v in source_b.basis:
        fv = f.mul_vector(v)
        if belim.add(fv):
            raise VerificationError("not well defined: image of %r leaves the boundary subspace" % (v,))
    if belim.rank != brank:
        raise VerificationError("the boundary images raise the rank of the "
                                "target B from %d to %d" % (brank, belim.rank))
    # Solve against [B-basis | representatives] and read off the rep part.
    full = Eliminator(F, track=True)
    for v in target_b.basis + target_reps:
        full.add(v)
    cols = []
    for v in source_reps:
        fv = f.mul_vector(v)
        coords = full.coords_in_span(fv)
        if coords is None:
            raise VerificationError("not well defined: image of %r leaves the cycle subspace" % (v,))
        cols.append(coords[target_b.dim:])
    return Matrix.from_columns(F, cols, ambient=len(target_reps))
