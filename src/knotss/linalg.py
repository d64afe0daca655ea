"""Exact linear algebra over a Field: rank, kernels, solving,
subquotients, and induced maps on subquotients.

One elimination, on sparse vectors {index: nonzero field value}:
Eliminator, which reduces by pivot lookup and also runs spectral's
filtration-order reduction; column_kernel gives the pivots and kernel
of a list of sparse columns.  A dense Matrix is a list of rows whose
mul_vector sums over the nonzero entries of its vector; rank,
kernel_basis, solve and solve_many take a Matrix and run Eliminator on
its rows or columns, and sparse(v) converts a dense vector at that
boundary.  Subspace, subquotient and induced_map hold sparse vectors,
and induced_map takes its map as a callable from sparse vectors to
sparse vectors.  Entries pass through Field.of only at the edges:
Matrix(field, rows) and the right-hand side of solve (solve_many takes
field values); everything else keeps field values as they are.
sub_scaled, the sparse update v -= c * w, also takes w with int
entries: confcoh and operads sum over Z and meet the field there.  It,
the pivot scaling of Eliminator.insert and Matrix.mul_vector do the
field arithmetic inline, with the plain operators and a reduction mod
F.p over F_p, and call no Field method per entry.
VerificationError, which these checks raise, comes from the leaf
module knotss.errors, so that every module raises and catches one class.
"""

from .errors import VerificationError


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
        m = cls(field, [], coerce=False)
        m.rows = [[c[i] for c in cols] for i in range(nrows)]
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
        p, zero = self.field.p, self.field.zero
        support = [(j, x) for j, x in enumerate(v) if x]
        out = []
        for row in self.rows:
            acc = zero
            for j, x in support:
                a = row[j]
                if a:
                    acc += a * x
            out.append(acc if p is None else acc % p)
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


def rank(M):
    elim = Eliminator(M.field)
    return sum(elim.add(sparse(row)) for row in M.rows)


def column_kernel(field, cols):
    """(pivots, kernel) of the matrix with the given sparse columns.

    Column c is a pivot when it is independent of the columns before it;
    every other column c gives the kernel vector that is 1 at c and 0 at
    the other non-pivots, as a sparse vector.  Once the pivots are fixed
    that basis is unique, so it is the one reduced row echelon form
    gives.
    """
    one = field.one
    elim = Eliminator(field, track=True)
    pivots, kernel = [], []
    for c, col in enumerate(cols):
        relation = elim.insert(col, c)
        if relation is None:
            pivots.append(c)
        else:
            relation[c] = one
            kernel.append(relation)
    return pivots, kernel


def kernel_basis(M):
    """A basis of {v : Mv = 0}, as dense vectors."""
    zero = M.field.zero
    _, kernel = column_kernel(M.field, [sparse(col) for col in M.columns()])
    return [[v.get(c, zero) for c in range(M.ncols)] for v in kernel]


def sparse(v):
    """The sparse form {index: value} of a dense vector."""
    return {i: x for i, x in enumerate(v) if x}


def solve(M, b):
    """Some x with Mx = b, or None if inconsistent."""
    F = M.field
    return solve_many(M, [[F.of(x) for x in b]])[0]


def solve_many(M, bs):
    """One elimination of M's columns for several right-hand sides of
    field values: for each b, the x with Mx = b that is 0 off the pivot
    columns (as in column_kernel), or None if inconsistent."""
    for b in bs:
        if len(b) != M.nrows:
            raise ValueError("dimension mismatch: %d rows, rhs of %d" % (M.nrows, len(b)))
    F = M.field
    elim = Eliminator(F, track=True)
    for c, col in enumerate(M.columns()):
        elim.insert(sparse(col), c)
    out = []
    for b in bs:
        rest, comb = elim._reduce(sparse(b), {})
        if rest:
            out.append(None)
            continue
        x = [F.zero] * M.ncols
        for c, y in comb.items():
            x[c] = F.neg(y)
        out.append(x)
    return out


def sub_scaled(F, v, c, items):
    """v -= c * w in place, for a sparse v of field values of F, a field
    value c and the (t, w_t) of w's support; a t may repeat.

    This is the one sparse update for field values: the w_t may be
    plain ints, which the product with c brings into the field, so a
    caller keeps integer coefficients (straighten, coface_terms, tree
    signs) as they are until this edge and coerces nothing per term.
    The arithmetic is inline: over F_p the difference is reduced mod p,
    over Q the Fraction operators give field values as they are.
    """
    p, zero = F.p, F.zero
    for t, x in items:
        s = v.get(t, zero) - c * x
        if p is not None:
            s %= p
        if s:
            v[t] = s
        elif t in v:  # an int w_t may be 0 mod p where v has no t
            del v[t]


class Eliminator:
    """Incremental Gaussian elimination over a field on sparse vectors,
    by the column reduction of persistent homology: each independent
    vector is stored reduced, scaled to 1 at its pivot (its largest
    index), under that pivot, and a vector is reduced by the row stored
    under its current pivot until the pivot is free or the vector is 0.
    add() reports independence; with track=True each row keeps its
    coefficients on the independent vectors by their labels.
    """

    def __init__(self, field, track=False):
        self.field = field
        # pivot -> (reduced vector, its coefficients by label)
        self.rows = {}
        self.track = track

    def _reduce(self, v, comb):
        F = self.field
        v = dict(v)
        while (pivot := max(v, default=None)) in self.rows:
            row, rcomb = self.rows[pivot]
            c = v[pivot]
            sub_scaled(F, v, c, row.items())
            if comb is not None:
                sub_scaled(F, comb, c, rcomb.items())
        return v, comb

    def add(self, v):
        """Insert v; returns True when v was independent of the span."""
        return self.insert(v) is None

    def insert(self, v, label=None):
        """Insert v under label (by default its place among the independent
        vectors) when it is independent of the span and return None;
        otherwise return the relation {label: c}, c nonzero, with
        v + sum c * (vector of that label) = 0 ({} without tracking)."""
        F = self.field
        if label is None:
            label = self.rank
        comb = {label: F.one} if self.track else None
        v, comb = self._reduce(v, comb)
        if not v:
            if comb is None:
                return {}
            del comb[label]
            return comb
        pivot = max(v)
        inv = F.inv(v[pivot])
        if inv != F.one:
            p = F.p
            v = {t: inv * x if p is None else inv * x % p
                 for t, x in v.items()}
            if comb is not None:
                comb = {t: inv * c if p is None else inv * c % p
                        for t, c in comb.items()}
        self.rows[pivot] = (v, comb)
        return None

    @property
    def rank(self):
        return len(self.rows)

    def coords_in_span(self, v):
        """Coordinates of v on the independent vectors, default labels, or None."""
        if not self.track:
            raise ValueError("eliminator built without tracking")
        F = self.field
        v, comb = self._reduce(v, {})
        if v:
            return None
        zero = F.zero
        return [F.neg(comb.get(t, zero)) for t in range(self.rank)]


class Subspace:
    """Span of independent sparse vectors inside an ambient k^n, taken
    as they are."""

    def __init__(self, field, ambient, basis):
        self.field = field
        self.ambient = ambient
        self.basis = list(basis)

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
    representatives together span Z.  f is a linear map from sparse
    vectors to sparse vectors over the subspaces' field.  Checks that f
    carries Z into Z and B into B; a violation raises VerificationError
    with the witness vector.
    """
    F = target_b.field
    belim = Eliminator(F)
    for v in target_b.basis:
        belim.add(v)
    brank = belim.rank
    for v in source_b.basis:
        if belim.add(f(v)):
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
        coords = full.coords_in_span(f(v))
        if coords is None:
            raise VerificationError("not well defined: image of %r leaves the cycle subspace" % (v,))
        cols.append(coords[target_b.dim:])
    return Matrix.from_columns(F, cols, ambient=len(target_reps))
