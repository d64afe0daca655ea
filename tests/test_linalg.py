import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotss import linalg
from knotss.fields import F2, F3, QQ, Field, field_by_name
from knotss.linalg import (Eliminator, Matrix, Subspace, VerificationError,
                           column_kernel, induced_map, kernel_basis, rank,
                           solve, solve_many, sparse, sub_scaled,
                           subquotient)

import linalg_reference

FIELDS = [F2, F3, QQ]


def field_strategy():
    return st.sampled_from(FIELDS)


def matrix_strategy(max_dim=5):
    def build(field, nrows, ncols, data):
        return Matrix(field, [[data(i, j) for j in range(ncols)] for i in range(nrows)])

    @st.composite
    def strat(draw):
        field = draw(field_strategy())
        nrows = draw(st.integers(0, max_dim))
        ncols = draw(st.integers(0, max_dim))
        entries = draw(st.lists(st.integers(-6, 6), min_size=nrows * ncols,
                                max_size=nrows * ncols))
        rows = [entries[i * ncols:(i + 1) * ncols] for i in range(nrows)]
        return Matrix(field, rows)

    return strat()


def test_field_validation():
    with pytest.raises(ValueError):
        Field(4)
    with pytest.raises(ValueError):
        field_by_name("f7")
    assert field_by_name("F2") is F2


def test_int_coercion_matches_the_fraction_route():
    # Field.of takes ints over F_p straight to their residue; it must give
    # what the Fraction route gives, and zero and one stay field elements
    for F in (F2, F3, Field(5)):
        for x in range(-20, 21):
            assert F.of(x) == F.of(Fraction(x)) == F.of(Fraction(2 * x, 2))
        assert (F.zero, F.one) == (0, 1) and type(F.zero) is int
    assert (QQ.zero, QQ.one) == (0, 1) and type(QQ.of(3)) is Fraction



@pytest.mark.parametrize("F", [F2, F3, Field(5), QQ], ids=lambda F: F.name)
@pytest.mark.parametrize("x", [0.5, 0.1, 2.0, "1/2", None],
                         ids=["half", "tenth", "float-two", "str", "none"])
def test_field_of_rejects_what_is_not_an_int_or_a_fraction(F, x):
    # a float would be rounded to a binary fraction (0.1 over Q) or
    # taken mod p (0.5 over F_3 gave 2); neither is an exact value
    with pytest.raises(TypeError, match="int or a Fraction"):
        F.of(x)


def test_field_of_names_a_denominator_that_vanishes_mod_p():
    for F, x in [(F2, Fraction(1, 2)), (F3, Fraction(1, 3)),
                 (F3, Fraction(-5, 6)), (Field(5), Fraction(7, 10))]:
        with pytest.raises(ValueError) as err:
            F.of(x)
        assert str(err.value) == ("%s has no value in F_%d: its denominator "
                                  "is divisible by %d" % (x, F.p, F.p))
    # other denominators are inverted mod p, and Q keeps the Fraction
    assert F3.of(Fraction(1, 2)) == 2 and Field(5).of(Fraction(-7, 3)) == 1
    assert QQ.of(Fraction(1, 3)) == Fraction(1, 3)
    assert type(QQ.of(Fraction(4, 2))) is Fraction


def test_qq_inverse_of_an_int_is_an_exact_fraction():
    # 1 / 3 would be the float 0.333...; an Eliminator over Q fed ints
    # scales its rows by these inverses
    for a in (1, -1, 2, 3, -6, 10 ** 20 + 1):
        inv = QQ.inv(a)
        assert type(inv) is Fraction and inv * a == 1
    elim = Eliminator(QQ)
    elim.add({0: 2, 1: 3})
    elim.add({0: 1, 2: 3})
    rows = [x for row, _ in elim.rows.values() for x in row.values()]
    assert rows == [Fraction(2, 3), 1, Fraction(1, 3), 1]
    assert all(type(x) is Fraction for x in rows)

def test_rank_trivial_cases():
    assert rank(Matrix.identity(Field(5), 3)) == 3
    assert rank(Matrix(QQ, [[1, 2], [2, 4]])) == 1
    assert rank(Matrix(F2, [[1, 1], [1, 1]])) == 1


def test_kernel_trivial_cases():
    assert kernel_basis(Matrix(F2, [[1, 1]])) == [[1, 1]]
    assert len(kernel_basis(Matrix.zeros(QQ, 2, 2))) == 2
    assert len(kernel_basis(Matrix(QQ, [[1, 2, 3]]))) == 2


def test_solve_cases():
    b = [Fraction(3), Fraction(-1)]
    assert solve(Matrix.identity(QQ, 2), b) == b
    assert solve(Matrix(QQ, [[0]]), [1]) is None
    # 2x = 1 over F_3 has x = 2
    assert solve(Matrix(F3, [[2]]), [1]) == [2]
    with pytest.raises(ValueError):
        solve(Matrix(QQ, [[1]]), [1, 2])
    # a singular system: the reduction's particular solution, and an
    # inconsistent right-hand side beside a consistent one
    M = Matrix(QQ, [[1, 1], [2, 2]])
    assert solve_many(M, [[QQ.of(3), QQ.of(6)], [QQ.one, QQ.zero]]) == \
        [[3, 0], None]


def test_subquotient_cases():
    Z = Subspace(F3, 3, [{0: 1}, {1: 1}])
    B = Subspace(F3, 3, [{0: 1}])
    dim, reps = subquotient(Z, B)
    assert dim == 1 and reps == [{1: 1}]
    assert subquotient(Z, Z)[0] == 0
    assert subquotient(Z, Subspace(F3, 3, []))[0] == 2
    with pytest.raises(ValueError):
        subquotient(B, Z)


class _SilentEliminator(Eliminator):
    """Inserts like Eliminator but reports every vector as dependent."""

    def add(self, v):
        super().add(v)
        return False


def test_subquotient_rejects_bad_subspaces(monkeypatch):
    Z = Subspace(QQ, 3, [{0: QQ.one}, {1: QQ.one}])
    # a dependent quotient basis, taken as given
    B = Subspace(QQ, 3, [{0: QQ.one}, {0: QQ.of(2)}])
    with pytest.raises(VerificationError, match="representatives"):
        subquotient(Z, B)
    # a quotient vector outside Z that the containment test misses
    monkeypatch.setattr(linalg, "Eliminator", _SilentEliminator)
    with pytest.raises(VerificationError, match="rank of Z from 2 to 3"):
        subquotient(Z, Subspace(QQ, 3, [{2: QQ.one}]))


def _sparse_map(M):
    """The map v -> Mv on sparse vectors, the form induced_map takes."""
    def f(v):
        return sparse(M.mul_vector([v.get(j, M.field.zero) for j in range(M.ncols)]))
    return f


def _dense(F, n, v):
    return [v.get(i, F.zero) for i in range(n)]


def test_induced_map_rejects_a_missed_boundary_image(monkeypatch):
    Z = Subspace(QQ, 2, [{0: QQ.one}, {1: QQ.one}])
    B = Subspace(QQ, 2, [{0: QQ.one}])
    _, reps = subquotient(Z, B)
    f = _sparse_map(Matrix(QQ, [[0, 0], [1, 0]]))
    monkeypatch.setattr(linalg, "Eliminator", _SilentEliminator)
    with pytest.raises(VerificationError, match="target B from 1 to 2"):
        induced_map(f, B, reps, B, reps)


def test_induced_map_cases():
    Z = Subspace(F3, 2, [{0: 1}, {1: 1}])
    B = Subspace(F3, 2, [{0: 1}])
    _, reps = subquotient(Z, B)
    f = _sparse_map(Matrix.identity(F3, 2))
    m = induced_map(f, B, reps, B, reps)
    assert m == Matrix.identity(F3, 1)
    # f mapping everything into the boundary induces zero
    g = _sparse_map(Matrix(F3, [[1, 1], [0, 0]]))
    assert induced_map(g, B, reps, B, reps) == Matrix.zeros(F3, 1, 1)
    # scaling a representative by 2 reads off directly
    h = _sparse_map(Matrix(F3, [[1, 0], [0, 2]]))
    assert induced_map(h, B, reps, B, reps).rows == [[2]]


def test_induced_map_rejects_ill_defined():
    Z = Subspace(QQ, 2, [{0: QQ.one}, {1: QQ.one}])
    B = Subspace(QQ, 2, [{0: QQ.one}])
    # sends the boundary outside the target boundary
    _, reps = subquotient(Z, B)
    f = _sparse_map(Matrix(QQ, [[0, 0], [1, 0]]))
    with pytest.raises(VerificationError, match="not well defined"):
        induced_map(f, B, reps, B, reps)


@given(matrix_strategy())
@settings(max_examples=80, deadline=None)
def test_rank_equals_transpose_rank(M):
    assert rank(M) == rank(M.transpose())


@given(matrix_strategy())
@settings(max_examples=80, deadline=None)
def test_rank_nullity(M):
    assert len(kernel_basis(M)) + rank(M) == M.ncols


@given(matrix_strategy())
@settings(max_examples=80, deadline=None)
def test_kernel_vectors_annihilated(M):
    z = [M.field.zero] * M.nrows
    for v in kernel_basis(M):
        assert M.mul_vector(v) == z


@given(matrix_strategy(), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=80, deadline=None)
def test_solve_exact(M, a, b, c, d, e):
    x = [M.field.of(v) for v in (a, b, c, d, e)][:M.ncols]
    rhs = M.mul_vector(x)
    sol = solve(M, rhs)
    assert sol is not None
    assert M.mul_vector(sol) == rhs


@given(matrix_strategy(), st.lists(st.lists(st.integers(-6, 6), min_size=5,
                                             max_size=5), max_size=3))
@settings(max_examples=80, deadline=None)
def test_solve_many_matches_one_rhs_at_a_time(M, raw):
    # the other right-hand sides never change a solution: pivots come
    # from M's columns only, also when M is singular
    F = M.field
    bs = [[F.of(v) for v in b[:M.nrows]] for b in raw]
    sols = solve_many(M, bs)
    assert sols == [solve(M, b) for b in bs]
    for b, x in zip(bs, sols):
        if x is None:
            aug = Matrix.from_columns(F, M.columns() + [b], ambient=M.nrows)
            assert rank(aug) > rank(M)
        else:
            assert M.mul_vector(x) == b


@given(matrix_strategy())
@settings(max_examples=60, deadline=None)
def test_subquotient_representatives_independent_mod_b(M):
    # Z = column span, B = span of the first column's multiples
    F = M.field
    cols = M.columns()
    pivots = []
    for c in cols:
        cand = pivots + [c]
        if rank(Matrix.from_columns(F, cand, ambient=M.nrows)) > len(pivots):
            pivots.append(c)
    Z = Subspace(F, M.nrows, [sparse(v) for v in pivots])
    B = Subspace(F, M.nrows, [sparse(v) for v in pivots[:1]])
    dim, reps = subquotient(Z, B)
    assert dim == Z.dim - B.dim
    joint = Matrix.from_columns(F, [_dense(F, M.nrows, v) for v in B.basis + reps],
                                ambient=M.nrows)
    assert rank(joint) == B.dim + len(reps)


# ---------------------------------------------------------------------------
# the support-walking kernels against a dense reference written out here


def _ref_mul_vector(F, rows, v):
    out = []
    for row in rows:
        acc = F.zero
        for a, x in zip(row, v):
            acc = F.add(acc, F.mul(a, x))
        out.append(acc)
    return out


def _ref_rref(F, rows, ncols):
    """Textbook Gauss-Jordan over whole rows, pivots in the first ncols
    columns: (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _ref_kernel(F, rows, ncols):
    red, pivots = _ref_rref(F, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F.zero] * ncols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(red[i][fc])
        basis.append(v)
    return basis


def _ref_solve(F, rows, ncols, b):
    red, pivots = _ref_rref(F, [r + [x] for r, x in zip(rows, b)], ncols)
    if any(r[ncols] for r in red[len(pivots):]):
        return None
    x = [F.zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return x


def _random_vector(rng, F, kind, n):
    if kind == "zero":
        return [F.zero] * n
    density = 0.25 if kind == "sparse" else 1.0
    return [F.of(rng.randint(-6, 6)) if rng.random() < density else F.zero
            for _ in range(n)]


def _random_rows(rng, F, kind, nrows, ncols):
    return [_random_vector(rng, F, kind, ncols) for _ in range(nrows)]


KINDS = ["sparse", "dense", "zero"]


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_mul_vector_matches_dense_reference(F):
    rng = random.Random(11)
    for kind in KINDS * 40:
        nrows, ncols = rng.randint(1, 7), rng.randint(0, 7)
        M = Matrix(F, _random_rows(rng, F, kind, nrows, ncols))
        for vkind in KINDS:
            v = _random_vector(rng, F, vkind, ncols)
            assert M.mul_vector(v) == _ref_mul_vector(F, M.rows, v)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_rank_kernel_solve_match_dense_reference(F):
    rng = random.Random(12)
    for kind in KINDS * 40:
        nrows, ncols = rng.randint(1, 7), rng.randint(0, 7)
        rows = _random_rows(rng, F, kind, nrows, ncols)
        M = Matrix(F, rows)
        assert rank(M) == len(_ref_rref(F, rows, ncols)[1])
        assert kernel_basis(M) == _ref_kernel(F, rows, ncols)
        assert column_kernel(F, [sparse(c) for c in M.columns()]) == \
            (_ref_rref(F, rows, ncols)[1],
             [sparse(v) for v in _ref_kernel(F, rows, ncols)])
        # one right-hand side in the column span, two random ones
        bs = [M.mul_vector(_random_vector(rng, F, "dense", ncols))]
        bs += [_random_vector(rng, F, k, nrows) for k in ("sparse", "dense")]
        assert solve_many(M, bs) == [_ref_solve(F, rows, ncols, b) for b in bs]
        assert M.rows == rows
    # no columns, and zero columns only
    assert column_kernel(F, []) == ([], [])
    assert column_kernel(F, [{}, {}]) == ([], [{0: F.one}, {1: F.one}])


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_eliminator_matches_dense_reference(F):
    rng = random.Random(13)
    for kind in KINDS * 30:
        n = rng.randint(1, 7)
        vectors = []
        for _ in range(rng.randint(0, 9)):
            if vectors and rng.random() < 0.3:
                # a combination of earlier vectors, dependent by design
                u, w = rng.choice(vectors), rng.choice(vectors)
                a, b = F.of(rng.randint(-3, 3)), F.of(rng.randint(-3, 3))
                vectors.append([F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(u, w)])
            else:
                vectors.append(_random_vector(rng, F, kind, n))
        elim, basis = Eliminator(F, track=True), []
        for v in vectors:
            cols = [[u[i] for u in basis] for i in range(n)]
            independent = _ref_solve(F, cols, len(basis), v) is None
            assert elim.add(sparse(v)) == independent
            if independent:
                basis.append(v)
        assert elim.rank == len(basis)
        cols = [[u[i] for u in basis] for i in range(n)]
        for v in vectors + [_random_vector(rng, F, k, n) for k in KINDS]:
            assert elim.coords_in_span(sparse(v)) == _ref_solve(F, cols, len(basis), v)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: F.name)
def test_labelled_insert_returns_the_relation_by_label(F, monkeypatch):
    rng = random.Random(14)

    def relation_from_ref(basis, labels, v):
        cols = [[u[i] for u in basis] for i in range(len(v))]
        x = _ref_solve(F, cols, len(basis), v)
        return None if x is None else {t: F.neg(y) for t, y in zip(labels, x) if y}

    for kind in KINDS * 30:
        n = rng.randint(1, 7)
        elim, basis, labels = Eliminator(F, track=True), [], []
        for i in range(rng.randint(0, 10)):
            if basis and rng.random() < 0.4:
                v = [F.zero] * n
                for u in basis:
                    a = F.of(rng.randint(-3, 3))
                    v = [F.add(x, F.mul(a, y)) for x, y in zip(v, u)]
            else:
                v = _random_vector(rng, F, kind, n)
            label = 1000 - 7 * i
            expected = relation_from_ref(basis, labels, v)
            assert elim.insert(sparse(v), label) == expected
            if expected is None:
                basis.append(v)
                labels.append(label)
    # a staircase u_k = e_k + a_k e_{k+1}, inserted out of order, and a
    # combination of all of it: reducing it passes every stored row once
    n = 6
    stairs = {k: {k: F.one, k + 1: F.of(rng.choice([1, -1]))} for k in range(n)}
    elim = Eliminator(F, track=True)
    for k in rng.sample(range(n), n):
        assert elim.insert(stairs[k], "u%d" % k) is None
    dense = [[stairs[k].get(i, F.zero) for i in range(n + 1)] for k in range(n)]
    coeffs = [F.of(rng.choice([1, -1])) for _ in range(n)]
    v = [F.zero] * (n + 1)
    for a, u in zip(coeffs, dense):
        v = [F.add(x, F.mul(a, y)) for x, y in zip(v, u)]
    calls, original = [], linalg.sub_scaled

    def counted(F, v, c, items):
        calls.append(c)
        original(F, v, c, items)

    monkeypatch.setattr(linalg, "sub_scaled", counted)
    assert elim.insert(sparse(v)) == \
        relation_from_ref(dense, ["u%d" % k for k in range(n)], v)
    # two subtractions per stored row: the vector and its coefficients
    assert len(calls) == 2 * n


def test_eliminator_normalizes_a_non_unit_pivot():
    for F in (F3, QQ):
        elim = Eliminator(F, track=True)
        assert elim.add({1: F.of(2), 2: F.of(1)})
        assert not elim.add({1: F.of(4), 2: F.of(2)})
        assert elim.coords_in_span({1: F.of(-2), 2: F.of(-1)}) == [F.of(-1)]
        assert elim.coords_in_span({2: F.one}) is None


def test_mul_vector_reads_the_rows_as_edited():
    # the benchmark's fault injection edits M.rows in place after building
    # M; a product that stopped reading the rows would hide it
    for F in FIELDS:
        M = Matrix(F, [[1, 0, 2], [0, 0, 1]])
        v = [F.one, F.zero, F.one]
        before = M.mul_vector(v)
        M.rows[0][0] = F.add(M.rows[0][0], F.one)
        assert M.mul_vector(v) != before
        assert M.mul_vector(v) == _ref_mul_vector(F, M.rows, v)


@pytest.mark.parametrize("F", [F2, F3, Field(5), QQ], ids=str)
def test_sub_scaled_matches_the_field_method_reference(F):
    """The inline update gives the Field-method loop's dict, with values
    of the field's type: an int in 1..p-1 over F_p, a Fraction over Q."""
    rng = random.Random(20261021)

    def value():
        if F.p is None and rng.random() < 0.5:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return F.of(rng.randint(-9, 9))

    for _ in range(300):
        v = {t: x for t in rng.sample(range(12), rng.randint(0, 8))
             if (x := value())}
        c = value()
        # int and field-value entries, repeated keys, and an int that is
        # 0 in the field at a key v lacks
        items = [(rng.randrange(14), rng.choice([rng.randint(-7, 7), value()]))
                 for _ in range(rng.randint(0, 10))]
        items.append((rng.randint(14, 20), (F.p or 0) * rng.randint(-3, 3)))
        got, want = dict(v), dict(v)
        sub_scaled(F, got, c, items)
        linalg_reference.sub_scaled(F, F.zero, want, c, items)
        assert got == want
        for x in got.values():
            if F.p is None:
                assert type(x) is Fraction and x
            else:
                assert type(x) is int and 0 < x < F.p
