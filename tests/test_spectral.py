import random
from fractions import Fraction

import pytest

from knotss import linalg, spectral
from knotss.fields import F2, F3, QQ, Field
from knotss.linalg import Matrix, VerificationError, solve_many, sparse
from knotss.hochschild import build_sinha_complex
from knotss.spectral import (FilteredComplex, einf_dims, filtration_pairs,
                             page_ranks, random_filtered_complex, ss_pages,
                             total_homology_graded)

import linalg_reference

FIELDS = [F2, F3, QQ]


def ranks(pages):
    """(dim, d_rank, target) per slot of every page, the part of a page
    that page_ranks computes."""
    return [{slot: (e["dim"], e["d_rank"], e["target"])
             for slot, e in page.table.items()} for page in pages]


def stable_page(C):
    """The page index after which every page is E_infinity."""
    lo, hi = C.filtration_range()
    return max(hi - lo + 1, 1) + 1


# basis 0 -> basis 1 with coefficient 1
EDGE = {0: {1: QQ.one}}


def test_rejects_bad_differential():
    with pytest.raises(ValueError):
        # target slot violates the (p-r, q-r+1) pattern
        FilteredComplex(QQ, [(2, 1), (1, 5)], EDGE)
    with pytest.raises(ValueError):
        FilteredComplex(QQ, [(1, 1), (1, 2)], {0: {1: QQ.one}, 1: {0: QQ.one}})


@pytest.mark.parametrize("columns, message", [
    ({0: {2: QQ.one}}, "row 2 of column 0 outside"),
    ({0: {-1: QQ.one}}, "row -1 of column 0 outside"),
    ({2: {0: QQ.one}}, "column 2 outside"),
    ({-1: {0: QQ.one}}, "column -1 outside"),
    ({0: {1: QQ.zero}}, "stored zero at"),
], ids=["row past the basis", "negative row", "column past the basis",
        "negative column", "stored zero"])
def test_constructor_rejects_malformed_columns(columns, message):
    with pytest.raises(ValueError, match=message):
        FilteredComplex(QQ, [(2, 1), (1, 1)], columns)


def test_constructor_rejects_d_squared_nonzero():
    # x -> y -> z, each block a d_1 that fits the filtration pattern,
    # so only D^2 x = z is wrong
    with pytest.raises(VerificationError, match="witness column 0"):
        FilteredComplex(F3, [(2, 1), (1, 1), (0, 1)], {0: {1: 1}, 1: {2: 1}})


def test_two_term_drop_one():
    # x at (2,1) -> y at (1,1): d_1 an isomorphism, E_2 = 0
    C = FilteredComplex(QQ, [(2, 1), (1, 1)], EDGE)
    pages = ss_pages(C, 2)
    assert pages[1].dims() == {(-2, 1): 1, (-1, 1): 1}
    assert pages[1].table[(-2, 1)]["d_rank"] == 1
    assert pages[2].dims() == {}


def test_page_inconsistency_raises(monkeypatch):
    # overstated ranks break dim E_{r+1} = homology of (E_r, d_r) at r = 0
    C = FilteredComplex(QQ, [(2, 1), (1, 1)], EDGE)
    monkeypatch.setattr(spectral, "rank", lambda d: linalg.rank(d) + 1)
    with pytest.raises(VerificationError, match="page inconsistency at r=0"):
        ss_pages(C, 2)


def test_two_term_drop_two():
    # x at (2,1) -> y at (0,0): d_1 = 0, d_2 != 0, E_3 = 0
    C = FilteredComplex(QQ, [(2, 1), (0, 0)], EDGE)
    pages = ss_pages(C, 3)
    assert pages[1].table[(-2, 1)]["d_rank"] == 0
    assert pages[2].dims() == {(-2, 1): 1, (0, 0): 1}
    assert pages[2].table[(-2, 1)]["d_rank"] == 1
    assert pages[3].dims() == {}
    assert einf_dims(C) == {}
    assert total_homology_graded(C) == {}


def test_free_generator_survives():
    C = FilteredComplex(F2, [(3, 4)], {})
    pages = ss_pages(C, 4)
    for page in pages:
        assert page.dims() == {(-3, 4): 1}
        d = page.table[(-3, 4)]["d"]
        assert (d.nrows, d.ncols) == (0, 1)
        assert d.mul_vector([1]) == []
    assert einf_dims(C) == {(3, 4): 1}
    assert total_homology_graded(C) == {(3, 4): 1}


def test_oracle_kernel_mixes_filtrations():
    # a at (1,1) and b at (0,0) both hit c at (0,1): ker D_0 is spanned by
    # a - b, which lies in F_1 but meets F_0 only in 0
    for F in FIELDS:
        C = FilteredComplex(F, [(1, 1), (0, 0), (0, 1)],
                            {0: {2: F.one}, 1: {2: F.one}})
        assert total_homology_graded(C) == einf_dims(C) == {(1, 1): 1}


def test_euler_characteristic_conserved_across_pages():
    # d_r raises total degree q - p by one, so the alternating sum of
    # dimensions by total degree is the same on every page
    rng = random.Random(7)
    for _ in range(10):
        field = rng.choice(FIELDS)
        C = random_filtered_complex(rng, field, max_basis=14)
        pages = ss_pages(C, 3)
        totals = [sum((-1) ** (q + mp) * e["dim"]
                      for (mp, q), e in page.table.items())
                  for page in pages]
        assert len(set(totals)) == 1


def test_einf_matches_total_homology_oracle():
    rng = random.Random(20260823)
    for k in range(25):
        field = FIELDS[k % 3]
        C = random_filtered_complex(rng, field, max_basis=20)
        assert einf_dims(C) == total_homology_graded(C), \
            "oracle mismatch on complex %d" % k


def test_ss_pages_last_page_matches_total_homology_oracle():
    # the complexes of test_einf_matches_total_homology_oracle; einf_dims
    # reads the pairs, so this keeps the page engine under the oracle
    rng = random.Random(20260823)
    for k in range(25):
        field = FIELDS[k % 3]
        C = random_filtered_complex(rng, field, max_basis=20)
        last = ss_pages(C, stable_page(C))[-1]
        assert {(-mp, q): d for (mp, q), d in last.dims().items()} == \
            total_homology_graded(C), "oracle mismatch on complex %d" % k


def reference_total_homology_graded(C):
    """The E_infinity oracle prefix by prefix: for each total degree n
    and filtration level p, the column_kernel of D's columns of degree n
    and filtration at most p, in index order, added to an Eliminator
    that holds im D_{n-1}; a rise in its rank over level p is the
    dimension at (p, n + p)."""
    F = C.field
    out = {}
    for n in sorted({q - p for (p, q) in C.slots}):
        elim = linalg.Eliminator(F)
        for j in C.indices(degree=n - 1):
            if j in C.columns:
                elim.add(C.columns[j])
        prev_rank = elim.rank
        for p in sorted({C.slots[j][0] for j in C.indices(degree=n)}):
            cols = C.indices(max_p=p, degree=n)
            _, kernel = linalg.column_kernel(
                F, [C.columns.get(j, {}) for j in cols])
            for v in kernel:
                elim.add({cols[k]: x for k, x in v.items()})
            if elim.rank > prev_rank:
                out[(p, n + p)] = elim.rank - prev_rank
            prev_rank = elim.rank
    return out


def reference_random_filtered_complex(rng, field, max_basis=30, seen=None):
    """random_filtered_complex by the dense route: D as a Matrix, g as a
    Matrix, g^-1 from solve_many on the identity's columns and
    g D g^-1 from two mul_matrix products; the same draws from rng.
    When seen is a set, it gets "no pairs", "N empty" and ("vanished",
    p) for a pair weight that is 0 in F_p, as they occur."""
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
    D = Matrix.zeros(field, dim, dim)
    for (j, i) in pairs:
        D.rows[i][j] = field.of(rng.randint(1, 4))
        if seen is not None and not D.rows[i][j]:
            seen.add(("vanished", field.p))
    # unipotent change of basis: g = I + (same degree, strictly lower p)
    g = Matrix.identity(field, dim)
    for j in range(dim):
        for i in range(dim):
            pi, qi = slots[i]
            pj, qj = slots[j]
            if qi - pi == qj - pj and pi < pj and rng.random() < 0.3:
                g.rows[i][j] = field.of(rng.randint(-2, 2))
    if seen is not None:
        if not pairs:
            seen.add("no pairs")
        if g == Matrix.identity(field, dim):
            seen.add("N empty")
    ginv = Matrix.from_columns(
        field, solve_many(g, Matrix.identity(field, dim).columns()), ambient=dim)
    Dc = g.mul_matrix(D).mul_matrix(ginv)
    return FilteredComplex(field, slots,
                           {j: sparse(col) for j, col in enumerate(Dc.columns())})


class _Forbidden:
    """Stands in for a dense routine that the sparse generator must not
    reach: calling it or reading any attribute raises."""

    def __init__(self, name):
        self.name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError("random_filtered_complex called %s" % self.name)

    def __getattr__(self, attr):
        raise AssertionError("random_filtered_complex read %s.%s"
                             % (self.name, attr))


def _layout(C):
    """Everything of a complex the two routes must agree on, in order:
    the slots, the column order, and each column's entry order, values
    and value types."""
    return C.slots, [(j, [(i, x, type(x)) for i, x in col.items()])
                     for j, col in C.columns.items()]


def test_random_complex_matches_the_dense_reference(monkeypatch):
    # the sparse conjugation against the dense one, draw by draw from two
    # generators seeded alike: the same complex, stored in the same
    # order, and the same generator state after the draw
    fields = [F2, F3, Field(5), Field(7), QQ]
    seen = set()
    for seed in (1, 2, 3):
        for field in fields:
            for max_basis in (0, 1, 2, 8, 14, 30):
                ref_rng, rng = random.Random(seed), random.Random(seed)
                for k in range(12):
                    want = reference_random_filtered_complex(
                        ref_rng, field, max_basis, seen=seen)
                    with monkeypatch.context() as m:
                        m.setattr(spectral, "Matrix", _Forbidden("Matrix"))
                        m.setattr(linalg, "solve_many",
                                  _Forbidden("solve_many"))
                        got = random_filtered_complex(rng, field, max_basis)
                    where = (seed, field, max_basis, k)
                    assert _layout(got) == _layout(want), where
                    assert rng.getstate() == ref_rng.getstate(), where
    # the draws the sparse route treats apart all occur in the sample
    assert {("vanished", 2), ("vanished", 3), "N empty", "no pairs"} <= seen


def _oracle_without_pairs(monkeypatch, C):
    """total_homology_graded with spectral._reduce made to raise, so the
    oracle is seen to read no pair."""
    def no_reduce(C):
        raise AssertionError("the oracle reduced D")

    with monkeypatch.context() as m:
        m.setattr(spectral, "_reduce", no_reduce)
        return total_homology_graded(C)


def test_oracle_matches_the_per_prefix_reference_on_random_complexes(
        monkeypatch):
    # one kernel per degree in (p, index) order against one kernel per
    # filtration prefix in index order: equal dimensions, and equal key
    # order, on 360 complexes of up to 8 and up to 30 basis elements
    rng = random.Random(3101)
    nonzero = 0
    for k in range(360):
        field = FIELDS[k % 3]
        C = random_filtered_complex(rng, field, max_basis=8 if k < 180 else 30)
        got = _oracle_without_pairs(monkeypatch, C)
        want = reference_total_homology_graded(C)
        assert list(got.items()) == list(want.items()), \
            "oracle mismatch on complex %d" % k
        nonzero += bool(want)
    assert nonzero > 300


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "plain"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda F: F.name)
def test_oracle_matches_the_per_prefix_reference_on_the_sinha_complex(
        monkeypatch, field, normalized):
    for m in range(1, 7):
        C = build_sinha_complex(m, field, normalized=normalized)
        got = _oracle_without_pairs(monkeypatch, C)
        assert list(got.items()) == \
            list(reference_total_homology_graded(C).items()), m


def test_pairs_match_ss_pages_on_random_complexes():
    rng = random.Random(31)
    for k in range(300):
        field = FIELDS[k % 3]
        C = random_filtered_complex(rng, field, max_basis=12)
        r_max = stable_page(C)
        assert ranks(page_ranks(C, r_max)) == ranks(ss_pages(C, r_max)), \
            "page mismatch on complex %d" % k


@pytest.mark.parametrize("field, normalized", [
    (F2, True), (F3, True), (QQ, True), (F3, False)],
    ids=["f2", "f3", "q", "f3-plain"])
def test_pairs_match_ss_pages_on_the_sinha_complex(field, normalized):
    C = build_sinha_complex(6, field, normalized=normalized)
    assert ranks(page_ranks(C, 6)) == ranks(ss_pages(C, 6))


def reference_reduce(C):
    """The column reduction of D in filtration order as a loop of its own,
    outside linalg.Eliminator, with the Field-method sparse update of
    linalg_reference: (order, R, V), the form of spectral._reduce.

    While the pivot of R[j] (its entry latest in the (p, j) order) is the
    pivot of an earlier column k, the multiple of R[k] that clears it is
    subtracted, and the same multiple of V[k] from V[j].
    """
    F = C.field
    zero = F.zero
    order = {j: k for k, j in enumerate(
        sorted(range(C.dim), key=lambda j: (C.slots[j][0], j)))}
    R, V, owner = {}, {}, {}
    for j in sorted(C.columns, key=order.get):
        r, v = dict(C.columns[j]), {j: F.one}
        while r:
            i = max(r, key=order.get)
            k = owner.get(i)
            if k is None:
                owner[i] = j
                break
            c = F.mul(r[i], F.inv(R[k][i]))
            linalg_reference.sub_scaled(F, zero, r, c, R[k].items())
            linalg_reference.sub_scaled(F, zero, v, c, V[k].items())
        R[j], V[j] = r, v
    return order, R, V


def _reference_pairs(monkeypatch, C):
    """filtration_pairs, checks included, read off reference_reduce."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_reduce", reference_reduce)
        return filtration_pairs(C)


def test_pairs_match_the_reference_reduction_on_random_complexes(monkeypatch):
    rng = random.Random(43)
    for k in range(150):
        field = FIELDS[k % 3]
        C = random_filtered_complex(rng, field, max_basis=12 if k < 90 else 30)
        assert filtration_pairs(C) == _reference_pairs(monkeypatch, C), \
            "pair mismatch on complex %d" % k


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "plain"])
@pytest.mark.parametrize("field", FIELDS, ids=lambda F: F.name)
def test_pairs_match_the_reference_reduction_on_the_sinha_complex(
        monkeypatch, field, normalized):
    for m in range(1, 7):
        C = build_sinha_complex(m, field, normalized=normalized)
        assert filtration_pairs(C) == _reference_pairs(monkeypatch, C), m


def test_int_entries_over_q_reduce_like_fraction_entries():
    # ints are exact over Q too: the reduction must divide by pivots in
    # Fractions, not in floats, and give the pairs and pages of the
    # Fraction-built complex
    rng = random.Random(47)
    complexes = [random_filtered_complex(rng, QQ, max_basis=14)
                 for _ in range(60)]
    complexes += [build_sinha_complex(5, QQ, normalized=n) for n in (True, False)]
    divided = 0
    for C in complexes:
        columns = {j: {i: int(x) for i, x in col.items()}
                   for j, col in C.columns.items()}
        assert all(x.denominator == 1 for col in C.columns.values()
                   for x in col.values())
        Ci = FilteredComplex(QQ, C.slots, columns)
        assert filtration_pairs(Ci) == filtration_pairs(C)
        assert ranks(page_ranks(Ci, 6)) == ranks(page_ranks(C, 6))
        _, R, V = spectral._reduce(C)
        _, Ri, Vi = spectral._reduce(Ci)
        assert (Ri, Vi) == (R, V)
        # V holds Fractions only; a reduced column keeps an int entry only
        # where no division touched it
        assert all(type(x) is Fraction for v in Vi.values() for x in v.values())
        assert all(type(x) in (int, Fraction) for r in Ri.values()
                   for x in r.values())
        divided += sum(x.denominator > 1 for v in Vi.values() for x in v.values())
    assert divided  # some pivot was not +-1


def _corrupt(monkeypatch, corruption):
    """Make spectral._reduce hand a corrupted (order, R, V) on."""
    original = spectral._reduce

    def corrupted(C):
        order, R, V = original(C)
        corruption(R, V)
        return order, R, V

    monkeypatch.setattr(spectral, "_reduce", corrupted)


def _scale_entry(F, col, factor):
    t = min(col)
    col[t] = F.mul(col[t], F.of(factor))


def test_corrupted_reduction_raises(monkeypatch):
    # x, u at (2,1) with D x = y at (1,1) and D u = y + w, w at (0,0);
    # z at (3,1) is a cycle.  Reducing u against x leaves R_u = w with
    # V_u = u - x
    C = FilteredComplex(F3, [(2, 1), (1, 1), (2, 1), (0, 0), (3, 1)],
                        {0: {1: 1}, 2: {1: 1, 3: 1}})
    assert filtration_pairs(C) == ([(1, 0), (3, 2)], [4])
    with monkeypatch.context() as m:
        _corrupt(m, lambda R, V: _scale_entry(F3, R[2], 2))
        with pytest.raises(VerificationError, match="reduced column 2 is not"):
            filtration_pairs(C)
    with monkeypatch.context() as m:
        _corrupt(m, lambda R, V: _scale_entry(F3, V[2], 2))
        with pytest.raises(VerificationError, match="reduced column 2 is not"):
            filtration_pairs(C)
    with monkeypatch.context() as m:
        # the unreduced column: D V_u = R_u holds, but the pivot is x's
        _corrupt(m, lambda R, V: (R.update({2: {1: 1, 3: 1}}),
                                  V.update({2: {2: 1}})))
        with pytest.raises(VerificationError, match="share the pivot 1"):
            filtration_pairs(C)
    with monkeypatch.context() as m:
        # R_u = D V_u still, but V_u reaches z, past u in filtration order
        _corrupt(m, lambda R, V: V[2].update({4: 1}))
        with pytest.raises(VerificationError, match="not triangular"):
            filtration_pairs(C)


def test_sparse_columns_match_dense_product():
    rng = random.Random(11)
    for k in range(30):
        field = FIELDS[k % 3]
        C = random_filtered_complex(rng, field, max_basis=16)
        vectors = Matrix.identity(field, C.dim).columns()
        vectors.append([field.of(rng.randint(-3, 3)) for _ in range(C.dim)])
        for v in vectors:
            assert C.apply(sparse(v)) == sparse(C.D.mul_vector(v))


def test_ss_pages_leaves_no_state_on_the_complex():
    rng = random.Random(5)
    for field in FIELDS:
        C = random_filtered_complex(rng, field, max_basis=16)
        before = dict(vars(C))
        ss_pages(C, 3)
        assert vars(C) == before


@pytest.mark.parametrize("F", [F2, F3, Field(5), QQ], ids=str)
def test_apply_matches_the_field_method_reference(F):
    """D v with the inline arithmetic equals the Field-method loop's, on
    random complexes and vectors, with values of the field's type."""
    rng = random.Random(20261021)
    for _ in range(60):
        C = random_filtered_complex(rng, F)
        v = {j: x for j in rng.sample(range(C.dim), rng.randint(0, C.dim))
             if (x := F.of(rng.randint(-4, 4)))}
        got = C.apply(v)
        assert got == linalg_reference.apply(C, v)
        for x in got.values():
            assert type(x) is (int if F.p else Fraction) and x
            assert F.p is None or 0 < x < F.p
