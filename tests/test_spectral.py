import random

import pytest

from knotss import linalg, spectral
from knotss.fields import F2, F3, QQ
from knotss.linalg import Matrix, VerificationError, sparse
from knotss.spectral import (FilteredComplex, einf_dims,
                             random_filtered_complex, ss_pages,
                             total_homology_graded)

FIELDS = [F2, F3, QQ]


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
    assert pages[1].dr_rank(-2, 1) == 1
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
    assert pages[1].dr_rank(-2, 1) == 0
    assert pages[2].dims() == {(-2, 1): 1, (0, 0): 1}
    assert pages[2].dr_rank(-2, 1) == 1
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
