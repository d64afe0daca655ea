import hashlib
import json
import os
import random
import re
import subprocess
import sys

import pytest

import knotss
from knotss.cli import main
from knotss.confcoh import (CohClass, admissible_basis, coface_terms,
                            dim_cohomology, normal_form, parse_class, sinha_d1)
from knotss import hochschild
from knotss.fields import F2, F3, QQ, Field
from knotss.hochschild import (MAX_ARITY, block_pages, block_ranks,
                               build_sinha_complex, check_d_squared,
                               conf_delta_matrix, e2_report,
                               normalized_slot, sinha_blocks)
from knotss.linalg import (Eliminator, Matrix, VerificationError,
                           kernel_basis, rank, solve_many, sparse)
from knotss.spectral import (FilteredComplex, einf_dims, page_ranks, ss_pages,
                             total_homology_graded)

import confcoh_reference
from confcoh_reference import class_to_vector, codegeneracy_pullback
import hochschild_reference
from hochschild_reference import (OperadPresentation, d2_via_lifting,
                                  hochschild_complex, hochschild_delta,
                                  pointwise_presentation, toy_mu3_presentation)

FIELDS = [F2, F3, QQ]

CHAR2_CYCLE = "g14*g23+g13*g24+g12*g34"
CHAR3_CYCLE = ("-g(1,3)*g(2,3)*g(4,5)+g(1,4)*g(2,4)*g(3,5)"
               "+g(1,4)*g(2,5)*g(3,4)+g(1,5)*g(2,4)*g(3,4)")


def plain_coface_columns(p, q, sources, index):
    """hochschild.delta_columns with every sign +1: the plain coface sum,
    built from coface_terms.  It is d_1 over F2, where -1 = 1, and no
    differential over F3 or Q; tests patch it in as a fault."""
    memo = {}
    for m in sources:
        col = {}
        for i in (range(p + 1) if index else ()):
            for mm, z in coface_terms(i, p, m, memo):
                if mm in index:
                    col[index[mm]] = col.get(index[mm], 0) + z
        yield col


def test_presentation_validation():
    with pytest.raises(ValueError):
        OperadPresentation(QQ, {(2, 0): 1}, [1])
    with pytest.raises(ValueError):
        # wrong oracle shape
        OperadPresentation(QQ, {(2, 0): 1, (3, 0): 2}, [2],
                           left={(2, 1, 3, 0): Matrix(QQ, [[1]])})
    with pytest.raises(ValueError):
        # slot out of range for mu_2
        OperadPresentation(QQ, {(2, 0): 1, (3, 0): 1}, [2],
                           left={(2, 3, 3, 0): Matrix(QQ, [[1]])})


def test_delta_is_signed_coface_sum_on_tower():
    # column j of the delta matrix is d_1 of the j-th admissible monomial:
    # the alternating coface sum
    for F in FIELDS:
        for (p, q) in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
            M = conf_delta_matrix(p, q, F)
            basis, tgt = admissible_basis(p, q), admissible_basis(p - 1, q)
            assert (M.nrows, M.ncols) == (dim_cohomology(p - 1, q), len(basis))
            for j, m in enumerate(basis):
                x = normal_form(p, m, F)
                assert M.column(j) == class_to_vector(sinha_d1(x), tgt)
    with pytest.raises(ValueError, match="signed only"):
        conf_delta_matrix(2, 1, F2, mode="verbatim")


# sha256 over repr of the rows of every conf_delta_matrix for p <= 7
# over F2, F3 and Q: the signed part of a stream first pinned while each
# coface term was still coerced and summed in the field
CONF_DELTA_SHA256 = \
    "8bd394ad0e595407c8df79a93edebc306479f22fb5694e2218dc729f6f7fba89"


def test_conf_delta_matrices_are_pinned():
    h = hashlib.sha256()
    for F in FIELDS:
        for p in range(1, 8):
            for q in range(p):
                M = conf_delta_matrix(p, q, F)
                h.update(("signed %s %d %d %r;" % (F.name, p, q, M.rows))
                         .encode())
    assert h.hexdigest() == CONF_DELTA_SHA256


# sha256 over repr of the slots and the column items of every
# build_sinha_complex(max_p, F) for max_p <= 7 over F2, F3 and Q: the
# signed part of a stream first pinned while the normalized slots were
# still found by eliminating the span of the codegeneracy images
SINHA_COMPLEX_SHA256 = \
    "91094520ae2ebf9d607ada075beee0314ee4a92b8e3f7cc736dca89bd64c1263"


def test_sinha_complexes_are_pinned():
    h = hashlib.sha256()
    for F in FIELDS:
        for m in range(1, 8):
            C = build_sinha_complex(m, F)
            h.update(("signed %s %d %r %r;" % (F.name, m, C.slots,
                                              list(C.columns.items())))
                     .encode())
    assert h.hexdigest() == SINHA_COMPLEX_SHA256


# build_sinha_complex(8, F2), hashed as above; recorded while the
# complex was still read off the dense conf_delta_matrix
SINHA_COMPLEX_MAX_ARITY_SHA256 = \
    "82678e4bdaab98e657e71ca22db055a7416328cc055219aa4a46b7b66a2a6e0a"


def test_sinha_complex_at_max_arity_is_pinned():
    C = build_sinha_complex(MAX_ARITY, F2)
    h = hashlib.sha256(("signed %s %d %r %r;"
                        % (F2.name, MAX_ARITY, C.slots,
                           list(C.columns.items()))).encode())
    assert h.hexdigest() == SINHA_COMPLEX_MAX_ARITY_SHA256


def _positions(slot, monomials):
    """Positions of the given monomials in admissible_basis(*slot)."""
    index = {m: t for t, m in enumerate(admissible_basis(*slot))}
    return [index[m] for m in monomials]


def reference_sinha_complex(max_p, F, dense):
    """Slots and columns of the normalized Sinha complex by the dense
    route: conf_delta_matrix over every admissible monomial, read on
    the normalized_slot rows and columns.  dense caches the matrices
    by (p, q) for one field."""
    keys = [(p, q) for p in range(1, max_p + 1) for q in range(p)
            if dim_cohomology(p, q)]
    reps = {k: _positions(k, normalized_slot(*k)) for k in keys}
    offsets, slots = {}, []
    for k in keys:
        offsets[k] = len(slots)
        slots.extend([k] * len(reps[k]))
    columns = {}
    for (p, q) in keys:
        if (p - 1, q) not in offsets:
            continue
        if (p, q) not in dense:
            dense[(p, q)] = conf_delta_matrix(p, q, F).rows
        base, tgt, rows = offsets[(p - 1, q)], reps[(p - 1, q)], dense[(p, q)]
        for s, t in enumerate(reps[(p, q)]):
            columns[offsets[(p, q)] + s] = {base + i: rows[r][t]
                                            for i, r in enumerate(tgt)
                                            if rows[r][t]}
    return slots, columns


def test_sinha_complex_matches_the_dense_reference_route(monkeypatch):
    for F in FIELDS:
        dense = {}
        for m in range(1, 8):
            slots, columns = reference_sinha_complex(m, F, dense)
            C = build_sinha_complex(m, F)
            # FilteredComplex keeps only the nonzero columns; repr
            # compares the key order of every column too
            assert C.slots == slots, (F, m)
            kept = [(j, col) for j, col in columns.items() if col]
            assert repr(list(C.columns.items())) == repr(kept), (F, m)
    # the plain coface sum is no differential over F3 or Q, by either
    # route; on the normalized slots it first fails at arity 6
    monkeypatch.setattr(hochschild, "delta_columns", plain_coface_columns)
    for F in (F3, QQ):
        build_sinha_complex(5, F)
        slots, columns = reference_sinha_complex(6, F, {})
        for build in (lambda: FilteredComplex(F, slots, columns),
                      lambda: build_sinha_complex(6, F)):
            with pytest.raises(VerificationError,
                               match=r"square to zero \(witness column 56\)"):
                build()


def test_plain_sinha_complex_matches_the_sinha_d1_reference():
    # every column of the plain complex to arity 7, and of
    # conf_delta_matrix, is sinha_d1 of its admissible monomial: the
    # alternating sum of the coface pullbacks of a class
    for F in FIELDS:
        C = build_sinha_complex(7, F, normalized=False)
        offsets = {}
        for j, slot in enumerate(C.slots):
            offsets.setdefault(slot, j)
        for (p, q), base in offsets.items():
            tgt = admissible_basis(p - 1, q) if p > 1 else []
            M = conf_delta_matrix(p, q, F)
            for j, m in enumerate(admissible_basis(p, q)):
                want = (class_to_vector(sinha_d1(normal_form(p, m, F)), tgt)
                        if p > 1 else [])
                assert M.column(j) == want, (F, p, q, m)
                row = offsets.get((p - 1, q))
                assert C.columns.get(base + j, {}) == \
                    {row + t: c for t, c in enumerate(want) if c}, (F, p, q, m)


def test_codegeneracy_images_are_the_non_normalized_monomials():
    # s^i is strictly monotone on indices: each admissible monomial goes
    # to one admissible monomial with coefficient 1 that misses i + 1,
    # and the monomials hit are exactly those normalized_slot leaves out
    for F in FIELDS:
        for p in range(1, 8):
            for q in range(p):
                index = {m: t for t, m in enumerate(admissible_basis(p, q))}
                hit = set()
                for m in admissible_basis(p - 1, q):
                    x = normal_form(p - 1, m, F)
                    for i in range(p):
                        (mm, c), = codegeneracy_pullback(i, x).terms.items()
                        assert c == F.one
                        assert i + 1 not in {a for f in mm for a in f}
                        hit.add(index[mm])
                reps = _positions((p, q), normalized_slot(p, q))
                assert reps == sorted(set(range(len(index))) - hit), (F, p, q)


def test_delta_descends_to_the_normalized_slots(monkeypatch):
    # delta sends every degenerate column to degenerate rows, so the
    # normalized D is delta's submatrix on the normalized positions.
    # The plain coface sum over F3 does not descend (320 entries for
    # p <= 6 land on normalized rows), which the last count shows.
    def leaks(F, max_p):
        count = 0
        for p in range(2, max_p + 1):
            for q in range(p - 1):
                rows = conf_delta_matrix(p, q, F).rows
                reps = set(_positions((p, q), normalized_slot(p, q)))
                degenerate = [j for j in range(dim_cohomology(p, q))
                              if j not in reps]
                count += sum(1 for r in _positions((p - 1, q),
                                                   normalized_slot(p - 1, q))
                             for j in degenerate if rows[r][j])
        return count

    for F in FIELDS:
        assert leaks(F, 7) == 0, F
    monkeypatch.setattr(hochschild, "delta_columns", plain_coface_columns)
    assert leaks(F3, 6) == 320


def test_char2_cycle_through_delta():
    x = parse_class(CHAR2_CYCLE, 4, F2)
    rep = e2_report(x)
    assert rep["is_cycle"] and not rep["is_boundary"]
    # same class over Q is not even a cycle
    rep_q = e2_report(parse_class(CHAR2_CYCLE, 4, QQ))
    assert not rep_q["is_cycle"]


def test_char3_cycle_through_delta():
    rep = e2_report(parse_class(CHAR3_CYCLE, 5, F3))
    assert rep["is_cycle"]
    assert not e2_report(parse_class(CHAR3_CYCLE, 5, QQ))["is_cycle"]


def test_boundary_detection():
    # any delta image is a cycle and a boundary
    from knotss.confcoh import sinha_d1, normal_form
    x = parse_class("g12*g13*g14", 4, QQ)
    y = sinha_d1(x)
    if not y.is_zero():
        rep = e2_report(y)
        assert rep["is_cycle"] and rep["is_boundary"]
        assert all(not c for c in rep["coordinates"])


def reference_e2_reports(classes):
    """e2_report on classes of one slot, with is_boundary decided by a
    second, dense elimination: solving d_in y = v."""
    x = classes[0]
    F, p, q = x.field, x.arity, x.degree
    d_out = hochschild.conf_delta_matrix(p, q, F)
    d_in = hochschild.conf_delta_matrix(p + 1, q, F)
    vs = [class_to_vector(x, admissible_basis(p, q)) for x in classes]
    elim = Eliminator(F, track=True)
    for j in range(d_in.ncols):
        elim.add(sparse(d_in.column(j)))
    n_bnd = elim.rank
    dim_e2 = sum(elim.add(sparse(w)) for w in kernel_basis(d_out))
    for v, y in zip(vs, solve_many(d_in, vs)):
        is_cycle = not any(d_out.mul_vector(v))
        coords = None
        if is_cycle:
            sol = elim.coords_in_span(sparse(v))
            coords = sol[n_bnd:] if sol is not None else None
        yield {"slot": (p, q), "is_cycle": is_cycle,
               "is_boundary": is_cycle and y is not None,
               "dim_e2": dim_e2, "coordinates": coords}


def test_e2_report_matches_the_two_elimination_route(monkeypatch):
    # every admissible monomial, random combinations of them, and the
    # d_1 images of random classes one arity up (boundaries), for p <= 5
    # over every field; the reference reads the dense d_1 matrices, built
    # once per slot
    matrices = {}

    def cached(p, q, field):
        key = (p, q, field.name)
        if key not in matrices:
            matrices[key] = conf_delta_matrix(p, q, field)
        return matrices[key]

    monkeypatch.setattr(hochschild, "conf_delta_matrix", cached)
    rng = random.Random(20261019)
    boundaries = 0
    for F in FIELDS:
        for p in range(1, 6):
            for q in range(p):
                basis = admissible_basis(p, q)
                up = admissible_basis(p + 1, q)
                classes = [normal_form(p, m, F) for m in basis]
                for _ in range(4):
                    classes.append(CohClass(p, q, F, {
                        m: F.of(rng.randint(-2, 2))
                        for m in rng.sample(basis, min(3, len(basis)))}))
                    classes.append(sinha_d1(CohClass(p + 1, q, F, {
                        m: F.of(rng.randint(-2, 2))
                        for m in rng.sample(up, min(3, len(up)))})))
                for x, want in zip(classes, reference_e2_reports(classes)):
                    rep = e2_report(x)
                    assert rep == want, (F, x)
                    boundaries += rep["is_boundary"]
    assert boundaries > 200


def test_mu3_obstruction_rank():
    for F in FIELDS:
        assert rank(conf_delta_matrix(4, 1, F)) == 3


def test_normalized_and_plain_towers_agree_on_page_two():
    # truncating the tower at max_p leaves degenerate classes at the top
    # arity without their killers from arity max_p + 1, so the two
    # complexes are compared away from the truncation edge
    def interior(page, max_p):
        return {(mp, q): d for (mp, q), d in page.dims().items() if -mp < max_p}

    for F in FIELDS:
        Cn = build_sinha_complex(4, F, normalized=True)
        Cu = build_sinha_complex(4, F, normalized=False)
        assert Cn.dim < Cu.dim
        pn = ss_pages(Cn, 3)
        pu = ss_pages(Cu, 3)
        assert interior(pn[2], 4) == interior(pu[2], 4)
        assert interior(pn[3], 4) == interior(pu[3], 4)
    pn = ss_pages(build_sinha_complex(6, F3, normalized=True), 3)
    pu = ss_pages(build_sinha_complex(6, F3, normalized=False), 3)
    assert interior(pn[2], 6) == interior(pu[2], 6)
    assert interior(pn[3], 6) == interior(pu[3], 6)


def test_flipped_delta_sign_fails_d_squared(flipped_delta_sign):
    with pytest.raises(VerificationError, match=r"witness column \d+"):
        build_sinha_complex(6, F3)
    # the plain complex reads the same integer d_1
    with pytest.raises(VerificationError, match=r"witness column \d+"):
        build_sinha_complex(6, F3, normalized=False)


def test_higher_differentials_vanish_small():
    for F in FIELDS:
        pages = page_ranks(build_sinha_complex(5, F), 5)
        nonzero = [(page.r, slot) for page in pages[2:]
                   for slot, e in page.table.items() if e["d_rank"]]
        assert nonzero == [], (F.name, nonzero)


def test_tower_einf_matches_total_homology_oracle():
    # the largest complexes the tests reduce: E_infinity from the pairs
    # against the oracle's ranks
    for F in FIELDS:
        for arity, normalized in [(7, True), (6, False)]:
            C = build_sinha_complex(arity, F, normalized=normalized)
            assert einf_dims(C) == total_homology_graded(C), (F.name, arity, normalized)


def test_pointwise_d1_two_routes():
    # route A: subquotient-induced d_1 from the page machinery;
    # route B: the delta formula applied to dual basis vectors directly.
    rng = random.Random(20260823)
    checked = 0
    for k in range(21):
        F = FIELDS[k % 3]
        O = pointwise_presentation(rng, F)
        C = hochschild_complex(O)
        pages = ss_pages(C, 1)
        for (p, q) in sorted(set(C.slots)):
            ent = pages[1].table[(-p, q)]
            m = O.dim(p, q)
            assert ent["dim"] == m
            direct = []
            for t in range(m):
                x = [F.zero] * m
                x[t] = F.one
                out = hochschild_delta(O, x, p, q)
                direct.append(out.get((p - 1, q), [F.zero] * O.dim(p - 1, q)))
            dmat = Matrix.from_columns(F, direct, ambient=O.dim(p - 1, q))
            assert ent["d"].rows == dmat.rows, (k, p, q)
            checked += 1
    assert checked >= 100


def test_pointwise_delta_squares_to_zero():
    rng = random.Random(99)
    for k in range(9):
        F = FIELDS[k % 3]
        O = pointwise_presentation(rng, F)
        # construction verifies D^2 = 0; failure raises
        hochschild_complex(O)


def test_toy_mu3_engine_vs_lifting():
    for F in FIELDS:
        O = toy_mu3_presentation(F)
        C = hochschild_complex(O)
        pages = ss_pages(C, 3)
        assert pages[2].dims() == {(-4, 2): 1, (-3, 1): 1, (-2, 1): 1}
        ent = pages[2].table[(-4, 2)]
        assert ent["d_rank"] == 1 and ent["target"] == (-2, 1)
        # lifting formula on the dual generator of slot (4, 2)
        chain = d2_via_lifting(O, [F.one], 4, 2)
        assert any(chain)
        # engine and formula give the same chain on the representative
        rep = ent["reps"][0]
        src_coord = rep.get(C.slots.index((4, 2)), F.zero)
        d_img = ent["d"].mul_vector([F.one])
        tgt_reps = pages[2].table[(-2, 1)]["reps"]
        engine_chain = [F.zero] * C.dim
        for c, w in zip(d_img, tgt_reps):
            for t, x in w.items():
                engine_chain[t] = F.add(engine_chain[t], F.mul(c, x))
        lifted = [chain[0] if s == (2, 1) else F.zero for s in C.slots]
        assert engine_chain == [F.mul(src_coord, v) for v in lifted]
        # after the page-2 hit everything dies except the free slot
        assert pages[3].dims() == {(-3, 1): 1}


def test_lifting_rejects_a_non_cycle():
    # the dual generator of slot (2, 0) has delta x = x o_1 mu_2 != 0,
    # so x is no first-page cycle
    for F in FIELDS:
        O = OperadPresentation(F, {(1, 0): 1, (2, 0): 1}, [2],
                               left={(2, 1, 2, 0): Matrix(F, [[1]])})
        assert hochschild_delta(O, [F.one], 2, 0) == {(1, 0): [F.one]}
        with pytest.raises(ValueError, match="does not vanish"):
            d2_via_lifting(O, [F.one], 2, 0)


def test_slot_bases_match_the_recursive_reference():
    # every slot up to the tower's top arity, plain and normalized, in order
    for p in range(MAX_ARITY + 1):
        for q in range(p + 1):
            assert admissible_basis(p, q) == \
                confcoh_reference.admissible_basis(p, q)
            assert normalized_slot(p, q) == \
                confcoh_reference.normalized_slot(p, q)


def _delta_slots(basis, max_p):
    """(p, q, sources, index) for every slot with a target below it, up
    to arity max_p, on the monomials basis(p, q) gives."""
    for p in range(2, max_p + 1):
        for q in range(p - 1):
            index = {m: t for t, m in enumerate(basis(p - 1, q))}
            yield p, q, basis(p, q), index


def test_delta_columns_match_the_every_coface_reference():
    # every slot up to the tower's top arity, plain and normalized: the
    # same columns, in order, once the 0 entries are dropped
    for basis in (admissible_basis, normalized_slot):
        entries = 0
        for p, q, sources, index in _delta_slots(basis, MAX_ARITY):
            got = list(hochschild.delta_columns(p, q, sources, index))
            want = list(hochschild_reference.delta_columns(p, q, sources,
                                                           index))
            assert len(got) == len(want) == len(sources), (p, q)
            for m, g, w in zip(sources, got, want):
                w = {t: z for t, z in w.items() if z}
                assert {t: z for t, z in g.items() if z} == w, (p, q, m)
                entries += len(w)
        assert entries > 0


def test_d1_evaluates_only_the_live_cofaces(monkeypatch):
    # on the plain tower for p <= 7, d_1 calls coface_terms 8,617 times,
    # where the loop over every coface calls it 39,445 times; no call it
    # makes comes back empty, so none is spent on a coface that kills
    calls = {"engine": [], "reference": []}

    def counting(key):
        def counted(i, p, m, memo=None):
            pairs = coface_terms(i, p, m, memo)
            calls[key].append(bool(pairs))
            return pairs
        return counted

    monkeypatch.setattr(hochschild, "coface_terms", counting("engine"))
    monkeypatch.setattr(hochschild_reference, "coface_terms",
                        counting("reference"))
    for p, q, sources, index in _delta_slots(admissible_basis, 7):
        list(hochschild.delta_columns(p, q, sources, index))
        list(hochschild_reference.delta_columns(p, q, sources, index))
    assert len(calls["reference"]) == 39445
    assert len(calls["engine"]) == 8617
    assert all(calls["engine"])


def test_d1_squares_to_zero_over_z():
    # the integer d_1 composed with itself on every slot up to the top
    # arity, plain and normalized: d_1^2 = 0 over Z, hence over every field
    for basis in (admissible_basis, normalized_slot):
        cols = {(p, q): list(hochschild.delta_columns(p, q, sources, index))
                for p, q, sources, index in _delta_slots(basis, MAX_ARITY)}
        composed = 0
        for (p, q), out in cols.items():
            below = cols.get((p - 1, q))
            if below is None:
                continue
            for j, col in enumerate(out):
                image = {}
                for t, z in col.items():
                    for s, y in below[t].items():
                        image[s] = image.get(s, 0) + z * y
                assert not any(image.values()), (basis.__name__, p, q, j)
                composed += any(col.values())
        assert composed > 0


def test_block_route_matches_page_ranks():
    # the pages from the block ranks against the filtration-order
    # reduction of the whole complex, every slot of every page, plain and
    # normalized, over three prime fields and Q
    for F in (F2, F3, Field(5), QQ):
        for normalized in (True, False):
            for max_p in (1, 4, 7):
                C = build_sinha_complex(max_p, F, normalized=normalized)
                want = [page.table for page in page_ranks(C, max_p + 1)]
                dims, blocks = sinha_blocks(max_p, normalized)
                check_d_squared(blocks)
                got = block_pages(dims, block_ranks(blocks, F), max_p + 1)
                assert got == want, (F, normalized, max_p)


def corrupt_first_block(monkeypatch, corrupt):
    """Patch the block route's integer_elimination so that
    corrupt(cols, p, stored, relations) may change its output in place;
    once it returns True, later blocks are left as they are."""
    original, done = hochschild.integer_elimination, []

    def patched(cols, p=None):
        stored, relations = original(cols, p)
        if not done and corrupt(cols, p, stored, relations):
            done.append(True)
        return stored, relations

    monkeypatch.setattr(hochschild, "integer_elimination", patched)


def changed_combination(cols, p, stored, relations):
    # one more copy of a stored column in its own combination moves d_1
    # of the combination by that column, which is nonzero in the field
    for j, (_, c) in stored.items():
        c[j] += 1
        return True


def relation_past_its_column(cols, p, stored, relations):
    for j, v in relations.items():
        if j + 1 < len(cols):
            v[j + 1] = 1
            return True


def shared_pivot(cols, p, stored, relations):
    # a copy of a stored column and its combination passes d_1 c = r
    if len(stored) > 1:
        first, second = list(stored)[:2]
        stored[second] = stored[first]
        return True


def relation_off_the_kernel(cols, p, stored, relations):
    # an earlier column, nonzero in the field, added to a relation
    for j, v in relations.items():
        for k in range(j):
            if any(z if p is None else z % p for z in cols[k].values()):
                v[k] = v.get(k, 0) + 1
                return True


def dropped_relation(cols, p, stored, relations):
    for j in relations:
        del relations[j]
        return True


@pytest.mark.parametrize("field", ["f2", "f3", "q"])
@pytest.mark.parametrize("corrupt, message", [
    pytest.param(changed_combination, r"stored column \d+ of slot \(\d, \d\) "
                 r"is not d_1 applied to its combination",
                 id="changed-combination"),
    pytest.param(relation_past_its_column, r"relation of column \d+ of slot "
                 r"\(\d, \d\) is not zero past the column and nonzero at it",
                 id="relation-past-its-column"),
    pytest.param(shared_pivot, r"stored columns \d+ and \d+ of slot "
                 r"\(\d, \d\) share the pivot \d+", id="shared-pivot"),
    pytest.param(relation_off_the_kernel, r"relation of column \d+ of slot "
                 r"\(\d, \d\) is not sent to 0 by d_1",
                 id="relation-off-the-kernel"),
    pytest.param(dropped_relation, r"\d+ stored columns and \d+ relations "
                 r"for the \d+ columns of slot \(\d, \d\)",
                 id="dropped-relation"),
])
def test_ss_table_rejects_a_corrupted_elimination(capsys, monkeypatch,
                                                  corrupt, message, field):
    # each corruption breaks one side of a block's rank check, and
    # ss-table exits 1 with the column and slot in its report
    corrupt_first_block(monkeypatch, corrupt)
    code = main(["ss-table", "--max-arity", "5", "--field", field])
    out, err = capsys.readouterr()
    assert code == 1 and "Traceback" not in err
    assert re.fullmatch(message, json.loads(out)["report"]["error"])


def test_ss_table_rejects_a_flipped_d1_sign(capsys, flipped_delta_sign):
    # d_1 d_1 = 0 is checked over Z, so the flipped sign fails even over
    # F2, where -1 = 1; the witness names its column and slot
    code = main(["ss-table", "--max-arity", "6", "--field", "f2"])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and "Traceback" not in err
    assert re.search(r"does not square to zero \(witness column \d+ of "
                     r"slot \(6, 3\)\)", err)


def test_ss_table_does_not_import_spectral(tmp_path):
    code = """
import json, sys
import knotss.cli
code = knotss.cli.main(["ss-table", "--max-arity", "6", "--output", %r])
print(json.dumps([code, "knotss.spectral" in sys.modules]))
""" % str(tmp_path / "out.json")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(knotss.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0, False]
