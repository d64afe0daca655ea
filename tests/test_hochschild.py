import random

import pytest

from knotss.confcoh import (admissible_basis, class_to_vector, coface_pullback,
                            dim_cohomology, normal_form, parse_class, sinha_d1,
                            zero_class)
from knotss.fields import F2, F3, QQ
from knotss.hochschild import (ConfTower, OperadPresentation,
                               build_sinha_complex, conf_delta_matrix,
                               d2_via_lifting, e2_report, hochschild_complex,
                               hochschild_delta, higher_differentials_vanish,
                               mu3_obstruction_rank, pointwise_presentation,
                               toy_mu3_presentation)
from knotss.linalg import Matrix, VerificationError
from knotss.spectral import ss_pages, total_homology_graded, einf_dims

FIELDS = [F2, F3, QQ]

CHAR2_CYCLE = "g14*g23+g13*g24+g12*g34"
CHAR3_CYCLE = ("-g(1,3)*g(2,3)*g(4,5)+g(1,4)*g(2,4)*g(3,5)"
               "+g(1,4)*g(2,5)*g(3,4)+g(1,5)*g(2,4)*g(3,4)")


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
    # the alternating coface sum, or the plain sum in verbatim mode (a
    # differential over F2 only, but checked over every field so that a
    # stray sign shows)
    for F in FIELDS:
        for (p, q) in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
            M = conf_delta_matrix(p, q, F, mode="signed")
            V = conf_delta_matrix(p, q, F, mode="verbatim")
            basis, tgt = admissible_basis(p, q), admissible_basis(p - 1, q)
            assert (M.nrows, M.ncols) == (dim_cohomology(p - 1, q), len(basis))
            for j, m in enumerate(basis):
                x = normal_form(p, m, F)
                assert M.column(j) == class_to_vector(sinha_d1(x), tgt)
                plain = zero_class(p - 1, q, F)
                for i in range(p + 1):
                    plain = plain + coface_pullback(i, x)
                assert V.column(j) == class_to_vector(plain, tgt)


def test_char2_cycle_through_delta():
    x = parse_class(CHAR2_CYCLE, 4, F2)
    rep = e2_report(x, mode="verbatim")
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


def test_mu3_obstruction_rank():
    for F in FIELDS:
        assert mu3_obstruction_rank(F) == 3


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


def test_higher_differentials_vanish_small():
    for F in FIELDS:
        rep = higher_differentials_vanish(5, F, r_max=5)
        assert rep["pass"], rep


def test_tower_einf_matches_total_homology_oracle():
    for F in FIELDS:
        C = build_sinha_complex(4, F, normalized=True)
        assert einf_dims(C) == total_homology_graded(C)


def test_pointwise_d1_two_routes():
    # route A: subquotient-induced d_1 from the page machinery;
    # route B: the delta formula applied to dual basis vectors directly.
    rng = random.Random(20260823)
    checked = 0
    for k in range(21):
        F = FIELDS[k % 3]
        O = pointwise_presentation(rng, F)
        for mode in (("signed", "verbatim") if F is F2 else ("signed",)):
            C = hochschild_complex(O, mode=mode)
            pages = ss_pages(C, 1)
            slots = sorted(set(C.slots))
            for (p, q) in slots:
                ent = pages[1].table[(-p, q)]
                m = O.dim(p, q)
                assert ent["dim"] == m
                direct = []
                for t in range(m):
                    x = [F.zero] * m
                    x[t] = F.one
                    out = hochschild_delta(O, x, p, q, mode=mode)
                    direct.append(out.get((p - 1, q), [F.zero] * O.dim(p - 1, q)))
                dmat = Matrix.from_columns(F, direct, ambient=O.dim(p - 1, q))
                assert ent["d"].rows == dmat.rows, (k, mode, p, q)
                checked += 1
    assert checked >= 100


def test_pointwise_delta_squares_to_zero():
    rng = random.Random(99)
    for k in range(9):
        F = FIELDS[k % 3]
        O = pointwise_presentation(rng, F)
        # construction verifies D^2 = 0; failure raises
        hochschild_complex(O, mode="signed")
        if F is F2:
            hochschild_complex(O, mode="verbatim")


def test_internal_differential_is_the_r0_block():
    # the dual of internal_d enters D as an r = 0 block, which E_1 kills
    for F in FIELDS:
        O = OperadPresentation(F, {(2, 0): 1, (2, 1): 1}, [2],
                               internal_d={(2, 1): Matrix(F, [[-1]])})
        C = hochschild_complex(O)
        assert C.columns == {0: {1: F.of(-1)}}
        assert ss_pages(C, 1)[1].dims() == {}


def test_toy_mu3_engine_vs_lifting():
    for F in FIELDS:
        O = toy_mu3_presentation(F)
        C = hochschild_complex(O, mode="signed")
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


def test_tower_lifting_always_zero():
    # no mu_3 oracle on the tower: the lifting formula returns zero for
    # every cycle, matching the vanishing page-2 differential
    x = parse_class(CHAR2_CYCLE, 4, F2)
    from knotss.confcoh import class_to_vector
    tower = ConfTower(F2, 5)
    v = class_to_vector(x, admissible_basis(4, 2))
    out = d2_via_lifting(tower, v, 4, 2, mode="verbatim")
    assert not any(out)
    with pytest.raises(ValueError):
        # a non-cycle has no lift
        w = class_to_vector(parse_class(CHAR2_CYCLE, 4, QQ),
                            admissible_basis(4, 2))
        d2_via_lifting(ConfTower(QQ, 5), w, 4, 2)

