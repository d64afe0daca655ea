"""Acceptance gate: thirteen criteria, one test (and one pass/fail
line) each.  Run with -v to see the line per criterion."""

import hashlib
import json
import random
import time

from knotss.cases import (all_cases, chain_c, chain_cycle_ch3, chain_pair,
                          chain_triple, run_case, _load_cases)
from knotss.chainledger import ZeroFacts, boundary_D
from knotss.confcoh import dim_cohomology, parse_class, sinha_d1
from knotss.fields import F2, F3, QQ
from knotss.geometry import ALL_LEMMAS, attack_zero_facts, check_lemma
from knotss.hochschild import (Matrix, build_sinha_complex, e2_report,
                               mu3_obstruction_rank)
from knotss.operads import d_squared_report
from knotss.partgraph import parse_graph, verify_commutation
from knotss.spectral import (einf_dims, page_ranks, random_filtered_complex,
                             ss_pages, total_homology_graded)

from geometry_reference import closed_form_projection_checks
from hochschild_reference import (d2_via_lifting, hochschild_complex,
                                  hochschild_delta, pointwise_presentation,
                                  toy_mu3_presentation)

FIELDS = (F2, F3, QQ)
# sha256 of the 200-restart attack report (json, sorted keys): any change
# to the search's arithmetic that moves a restart shows here
ATTACK_200_SHA256 = ("73f72c74fb2bfa99f29d349a39de99f6"
                     "f86b36cf64c3b49b3c29df974a2dd65a")
CHAR2_CYCLE = "g14*g23+g13*g24+g12*g34"
CHAR3_CYCLE = ("-g(1,3)*g(2,3)*g(4,5)+g(1,4)*g(2,4)*g(3,5)"
               "+g(1,4)*g(2,5)*g(3,4)+g(1,5)*g(2,4)*g(3,4)")


def _line(num, desc, ok, t0):
    print("criterion %02d %-44s %s (%.1fs)"
          % (num, desc, "pass" if ok else "FAIL", time.time() - t0))
    assert ok, "criterion %d failed: %s" % (num, desc)


def _poincare(p):
    coeffs = [1]
    for k in range(1, p):
        coeffs = [c + k * (coeffs[i - 1] if i else 0)
                  for i, c in enumerate(coeffs + [0])]
    return coeffs[:p]


def test_criterion_01_dimension_tables():
    t0 = time.time()
    # the dimensions are those of H*(Conf_p; Z), free, so one table
    # serves every field
    ok = all(dim_cohomology(p, q) == _poincare(p)[q]
             for p in range(1, 8) for q in range(p))
    elapsed = time.time() - t0
    _line(1, "dimension tables p<=7", ok and elapsed < 60, t0)


def test_criterion_02_d1_squares_to_zero():
    t0 = time.time()
    from knotss.hochschild import conf_delta_matrix
    ok = True
    for F in FIELDS:
        mats = {(p, q): conf_delta_matrix(p, q, F)
                for p in range(2, 8) for q in range(p)
                if dim_cohomology(p, q)}
        for (p, q), M in mats.items():
            N = mats.get((p - 1, q))
            if N is None or not N.nrows:
                continue
            for j in range(M.ncols):
                ok = ok and not any(N.mul_vector(M.column(j)))
    _line(2, "d_1^2 = 0 on every slot, p<=7, 3 fields", ok, t0)


def test_criterion_03_char2_cycle():
    t0 = time.time()
    zero2 = sinha_d1(parse_class(CHAR2_CYCLE, 4, F2)).is_zero()
    zeroq = sinha_d1(parse_class(CHAR2_CYCLE, 4, QQ)).is_zero()
    _line(3, "quadratic class: cycle over F2, not over Q",
          zero2 and not zeroq, t0)


def test_criterion_04_char3_cycle():
    t0 = time.time()
    zero3 = sinha_d1(parse_class(CHAR3_CYCLE, 5, F3)).is_zero()
    zeroq = sinha_d1(parse_class(CHAR3_CYCLE, 5, QQ)).is_zero()
    _line(4, "four-term class: cycle over F3, not over Q",
          zero3 and not zeroq, t0)


def test_criterion_05_e2_generators():
    t0 = time.time()
    a = e2_report(parse_class("g13*g24", 4, F3))
    b = e2_report(parse_class("g12", 2, F3))
    ok = (a["dim_e2"] == 1 and a["is_cycle"] and not a["is_boundary"]
          and any(a["coordinates"])
          and b["dim_e2"] == 1 and b["is_cycle"] and not b["is_boundary"]
          and any(b["coordinates"]))
    _line(5, "E2 slots (-4,2) and (-2,1) are one dimensional", ok, t0)


def test_criterion_06_mu3_obstruction():
    t0 = time.time()
    ok = all(mu3_obstruction_rank(F) == 3 for F in FIELDS)
    _line(6, "mu_3 obstruction pairing has rank 3, 3 fields", ok, t0)


def test_criterion_07_algebraic_degeneration():
    t0 = time.time()
    ok = True
    for F in FIELDS:
        C = build_sinha_complex(7, F)
        pages = page_ranks(C, 7)
        ok = ok and not any(e["d_rank"] for page in pages[2:]
                            for e in page.table.values())
        # the independent side: E_2 from the pairs against the oracle's
        # associated graded of H(Tot), which E_2 equals when every d_r
        # with r >= 2 vanishes
        e2 = {(-mp, q): d for (mp, q), d in pages[2].dims().items()}
        ok = ok and e2 == total_homology_graded(C)
    _line(7, "d_r = 0 for r>=2, p<=7; E_2 = graded H(Tot)", ok, t0)


def test_criterion_08_ainf_d_squared():
    t0 = time.time()
    rep = d_squared_report(6, F2)
    elapsed = time.time() - t0
    _line(8, "tree differential squares to zero, arity<=6",
          rep["pass"] and elapsed < 30, t0)


def test_criterion_09_pointwise_d1_and_toy_d2():
    t0 = time.time()
    rng = random.Random(20260823)
    ok, checked = True, 0
    for k in range(21):
        F = FIELDS[k % 3]
        O = pointwise_presentation(rng, F)
        C = hochschild_complex(O)
        pages = ss_pages(C, 1)
        for (p, q) in sorted(set(C.slots)):
            ent = pages[1].table[(-p, q)]
            m = O.dim(p, q)
            cols = []
            for t in range(m):
                x = [F.zero] * m
                x[t] = F.one
                out = hochschild_delta(O, x, p, q)
                cols.append(out.get((p - 1, q), [F.zero] * O.dim(p - 1, q)))
            dmat = Matrix.from_columns(F, cols, ambient=O.dim(p - 1, q))
            ok = ok and ent["d"].rows == dmat.rows
            checked += 1
    for F in FIELDS:
        O = toy_mu3_presentation(F)
        pages = ss_pages(hochschild_complex(O), 2)
        ent = pages[2].table[(-4, 2)]
        chain = d2_via_lifting(O, [F.one], 4, 2)
        ok = ok and ent["d_rank"] == 1 and any(chain)
    _line(9, "two-route d_1 on %d slots; toy d_2 by lifting" % checked,
          ok and checked >= 100, t0)


def test_criterion_10_triple_complex_commutation():
    t0 = time.time()
    ok = all(verify_commutation(n, QQ)["pass"] for n in (2, 3, 4))
    ok = ok and verify_commutation(5, QQ, discrete_only=True)["pass"]
    _line(10, "merge/Cech commutation n<=4 full, n=5 discrete", ok, t0)


def _case_chains(name, spec):
    n = spec["n"]
    # the survivors case builds its bounding case's pair chains, so it
    # adds no chain of its own here
    graphs = [parse_graph(t, n) for t in spec.get("graphs", [])]
    kind = spec["kind"]
    directions = (1, -1) if kind == "three-term" else (1,)
    out = ([chain_c(G, directions) for G in graphs]
           if kind in ("cycles", "three-term") else [])
    out += [chain_pair(parse_graph(p[0], n), parse_graph(p[1], n), p[2],
                       directions) for p in spec.get("pairs", [])]
    out += [chain_cycle_ch3(parse_graph(c[0], n), c[1])
            for c in spec.get("corrections", [])]
    if kind == "three-term":
        out.append(chain_triple(*graphs, spec["triple"]))
    return out


def test_criterion_11_ledger_cases():
    t0 = time.time()
    facts = ZeroFacts.load()
    ok = all(run_case(name, facts=facts)["pass"] for name in all_cases())
    n_chains = 0
    for name, spec in _load_cases().items():
        for ch in _case_chains(name, spec):
            dd = boundary_D(boundary_D(ch))
            ok = ok and dd.reduce(spec["char"]).is_zero()
            n_chains += 1
    _line(11, "six ledger cases; D^2 = 0 on %d chains" % n_chains, ok, t0)


def test_criterion_12_geometry():
    t0 = time.time()
    ok = closed_form_projection_checks(trials=100)["pass"]
    for name in ALL_LEMMAS:
        ok = ok and check_lemma(name, samples=1000)["pass"]
    rep = attack_zero_facts(ZeroFacts.load(), restarts=200)
    n = len(rep["reports"])
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    _line(12, "projections, 6 harnesses, %d facts attacked" % n,
          ok and rep["pass"] and n >= 50 and digest == ATTACK_200_SHA256, t0)


def test_criterion_13_spectral_engine_oracle():
    t0 = time.time()
    rng = random.Random(20260823)
    ok = True
    for k in range(50):
        F = FIELDS[k % 3]
        C = random_filtered_complex(rng, F, max_basis=30)
        ok = ok and einf_dims(C) == total_homology_graded(C)
        # every page of the subquotient engine against the pairs
        lo, hi = C.filtration_range()
        r_max = max(hi - lo + 1, 1) + 1
        ok = ok and all(
            {s: (e["dim"], e["d_rank"], e["target"]) for s, e in a.table.items()}
            == {s: (e["dim"], e["d_rank"], e["target"]) for s, e in b.table.items()}
            for a, b in zip(ss_pages(C, r_max), page_ranks(C, r_max)))
    _line(13, "E_infinity vs graded homology, 50 complexes", ok, t0)
