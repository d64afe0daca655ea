import copy
import importlib.util
import json
import os

import pytest

from knotss import cases
from knotss.cases import (all_cases, chain_c, chain_cycle_ch3, chain_pair,
                          chain_triple, run_case, _load_cases)
from knotss.chainledger import (Chain, ZeroFacts, apply_delta, boundary_D,
                                canon_term, contraction, f_graph, single)
from knotss.partgraph import PGraph, parse_graph

FACTS = ZeroFacts.load()
ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_case_list():
    assert all_cases() == ["ch2-bounding", "ch2-cycles", "ch2-d2-survivors",
                           "ch3-3term", "ch3-cycles", "ch3-first-bounding"]


@pytest.mark.parametrize("name", all_cases())
def test_case_passes(name):
    rep = run_case(name, facts=FACTS)
    assert rep["pass"], [c for c in rep["checks"] if not c["pass"]]


def test_pair_identities_close_without_facts():
    # the collapse facts are only needed at the assembly stage; every
    # per-pair and per-cycle identity closes with an empty fact table
    empty = ZeroFacts([])
    for name in all_cases():
        rep = run_case(name, facts=empty)
        for c in rep["checks"]:
            assembly = ("assembled" in c["name"] or "relation" in c["name"]
                        or "fundamental" in c["name"])
            assert c["pass"] != assembly, c["name"]


def test_dropping_one_fact_fails_its_cases():
    # a wrong fact cannot hide: for each distinct set of cases that the
    # fact table serves, dropping one of its facts fails every case in it
    records = list(FACTS.table.values())
    sets = sorted({tuple(rec["cases"]) for rec in records})
    assert len(sets) == 5
    for names in sets:
        dropped = next(rec for rec in records if tuple(rec["cases"]) == names)
        rest = ZeroFacts([rec for rec in records if rec is not dropped])
        for name in names:
            assert not run_case(name, facts=rest)["pass"], (names, name)


def test_every_inserted_term_is_canonical(monkeypatch):
    # terms that enter a chain without canon_term (sums, scalings, merges,
    # the Cech part of D) must already be canonical: canon_term returns
    # them with the same coefficient and the same key
    seen = {}
    put = Chain._put

    def recording_put(self, coeff, term):
        seen[(coeff, term.key())] = term
        return put(self, coeff, term)

    monkeypatch.setattr(Chain, "_put", recording_put)
    for name in all_cases():
        run_case(name, facts=FACTS)
    assert len(seen) > 1000
    for (coeff, key), t in seen.items():
        c, again = canon_term(coeff, t.expr, t.weight, t.label)
        assert (c, again.key()) == (coeff, key), (t.expr.text(), str(t.label))


def test_each_chain_is_built_once_per_case_and_left_unchanged(monkeypatch):
    # run_case builds each chain once and reuses it, which is sound only
    # while nothing mutates a built chain: no constructor call repeats
    # within a case, and every chain holds the same terms after its case
    # as when it was built
    def snapshot(ch):
        return [(c, t.key()) for c, t in ch.items()]

    built = []
    for name in ("chain_c", "chain_pair", "chain_cycle_ch3", "chain_triple"):
        def recording(*args, make=getattr(cases, name), name=name):
            ch = make(*args)
            built.append(((name,) + args, ch, snapshot(ch)))
            return ch

        monkeypatch.setattr(cases, name, recording)
    for name in all_cases():
        del built[:]
        assert run_case(name, facts=FACTS)["pass"]
        calls = [call for call, _, _ in built]
        assert calls and len(calls) == len(set(calls)), name
        for call, ch, before in built:
            assert snapshot(ch) == before, (name, call)


ASSEMBLED = ("ch2-bounding", "ch3-first-bounding", "ch3-3term")


def _assembled_parts(spec):
    """(weight, chain) of each part of a bounding case's assembled chain
    (pairs and corrections) or of a three-term case's relation chain
    (pairs and the triple chain)."""
    n = spec["n"]
    directions = (1, -1) if spec["kind"] == "three-term" else (1,)
    parts = [(w, chain_pair(parse_graph(g, n), parse_graph(h, n), i, directions))
             for (g, h, i, _, _, w) in spec["pairs"]]
    if spec["kind"] == "bounding":
        parts += [(w, chain_cycle_ch3(parse_graph(g, n), i))
                  for (g, i, w) in spec.get("corrections", [])]
    else:
        graphs = [parse_graph(g, n) for g in spec["graphs"]]
        parts.append((spec["triple_weight"],
                      chain_triple(*graphs, spec["triple"])))
    return parts


@pytest.mark.parametrize("name", ASSEMBLED)
def test_D_of_an_assembled_chain_is_the_sum_of_its_parts_D(name):
    # run_case takes D of the assembled chain as the weighted sum of its
    # parts' D; as exact key -> coefficient maps over Q the two agree
    parts = _assembled_parts(_load_cases()[name])
    assembled = Chain()
    want = {}
    for w, ch in parts:
        assembled.add_scaled(w, ch)
        for c, t in boundary_D(ch).items():
            want[t.key()] = want.get(t.key(), 0) + w * c
    want = {k: c for k, c in want.items() if c}
    got = {t.key(): c for c, t in boundary_D(assembled).items()}
    assert got == want and len(got) > 10


@pytest.mark.parametrize("name", ASSEMBLED)
def test_a_wrong_part_weight_fails_the_assembled_check(name):
    # one pair or triple weight negated (or, mod 2, where negation is
    # invisible, set to 0) in a copy of the spec fails the assembled
    # check, and only it
    specs = _load_cases()
    spec = specs[name]
    rows = [("pairs", k) for k in range(len(spec["pairs"]))]
    rows += [("triple_weight", None)] if "triple_weight" in spec else []
    for key, k in rows:
        bad = copy.deepcopy(specs)
        holder, at = (bad[name], key) if k is None else (bad[name][key][k], -1)
        holder[at] = 0 if spec["char"] == 2 else -holder[at]
        rep = run_case(name, facts=FACTS, specs=bad)
        failed = [c["name"] for c in rep["checks"] if not c["pass"]]
        assert len(failed) == 1 and ("assembled" in failed[0]
                                     or "relation" in failed[0]), (key, k)


def test_one_pair_identity_is_exact_over_Q():
    # no reduction mod 3: the signed identity holds with exact rationals
    G = parse_graph("(1,3)(2,3)(4,5)", 5)
    H = parse_graph("(1,4)(2,4)(3,5)", 5)
    pair = chain_pair(G, H, 3)
    rhs = apply_delta(chain_c(H), 3) - apply_delta(chain_c(G), 3)
    assert (boundary_D(pair) - rhs).is_zero()


def test_cycle_correction_needs_three_edges():
    # c(G,i) takes c(G)'s contracted terms, edge pairs included, which
    # c(G) has only on three edges or more
    for text, n in (("(1,4)(2,3)", 4), ("(1,3)(2,4)", 5)):
        with pytest.raises(ValueError):
            chain_cycle_ch3(parse_graph(text, n), 2)


def test_char2_chains_close_over_Z():
    # the signed c(G) of each two-edge graph is a cycle with no
    # reduction, and mod 2 it is the paper's unsigned
    # f(w_0) + f_1(w_1) + f_2(w_1)
    for text in _load_cases()["ch2-cycles"]["graphs"]:
        G = parse_graph(text, 4)
        ch = chain_c(G)
        assert boundary_D(ch).is_zero(), text
        f = f_graph(G)
        paper = single(1, f, [], G)
        for e in G.edges:
            rest = PGraph(G.partition, tuple(x for x in G.edges if x != e))
            paper.add_word(1, contraction(f, G, e, "a"), [("s", "a")], rest)
        assert ch.reduce(2).diff_report(paper, 2) == [], text


def test_fact_table_is_pinned_to_the_ledger_residue():
    # the residue of every ledger identity under an empty fact table is
    # exactly the checked-in facts, each with its n and cases, plus the
    # two expected merge-image survivors
    spec = importlib.util.spec_from_file_location(
        "generate_zerofacts", os.path.join(ROOT, "scripts",
                                           "generate_zerofacts.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    got = script.collect_candidates()
    with open(os.path.join(ROOT, "src", "knotss", "data",
                           "zerofacts.json")) as fh:
        want = {(r["expr"], r["label"]): {"n": r["n"], "cases": set(r["cases"])}
                for r in json.load(fh)}
    assert len(want) == 62
    survivors = _load_cases()["ch2-d2-survivors"]["expected"]
    for etext, ltext in survivors:
        want[etext, ltext] = {"n": 4, "cases": {"ch2-d2-survivors"}}
    assert len(want) == 64
    assert got == want


def test_survivors_match_recorded_cycle():
    rep = run_case("ch2-d2-survivors", facts=FACTS)
    want = sorted(tuple(p) for p in _load_cases()["ch2-d2-survivors"]["expected"])
    assert sorted(rep["survivors"]) == want
    assert len(want) == 2
    # both survivor terms live over the same two-edge label
    assert {l for _, l in want} == {"1+2+2+1:(1,2)"}
