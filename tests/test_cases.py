import copy
import importlib.util
import itertools
import json
import os

import pytest

from knotss import cases
from knotss.cases import (all_cases, chain_c, chain_cycle_ch3, chain_pair,
                          chain_triple, run_case, _load_cases)
from knotss.chainledger import (Chain, WeightSpec, ZeroFacts, apply_delta,
                                apply_facts, boundary_D, canon_term,
                                contraction, f_graph)
from knotss.fields import Field
from knotss.linalg import Eliminator, column_kernel
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
    (its pairs) or of a three-term case's relation chain (pairs and the
    triple chain)."""
    n = spec["n"]
    directions = (1, -1) if spec["kind"] == "three-term" else (1,)
    parts = [(w, chain_pair(parse_graph(g, n), parse_graph(h, n), i, directions))
             for (g, h, i, _, _, w) in spec["pairs"]]
    if spec["kind"] == "three-term":
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


# ---------------------------------------------------------------------------
# the weights solved, not given: each weighted check says that a weighted
# sum of building blocks vanishes mod char after the facts, so the weight
# vectors it accepts are the kernel of the blocks as columns over F_char


def _blocks(spec):
    """The building blocks of each weighted check of an assembled case,
    as chains: per pair ("pair", k), D c(G,H,i), delta_i c(G) and
    delta_i c(H); for "assembled", D of each pair chain (and of the
    triple chain), then the merge image of each c(G)."""
    n = spec["n"]
    directions = (1, -1) if spec["kind"] == "three-term" else (1,)
    graphs = {t: parse_graph(t, n) for t in spec["graphs"]}
    cycles = {t: chain_c(G, directions) for t, G in graphs.items()}
    blocks, parts = {}, []
    for k, (g, h, i, _, _, _) in enumerate(spec["pairs"]):
        parts.append(boundary_D(chain_pair(graphs[g], graphs[h], i,
                                           directions)))
        blocks["pair", k] = [parts[-1], apply_delta(cycles[g], i),
                             apply_delta(cycles[h], i)]
    if spec["kind"] == "three-term":
        parts.append(boundary_D(chain_triple(*graphs.values(),
                                             spec["triple"])))
    blocks["assembled"] = parts + [apply_delta(cycles[t])
                                   for t in spec["graphs"]]
    return blocks


def _weights(spec):
    """The spec's numbers for each check of _blocks, in its column order:
    (1, -sg, -sh) per pair; the pair weights (and the triple weight),
    then -assembly_sign times each assembly entry."""
    weights = {("pair", k): [1, -sg, -sh]
               for k, (_, _, _, sg, sh, _) in enumerate(spec["pairs"])}
    parts = [w for (*_, w) in spec["pairs"]]
    parts += [spec["triple_weight"]] if "triple_weight" in spec else []
    weights["assembled"] = parts + [-spec["assembly_sign"] * a
                                    for a in spec["assembly"]]
    return weights


def _columns(chains, char):
    """Each chain reduced mod char and filtered by apply_facts, as a
    sparse vector over F_char on one index of the Term keys."""
    F, index = Field(char), {}
    return [{index.setdefault(t.key(), len(index)): F.of(c)
             for c, t in apply_facts(ch.reduce(char), FACTS).items()}
            for ch in chains]


def _kernel(char, cols):
    return column_kernel(Field(char), cols)[1]


def _on_line(char, v, weights):
    """True when the weights mod char are a nonzero multiple of the
    kernel vector v, which column_kernel makes 1 at its last column."""
    F = Field(char)
    s = F.of(weights[max(v)])
    return bool(s) and [F.of(w) for w in weights] == [
        F.mul(s, v.get(c, 0)) for c in range(len(weights))]


def _corrections(specs):
    """D of each correction c(G,i) that ch3-cycles checks."""
    return [boundary_D(chain_cycle_ch3(parse_graph(g, 5), i))
            for g, i in specs["ch3-cycles"]["corrections"]]


@pytest.fixture(scope="module")
def solved():
    """{case: {check: columns}} for the assembled cases, and for
    ch3-first-bounding also "with corrections": its assembled columns
    followed by the D of ch3-cycles' three corrections."""
    specs = _load_cases()
    out = {}
    for name in ASSEMBLED:
        blocks = _blocks(specs[name])
        if name == "ch3-first-bounding":
            blocks["with corrections"] = (blocks["assembled"]
                                          + _corrections(specs))
        out[name] = {check: _columns(chains, specs[name]["char"])
                     for check, chains in blocks.items()}
    return out


def test_the_checked_in_weights_are_the_only_solution(solved):
    # every pair check and every assembled check has a one-dimensional
    # kernel, the line through the checked-in numbers: no sign, weight
    # or assembly entry of the three assembled cases is free
    specs = _load_cases()
    pairs = 0
    for name in ASSEMBLED:
        spec, char = specs[name], specs[name]["char"]
        weights = _weights(spec)
        assert set(weights) == set(solved[name]) - {"with corrections"}
        for check, want in weights.items():
            kernel = _kernel(char, solved[name][check])
            assert len(kernel) == 1, (name, check, len(kernel))
            assert _on_line(char, kernel[0], want), (name, check)
            pairs += check != "assembled"
    assert pairs == 10


def test_the_corrections_are_free_cycles_of_the_first_bounding(solved):
    # ch3-cycles' three corrections c(G,i) have a D that is 0 after the
    # facts mod 3, so as columns of ch3-first-bounding they add one free
    # direction each (the kernel grows from 1 to 4): a bounding chain is
    # fixed only up to cycles modulo the facts, and the spec adds none
    cols = solved["ch3-first-bounding"]["with corrections"]
    m = len(cols) - 3
    assert cols[m:] == [{}, {}, {}]
    kernel = _kernel(3, cols)
    assert len(kernel) == 4
    assert kernel[1:] == [{m: 1}, {m + 1: 1}, {m + 2: 1}]
    want = _weights(_load_cases()["ch3-first-bounding"])["assembled"]
    assert _on_line(3, kernel[0], want)


def test_the_merge_3_pair_carries_both_survivors():
    # the survivors case reads ch2-bounding's pairs; after the facts mod
    # 2 their merge images keep 2, 0 and 0 terms, so the weights of the
    # merge-1 and merge-2 pairs are free there and the merge-3 pair
    # alone gives the two expected survivors
    specs = _load_cases()
    spec = specs["ch2-d2-survivors"]
    source = specs[spec["bounding"]]
    merged = [apply_facts(apply_delta(chain_pair(parse_graph(g, 4),
                                                 parse_graph(h, 4), i)),
                          FACTS).reduce(2)
              for (g, h, i, _, _, _) in source["pairs"]]
    assert [len(ch) for ch in merged] == [2, 0, 0]
    assert [p[2] for p in source["pairs"]] == [3, 1, 2]
    got = sorted([t.expr.text(), str(t.label)] for _, t in merged[0].items())
    assert got == sorted(spec["expected"])


def _accepted_pairs(spec):
    """{(G, H, i): c(G,H,i)} for every (G, H, i), G != H, among a case's
    graphs that chain_pair accepts (it raises ValueError when the merged
    graphs delta_i G and delta_i H differ)."""
    graphs = {t: parse_graph(t, spec["n"]) for t in spec["graphs"]}
    out = {}
    for g, h in itertools.permutations(spec["graphs"], 2):
        for i in range(graphs[g].partition.num_pieces - 1):
            try:
                out[g, h, i] = chain_pair(graphs[g], graphs[h], i)
            except ValueError:
                continue
    return out


def _widened_kernel(spec, pairs):
    """The kernel mod the case's char of D of every accepted pair chain
    as a column, then the merge images of the case's c(G)."""
    chains = [boundary_D(ch) for ch in pairs.values()]
    chains += [apply_delta(chain_c(parse_graph(t, spec["n"])))
               for t in spec["graphs"]]
    return _kernel(spec["char"], _columns(chains, spec["char"]))


@pytest.mark.parametrize("name, pairs, dim", [("ch2-bounding", 6, 4),
                                              ("ch3-first-bounding", 12, 6)])
def test_the_widened_pair_sets_keep_the_checked_in_assembly(name, pairs, dim):
    # the pair part of a bounding chain is not unique (kernel dimension
    # 4 and 6), but the merge coordinates of the kernel span one line,
    # through the checked-in assembly
    spec = _load_cases()[name]
    accepted = _accepted_pairs(spec)
    assert len(accepted) == pairs
    kernel = _widened_kernel(spec, accepted)
    assert len(kernel) == dim
    F = Field(spec["char"])
    merge = Eliminator(F)
    for v in kernel:
        merge.add({j - pairs: x for j, x in v.items() if j >= pairs})
    assert merge.rank == 1
    # [1, 1, 1] for ch2, (-1, 1, 1, 1) mod 3 for ch3
    assembly = {j: x for j, a in enumerate(spec["assembly"]) if (x := F.of(a))}
    assert assembly and not merge.add(assembly)


CH2 = ("(1,4)(2,3)", "(1,3)(2,4)", "(1,2)(3,4)")
CH3 = ("(1,3)(2,3)(4,5)", "(1,4)(2,4)(3,5)", "(1,4)(2,5)(3,4)",
       "(1,5)(2,4)(3,4)")


@pytest.mark.parametrize("name, graphs, reversals, triangles, bound", [
    ("ch2-bounding", CH2, [(0, 1, 1), (0, 1, 3), (1, 2, 2)], [], []),
    ("ch3-first-bounding", CH3, [(0, 1, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)],
     [(1, 2, 3, 4)], [(1, 2, 2), (2, 3, 1)])],
    ids=("ch2-bounding", "ch3-first-bounding"))
def test_the_free_pair_directions_are_reversals_and_a_triangle(
        name, graphs, reversals, triangles, bound):
    # besides the line through the checked-in weights, the widened
    # kernels hold only pair directions, named here (graphs by their
    # index in the case): each reversal c(G,H,i) + c(H,G,i), whose D
    # vanishes after the facts, and in ch3 the triangle c(B,C,4) -
    # c(B,D,4) + c(C,D,4) of three straightenings at one merge.  They are
    # independent and, with that line, span the kernel.  The reversals
    # at ch3's merges 2 and 1, whose pair chains' D differ in size, are
    # not free
    spec = _load_cases()[name]
    assert tuple(spec["graphs"]) == graphs
    pairs = _accepted_pairs(spec)
    at = {(graphs.index(g), graphs.index(h), i): j
          for j, (g, h, i) in enumerate(pairs)}
    F = Field(spec["char"])
    kernel = _widened_kernel(spec, pairs)
    span, named = Eliminator(F), Eliminator(F)
    for v in kernel:
        span.add(v)
    free = [{at[g, h, i]: 1, at[h, g, i]: 1} for g, h, i in reversals]
    free += [{at[b, c, i]: 1, at[b, d, i]: F.of(-1), at[c, d, i]: 1}
             for b, c, d, i in triangles]
    assert len(free) == len(kernel) - 1
    for v in free:
        assert not span.add(v) and named.add(v)
    for g, h, i in bound:
        assert span.add({at[g, h, i]: 1, at[h, g, i]: 1})


def _mutants(spec):
    """Copies of an assembled spec with one number changed: a pair's sg
    flipped, a pair weight zeroed, an assembly entry flipped (mod 2,
    where flipping is invisible, set to 0)."""
    flip = (lambda x: 0) if spec["char"] == 2 else (lambda x: -x)
    for k in range(len(spec["pairs"])):
        for at, change in ((3, flip), (5, lambda x: 0)):
            bad = copy.deepcopy(spec)
            bad["pairs"][k][at] = change(bad["pairs"][k][at])
            yield ("pairs", k, at), bad
    for k in range(len(spec["assembly"])):
        bad = copy.deepcopy(spec)
        bad["assembly"][k] = flip(bad["assembly"][k])
        yield ("assembly", k), bad


def test_a_wrong_spec_number_is_off_the_solved_line(solved):
    # the solved kernels reject every one-number mutant of the specs
    specs = _load_cases()
    count = 0
    for name in ASSEMBLED:
        char = specs[name]["char"]
        kernels = {check: _kernel(char, cols)
                   for check, cols in solved[name].items()}
        for what, bad in _mutants(specs[name]):
            assert not all(_on_line(char, kernels[check][0], want)
                           for check, want in _weights(bad).items()), \
                (name, what)
            count += 1
    assert count == 2 * 10 + 3 + 4 + 3


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
        paper = Chain().add(1, f, WeightSpec((), ()), G)
        for e in G.edges:
            rest = PGraph(G.partition, tuple(x for x in G.edges if x != e))
            paper.add(1, contraction(f, G, e, "a"), WeightSpec(("a",), ()),
                      rest)
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
