"""Concrete bounding-chain constructions for the arity-4 and arity-5
cocycles, and the three-term relation used for the page-2 differential.

One signed construction serves both characteristics: chain_c and
chain_pair carry the alternating signs of D = d + (-1)^deg partial, and
a case's characteristic enters only when run_case reduces a result
mod 2 (arity 4) or mod 3 (arity 5).  The three-term relation takes the
same two constructors with each contraction averaged over both push
directions.  All four builders share one contraction loop: c(G,i) and
the triple chain take c(G)'s contracted terms (_contracted, _contract).
Each term goes to Chain.add with its WeightSpec already in canonical
order: the s-names a, b of the contracted edges and c of c(G,i), then
the homotopy's t.  The graph lists, pairing data, and expected
identities are checked-in data (data/cases.json) interpreted by
run_case; the survivors case names its bounding case and reads that
case's graphs and pairs.  Merge images enter a difference unfiltered,
and run_case filters each difference once with apply_facts after
reducing it mod char.
"""

import json
import os
from fractions import Fraction
from itertools import combinations

from .chainledger import (Chain, WeightSpec, ZeroFacts, apply_delta,
                          apply_facts, boundary_D, contraction, f_graph,
                          i_contraction, straight)
from .partgraph import PGraph, delta_graph, parse_graph


def subgraph(G, drop):
    return PGraph(G.partition, tuple(e for e in G.edges if e not in drop))


def merged_graph(i, G):
    hit = delta_graph(i, G)
    if hit is None:
        raise ValueError("merge %d kills %s" % (i, G))
    return hit[0]


def merged_edge(i, G, e):
    return merged_graph(i, PGraph(G.partition, (e,))).edges[0]


def homotopy_target(f, fp, i):
    """The straight homotopy goes to fp when the i-th components agree
    and to fp composed with the factor swap of the two spheres when
    they differ."""
    return fp if f.comps[i - 1] == fp.comps[i - 1] else fp.swap_xy()


def pair_data(G, H, i):
    """Shared data for a two-graph chain: maps, merged graphs, and the
    edge identification E(G) = E(delta_i G) = E(delta_i H) = E(H)."""
    f, fp = f_graph(G), f_graph(H)
    dG, dH = merged_graph(i, G), merged_graph(i, H)
    if dG.edges != dH.edges:
        raise ValueError("merged graphs differ; no pair chain")
    himg = {merged_edge(i, H, e): e for e in H.edges}
    edges = []
    for e in G.edges:
        ebar = merged_edge(i, G, e)
        edges.append((e, ebar, himg[ebar]))
    psi = straight(f, homotopy_target(f, fp, i), "t")
    return f, fp, dG, dH, edges, psi


# ---------------------------------------------------------------------------
# signed chains, reduced mod 2 at arity 4 and mod 3 at arity 5


# the weights of the uncontracted terms: f(w_0), and the homotopies on w_01
_W0, _WT = WeightSpec((), ()), WeightSpec((), ("t",))


def _contracted(G, directions, tail=_W0):
    """(edge positions js, coefficient (-1)^(sum js + 1) / #directions,
    weight: s-names a, then b, for the edges, then tail's s-names, and
    tail's t-names) of each contracted term: every edge, then every pair
    of edges when G has more than two; the coefficient is an int for one
    direction."""
    m = len(G.edges)
    wt = 1 if len(directions) == 1 else Fraction(1, len(directions))
    subsets = [(j,) for j in range(1, m + 1)]
    if m > 2:
        subsets += combinations(range(1, m + 1), 2)
    return [(js, wt * (-1) ** (sum(js) + 1),
             WeightSpec(("a", "b")[:len(js)] + tail.s_names, tail.t_names))
            for js in subsets]


def _contract(expr, G, edges, direction):
    """expr with each edge contracted in turn, bound to a, then b."""
    for e, s in zip(edges, "ab"):
        expr = contraction(expr, G, e, s, direction)
    return expr


def chain_c(G, directions=(1,)):
    """c(G) = f(w_0) + sum_j (-1)^j f_j(w_1)
                     + sum_{j<k} (-1)^{j+k+1} f_{jk}(w_2),
    each contraction averaged over the push directions.  On the
    two-edge graphs this is the paper's f(w_0) + f_1(w_1) + f_2(w_1)
    mod 2, and with directions (1, -1) it is c'(G) of the three-term
    relation."""
    f = f_graph(G)
    ch = Chain().add(1, f, _W0, G)
    for js, coeff, w in _contracted(G, directions):
        edges = [G.edges[j - 1] for j in js]
        for d in directions:
            ch.add(coeff * (-1) ** len(js), _contract(f, G, edges, d), w,
                   subgraph(G, edges))
    return ch


def chain_pair(G, H, i, directions=(1,)):
    """c(G,H,i) = psi(w_01) + sum_j (-1)^{j+1} (psi_j + lambda_j
    - lambda'_j)(w_11) + the same over edge pairs with (-1)^{j+k+1} on
    w_21, each contraction averaged over the push directions."""
    f, fp, dG, dH, edges, psi = pair_data(G, H, i)
    ch = Chain().add(1, psi, _WT, dG)
    for js, coeff, w in _contracted(G, directions, _WT):
        eg, ebar, eh = zip(*(edges[j - 1] for j in js))
        label = subgraph(dG, ebar)
        for d in directions:
            lam = straight(_contract(f, G, eg, d),
                           _contract(f, dG, ebar, d), "t")
            lamp = straight(_contract(fp, H, eh, d),
                            _contract(fp, dH, ebar, d), "t")
            psij = _contract(psi, dG, ebar, d)
            for sgn, expr in ((coeff, psij), (coeff, lam), (-coeff, lamp)):
                ch.add(sgn, expr, w, label)
    return ch


def chain_cycle_ch3(G, i):
    """c(G,i): c(G)'s contracted terms (edge pairs included, so G needs
    three edges) with an s-factor c separating components i and i+1 in
    both signs, on the merged label, where a double edge drops them."""
    if len(G.edges) < 3:
        raise ValueError("c(G,i) needs a graph with three edges or more")
    f = f_graph(G)
    ch = Chain()
    for js, coeff, w in _contracted(G, (1, -1), WeightSpec(("c",), ())):
        edges = [G.edges[j - 1] for j in js]
        hit = delta_graph(i, subgraph(G, edges))
        if hit is None:
            continue
        expr = _contract(f, G, edges, 1)
        for eps in (1, -1):
            ch.add(coeff, i_contraction(expr, i, "c", eps), w, hit[0])
    return ch


def chain_triple(G5, G6, G7, i):
    """Three-graph chain over the triangle graph that contains the
    three merged graphs as its two-edge subgraphs."""
    f5, f6, f7 = f_graph(G5), f_graph(G6), f_graph(G7)
    d5, d6, d7 = (merged_graph(i, G) for G in (G5, G6, G7))
    tri = PGraph(d5.partition, tuple(sorted(set(d5.edges + d6.edges + d7.edges))))
    if len(tri.edges) != 3:
        raise ValueError("merged graphs do not assemble a triangle")
    psi = straight(f5, homotopy_target(f5, f6, i), "t")
    phi = straight(f5, homotopy_target(f5, f7, i), "t")
    ch = Chain().add(1, f5, _W0, tri).add(1, psi, _WT, d6).add(1, phi, _WT, d7)
    for hom, dG in ((psi, d6), (phi, d7)):
        for js, coeff, w in _contracted(dG, (1, -1), _WT):
            ebar = [dG.edges[j - 1] for j in js]
            for d in (1, -1):
                ch.add(coeff, _contract(hom, dG, ebar, d), w,
                       subgraph(dG, ebar))
    for sgn, fk, G, dG in ((1, f5, G5, d5), (-1, f6, G6, d6), (-1, f7, G7, d7)):
        for js, coeff, w in _contracted(G, (1, -1), _WT):
            eg = [G.edges[j - 1] for j in js]
            ebar = [merged_edge(i, G, e) for e in eg]
            for d in (1, -1):
                lam = straight(_contract(fk, G, eg, d),
                               _contract(fk, dG, ebar, d), "t")
                ch.add(sgn * coeff, lam, w, subgraph(dG, ebar))
    return ch


# ---------------------------------------------------------------------------
# case interpreter


def _load_cases(path=None):
    path = path or os.path.join(os.path.dirname(__file__), "data", "cases.json")
    with open(path) as fh:
        return json.load(fh)


def _graphs(spec):
    return [parse_graph(t, spec["n"]) for t in spec["graphs"]]


def _check(report, name, ok, detail=None):
    report["checks"].append({"name": name, "pass": bool(ok),
                             "detail": detail if not ok else None})


def _residual_zero(diff, facts, char):
    """A difference of chains is accepted as zero when every term that
    survives modulo char is a basepoint collapse.  It reduces before it
    filters, so every term's coefficient must be defined mod char; the
    filter is apply_facts, so merge images may enter unfiltered."""
    kept = apply_facts(diff.reduce(char), facts)
    return kept.is_zero(), [(str(c), t.expr.text(), str(t.label))
                            for c, t in kept.items()]


def run_case(name, facts=None, specs=None):
    """Run one ledger case; returns a report dict with per-check pass/fail
    entries and an overall flag.  facts and specs default to data/."""
    facts = facts or ZeroFacts.load()
    specs = specs or _load_cases()
    spec = specs[name]
    if "bounding" in spec:
        # the survivors case reads its bounding case's graphs and pairs
        spec = dict(specs[spec["bounding"]], **spec)
    report = {"case": name, "checks": []}
    kind, char = spec["kind"], spec["char"]
    # the three-term relation contracts in both push directions: c'(G)
    directions, prime = ((1, -1), "'") if kind == "three-term" else ((1,), "")
    graphs = _graphs(spec)
    built = {}

    def chain(G):
        # nothing below mutates a built chain, so each is built once
        if G not in built:
            built[G] = chain_c(G, directions)
        return built[G]

    def pair_checks():
        """Check D c(G,H,i) = sg delta_i c(G) + sh delta_i c(H) for each
        pair; returns the weighted sum of the pair chains' D, which is D
        of their weighted sum, since D is linear term by term."""
        d_total = Chain()
        for (gt, ht, i, sg, sh, w) in spec["pairs"]:
            G, H = parse_graph(gt, spec["n"]), parse_graph(ht, spec["n"])
            diff = boundary_D(chain_pair(G, H, i, directions))
            d_total.add_scaled(w, diff)
            diff.add_scaled(-sg, apply_delta(chain(G), i))
            diff.add_scaled(-sh, apply_delta(chain(H), i))
            ok, detail = _residual_zero(diff, facts, char)
            _check(report, "D c%s(%s,%s,%d) matches merges"
                   % (prime, gt, ht, i), ok, detail)
        return d_total

    if kind in ("cycles", "three-term"):
        for G, text in zip(graphs, spec["graphs"]):
            ok = boundary_D(chain(G)).reduce(char).is_zero()
            _check(report, "D c%s(%s) = 0" % (prime, text), ok)

    if kind == "cycles":
        for (gtext, i) in spec.get("corrections", []):
            G = parse_graph(gtext, spec["n"])
            ch = chain_cycle_ch3(G, i)
            ok, detail = _residual_zero(boundary_D(ch), facts, char)
            _check(report, "D c(%s,%d) = 0" % (gtext, i), ok, detail)

    elif kind == "bounding":
        # D of the assembled chain, the weighted sum of the pair chains
        diff = pair_checks()
        target = Chain()
        for G, w in zip(graphs, spec["assembly"]):
            target.add_scaled(w, chain(G))
        diff.add_scaled(-spec["assembly_sign"], apply_delta(target))
        ok, detail = _residual_zero(diff, facts, char)
        _check(report, "D of the assembled chain is the merge image", ok, detail)

    elif kind == "survivors":
        total = Chain()
        for (gt, ht, i, _, _, w) in spec["pairs"]:
            G, H = parse_graph(gt, spec["n"]), parse_graph(ht, spec["n"])
            total.add_scaled(w, chain_pair(G, H, i, directions))
        survivors = apply_facts(apply_delta(total), facts).reduce(char)
        got = sorted((t.expr.text(), str(t.label)) for _, t in survivors.items())
        want = sorted((e, l) for (e, l) in spec["expected"])
        _check(report, "merge image is the expected fundamental cycle",
               got == want, {"got": got, "want": want})
        report["survivors"] = got

    elif kind == "three-term":
        G5, G6, G7 = graphs
        total = Chain()
        for G, w in zip(graphs, spec["assembly"]):
            total.add_scaled(w, chain(G))
        # D of the relation chain gamma: the pairs plus the triple
        d_gamma = pair_checks()
        ti = spec["triple"]
        diff = boundary_D(chain_triple(G5, G6, G7, ti))
        d_gamma.add_scaled(spec["triple_weight"], diff)
        diff -= apply_delta(total, ti)
        ok, detail = _residual_zero(diff, facts, char)
        _check(report, "D of the triple chain matches merge %d" % ti, ok, detail)
        d_gamma.add_scaled(-spec["assembly_sign"], apply_delta(total))
        ok, detail = _residual_zero(d_gamma, facts, char)
        _check(report, "D of the relation chain bounds the merge image", ok, detail)

    else:
        raise ValueError("unknown case kind %r" % kind)

    report["pass"] = all(c["pass"] for c in report["checks"])
    return report


def all_cases():
    return sorted(_load_cases())
