import copy
import hashlib
import pickle
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotss import partgraph
from knotss.chainledger import WeightSpec
from knotss.cli import main
from knotss.fields import F2, F3, QQ
from knotss.geometry import Params, default_params
from knotss.partgraph import (Partition, PGraph, all_graphs, count_graphs,
                              delta_graph, discrete_partition,
                              enumerate_partitions, is_subdivision,
                              parse_graph, verify_commutation)


# ---------------------------------------------------------------------------
# reference route: the shape-chain check over field coefficients that
# verify_commutation replaced, kept here to compare against


class ShapeChain:
    """Formal sum of PGraph labels with field coefficients."""

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        for label, c in (terms or {}).items():
            c = field.of(c)
            if c:
                self.terms[label] = c

    @classmethod
    def single(cls, field, graph, coeff=1):
        return cls(field, {graph: coeff})

    def is_zero(self):
        return not self.terms

    def _put(self, label, c):
        F = self.field
        v = F.add(self.terms.get(label, F.zero), c)
        if v:
            self.terms[label] = v
        else:
            self.terms.pop(label, None)

    def __eq__(self, other):
        return isinstance(other, ShapeChain) and self.field == other.field \
            and self.terms == other.terms


def cech_boundary(chain):
    """Signed sum of single-edge removals, sum_k (-1)^{k-1} del_k."""
    F = chain.field
    out = ShapeChain(F)
    for G, c in chain.terms.items():
        for k, _ in enumerate(G.edges):
            smaller = PGraph(G.partition, G.edges[:k] + G.edges[k + 1:])
            out._put(smaller, c if k % 2 == 0 else F.neg(c))
    return out


def shape_delta(chain):
    """Signed merge sum delta = sum_{i=0}^{#P-2} (-1)^i delta_i."""
    F = chain.field
    out = ShapeChain(F)
    for G, c in chain.terms.items():
        for i in range(G.partition.num_pieces - 1):
            hit = partgraph.delta_graph(i, G)
            if hit is None:
                continue
            image, sign = hit
            out._put(image, F.mul(F.of(sign if i % 2 == 0 else -sign), c))
    return out


def merge_commutes_with_cech(i, G, field):
    """cech(delta_i G) = delta_i(cech G) for one surviving merge."""
    hit = partgraph.delta_graph(i, G)
    if hit is None:
        return True
    image, sign = hit
    lhs = cech_boundary(ShapeChain.single(field, image, sign))
    rhs = ShapeChain(field)
    for k in range(len(G.edges)):
        smaller = PGraph(G.partition, G.edges[:k] + G.edges[k + 1:])
        hit2 = partgraph.delta_graph(i, smaller)
        if hit2 is None:
            continue
        image2, sign2 = hit2
        rhs._put(image2, field.of(sign2 if k % 2 == 0 else -sign2))
    return lhs == rhs


def reference_verify_commutation(n, field, discrete_only=False, max_edges=None):
    partitions = [discrete_partition(n)] if discrete_only else enumerate_partitions(n)
    checked = 0
    counterexamples = []
    for P in partitions:
        for G in all_graphs(P, max_edges=max_edges):
            x = ShapeChain.single(field, G)
            for i in range(P.num_pieces - 1):
                if not merge_commutes_with_cech(i, G, field):
                    counterexamples.append(("commute", i, str(G)))
            if not shape_delta(shape_delta(x)).is_zero():
                counterexamples.append(("delta2", str(G)))
            if not cech_boundary(cech_boundary(x)).is_zero():
                counterexamples.append(("cech2", str(G)))
            checked += 1
    return {"n": n, "field": field.name, "discrete_only": discrete_only,
            "checked": checked, "counterexamples": counterexamples,
            "pass": not counterexamples}


def vmap_delta_graph(i, G):
    """delta_graph as a per-edge vertex map, with validated constructors."""
    P = G.partition
    if not (0 <= i <= P.num_pieces - 2):
        raise ValueError("merge index %d out of range" % i)
    sizes = P.sizes[:i] + (P.sizes[i] + P.sizes[i + 1],) + P.sizes[i + 2:]
    if len(sizes) < 2:
        return None
    Q = Partition(P.n, sizes)
    m = P.num_internal
    last = P.num_pieces - 2

    def vmap(v):
        if i == 0:
            return None if v == 1 else v - 1
        if i == last:
            return None if v == m else v
        return v if v <= i else v - 1

    images = []
    for (a, b) in G.edges:
        va, vb = vmap(a), vmap(b)
        if va is None or vb is None or va == vb:
            return None
        images.append((min(va, vb), max(va, vb)))
    if len(set(images)) != len(images):
        return None
    restricted = [img for (a, b), img in zip(G.edges, images) if a in (i, i + 1)]
    sign = 1
    for x, y in combinations(restricted, 2):
        if x > y:
            sign = -sign
    return PGraph(Q, tuple(images)), sign


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(2, (4,))  # one piece
    with pytest.raises(ValueError):
        Partition(2, (0, 4))
    with pytest.raises(ValueError):
        Partition(2, (1, 1))  # wrong total
    P = Partition(4, (1, 2, 2, 1))
    assert P.pieces() == [(0,), (1, 2), (3, 4), (5,)]
    assert P.num_internal == 2


def test_enumerate_partition_count():
    for n in range(1, 7):
        assert len(enumerate_partitions(n)) == 2 ** (n + 1) - 1
    assert discrete_partition(3) in enumerate_partitions(3)


def test_enumerate_contains_worked_pair():
    parts = enumerate_partitions(4)
    P = Partition(4, (1, 2, 3))    # {0},{12},{345}
    Q = Partition(4, (1, 2, 1, 2))  # {0},{12},{3},{45}
    assert P in parts and Q in parts
    assert is_subdivision(P, Q)


def test_subdivision_is_strict_partial_order():
    parts = enumerate_partitions(3)
    for P in parts:
        assert not is_subdivision(P, P)
        for Q in parts:
            for R in parts:
                if is_subdivision(P, Q) and is_subdivision(Q, R):
                    assert is_subdivision(P, R)
    disc = discrete_partition(3)
    for P in parts:
        if P != disc:
            assert is_subdivision(P, disc)


def test_graph_validation():
    P = discrete_partition(4)
    with pytest.raises(ValueError):
        PGraph(P, ((1, 5),))  # endpoint is not internal
    with pytest.raises(ValueError):
        PGraph(P, ((2, 2),))
    with pytest.raises(ValueError):
        PGraph(P, ((1, 2), (1, 2)))
    assert PGraph(P, ((2, 3), (1, 4))).edges == ((1, 4), (2, 3))


def test_parse_graph():
    G = parse_graph("(1,4)(2,3)", 4)
    assert G.partition.is_discrete() and G.edges == ((1, 4), (2, 3))
    H = parse_graph("1+2+2+1:(1,2)", 4)
    assert H.partition.sizes == (1, 2, 2, 1)
    with pytest.raises(ValueError):
        parse_graph("(1,4)x(2,3)", 4)


def test_delta_graph_shared_image():
    G1 = parse_graph("(1,4)(2,3)", 4)
    G2 = parse_graph("(1,3)(2,4)", 4)
    h1, h2 = delta_graph(1, G1), delta_graph(1, G2)
    assert h1 is not None and h2 is not None
    assert h1[0] == h2[0]
    assert h1[0].partition.sizes == (1, 2, 1, 1, 1)
    assert h1[0].edges == ((1, 2), (1, 3))
    # same label also after merging pieces 3 and 4
    assert delta_graph(3, G1)[0] == delta_graph(3, G2)[0]


def test_delta_graph_kills():
    assert delta_graph(2, parse_graph("(2,3)", 4)) is None  # loop
    assert delta_graph(0, parse_graph("(1,3)", 4)) is None  # min piece swallowed
    assert delta_graph(4, parse_graph("(2,4)", 4)) is None  # max piece swallowed
    # double edge
    assert delta_graph(2, parse_graph("(1,2)(1,3)", 3)) is None


def test_delta_graph_sign_example():
    hit = delta_graph(2, parse_graph("(1,4)(2,5)(3,4)", 5))
    assert hit is not None
    assert hit[1] == -1


def test_cech_boundary_two_edge():
    G1 = parse_graph("(1,4)(2,3)", 4)
    out = cech_boundary(ShapeChain.single(QQ, G1))
    a = parse_graph("(2,3)", 4)
    b = parse_graph("(1,4)", 4)
    assert out.terms == {a: QQ.of(1), b: QQ.of(-1)}
    assert cech_boundary(ShapeChain.single(QQ, parse_graph("()", 4))).is_zero()


def test_shape_delta_no_middle_merge_for_g1():
    G1 = parse_graph("(1,4)(2,3)", 4)
    d = shape_delta(ShapeChain.single(QQ, G1))
    sizes = {g.partition.sizes for g in d.terms}
    assert (1, 1, 2, 1, 1) not in sizes
    assert sizes == {(1, 2, 1, 1, 1), (1, 1, 1, 2, 1)}


def test_shape_delta_edgeless_discrete():
    x = ShapeChain.single(QQ, parse_graph("()", 2))
    d = shape_delta(x)
    # alternating sum over the three merges
    assert {g.partition.sizes: c for g, c in d.terms.items()} == {
        (2, 1, 1): QQ.of(1), (1, 2, 1): QQ.of(-1), (1, 1, 2): QQ.of(1)}


def test_partition_and_graph_internal_constructors_match():
    for n in range(1, 5):
        for P in enumerate_partitions(n):
            P2 = Partition._of(P.n, P.sizes)
            assert P2 == P and hash(P2) == hash(P)
            pool = list(combinations(range(1, P.num_internal + 1), 2))
            for k in range(min(len(pool), 3) + 1):
                for edges in combinations(pool, k):
                    G, H = PGraph(P, edges), PGraph._of(P2, edges)
                    assert G == H and hash(G) == hash(H)
                    assert {G: 1}[H] == 1


def _records():
    """(record, its field tuple, its repr as a frozen dataclass printed it)
    for each of the four records built on partgraph.Record."""
    P, Q = Partition(4, (1, 2, 2, 1)), default_params(1)
    return [
        (P, (4, (1, 2, 2, 1)), "Partition(n=4, sizes=(1, 2, 2, 1))"),
        (PGraph(P, ((1, 2),)), (P, ((1, 2),)),
         "PGraph(partition=Partition(n=4, sizes=(1, 2, 2, 1)), "
         "edges=((1, 2),))"),
        (WeightSpec(("s1",), ("t1", "t2")), (("s1",), ("t1", "t2")),
         "WeightSpec(s_names=('s1',), t_names=('t1', 't2'))"),
        (Q, (1, Fraction(1, 2), Fraction(1, 6181800), Q.c),
         "Params(n=1, rho=Fraction(1, 2), eps=Fraction(1, 6181800), "
         "c=(Fraction(1, 10303), Fraction(101, 10303), "
         "Fraction(10201, 10303)))")]


@pytest.mark.parametrize("k", range(4))
def test_records_keep_what_a_frozen_dataclass_gave_them(k):
    record, fields, text = _records()[k]
    cls = type(record)
    assert cls(*fields) == record
    assert cls(**dict(zip(cls._fields, fields))) == record
    # the hash of the field tuple, so set and dict orders stay put
    assert hash(record) == hash(fields) == hash(cls(*fields))
    assert repr(record) == text
    # equal only within the class: not to its fields, nor to another
    # record class holding the same values
    other = WeightSpec if cls is not WeightSpec else Partition._of
    assert record.__eq__(fields) is NotImplemented
    assert record != fields and record != other(*fields[:2])
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert not hasattr(record, "__dict__")
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_params_compare_without_edges_and_graphs_keep_their_hash():
    Q = default_params(1)
    R = Params(n=1, rho=Q.rho, eps=Q.eps, c=Q.c)
    object.__setattr__(R, "edges", ())
    assert R == Q and hash(R) == hash(Q) and repr(R) == repr(Q)
    assert Params(1, Q.rho, 2 * Q.eps, Q.c) != Q
    # a graph hashes its fields once and keeps the value in a slot
    G = parse_graph("1+2+2+1:(1,2)", 4)
    h = hash((G.partition, G.edges))
    assert hash(G) == h and G._hash == h and hash(G) == h


def test_delta_graph_matches_vertex_map_reference():
    pairs = 0
    for n in range(1, 6):
        for P in enumerate_partitions(n):
            for G in all_graphs(P):
                for i in range(P.num_pieces - 1):
                    assert delta_graph(i, G) == vmap_delta_graph(i, G), (i, str(G))
                    pairs += 1
    assert pairs == 9356
    with pytest.raises(ValueError):
        delta_graph(5, parse_graph("()", 3))


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=lambda F: F.name)
def test_verify_commutation_matches_reference(field):
    for n in range(1, 5):
        assert verify_commutation(n, field) == reference_verify_commutation(n, field)
    assert verify_commutation(5, field, discrete_only=True) == \
        reference_verify_commutation(5, field, discrete_only=True)


@pytest.mark.parametrize("discrete_only", [False, True])
def test_verify_commutation_rejects_n_out_of_range(discrete_only):
    for n in (0, 9):
        with pytest.raises(ValueError, match="n out of supported range 1..8"):
            verify_commutation(n, QQ, discrete_only=discrete_only)


def _corrupt_one_merge(monkeypatch, target, i, corrupt):
    """Make delta_graph(i, target) return corrupt(image, sign)."""
    original = partgraph.delta_graph

    def faulty(j, G):
        hit = original(j, G)
        if j == i and G == target:
            return corrupt(*hit)
        return hit

    monkeypatch.setattr(partgraph, "delta_graph", faulty)


def test_flipped_sign_is_a_counterexample(monkeypatch):
    G = parse_graph("(1,4)(2,3)", 4)
    _corrupt_one_merge(monkeypatch, G, 1, lambda image, sign: (image, -sign))
    for field in (F3, QQ):
        rep = verify_commutation(4, field, discrete_only=True)
        assert not rep["pass"]
        assert ("commute", 1, "(1,4)(2,3)") in rep["counterexamples"]


def test_wrong_partition_is_a_counterexample(monkeypatch):
    # same edges and sign, but on 1+1+2+1+1 instead of 1+2+1+1+1
    G = parse_graph("(1,4)(2,3)", 4)
    wrong = Partition(4, (1, 1, 2, 1, 1))
    _corrupt_one_merge(monkeypatch, G, 1,
                       lambda image, sign: (PGraph(wrong, image.edges), sign))
    for field in (F2, QQ):
        rep = verify_commutation(4, field, discrete_only=True)
        assert not rep["pass"]
        assert ("commute", 1, "(1,4)(2,3)") in rep["counterexamples"]


def test_sums_are_reduced_in_the_field(monkeypatch):
    # three times a unit sign is that sign over F2, zero over F3, and a
    # different coefficient over Q
    G = parse_graph("(1,4)(2,3)", 4)
    _corrupt_one_merge(monkeypatch, G, 1, lambda image, sign: (image, 3 * sign))
    for field in (F2, F3, QQ):
        rep = verify_commutation(4, field, discrete_only=True)
        assert rep == reference_verify_commutation(4, field, discrete_only=True)
        assert rep["pass"] == (field == F2)


COMMUTE_SHA256 = {
    ("--n", "2", "--field", "f2"):
        "ea091b4844ceeffd3ab5eb2c3b4e7da32ec7e034e105f455dffad961d6e75406",
    ("--n", "3", "--field", "f2"):
        "a18f026d8e6a26983cec4c8804aa2f640610313668120826a8f4b387c15b16dd",
    ("--n", "4", "--field", "f2"):
        "115ffdb05cf0b96cd233d3a4d40f562eb1b2bde89f3cc1066f0f39ac98200bc1",
    ("--n", "2", "--field", "f3"):
        "9b7f746c83cfa106fef090019535625c89801aaa1ee89140e82a7af101b1fc05",
    ("--n", "3", "--field", "f3"):
        "f9a504dba725c8561304d317d0fa90ce3a8e281c73f781f369df153306b62859",
    ("--n", "4", "--field", "f3"):
        "60a3d8f62c3b2eee09fbbe153c516950164b7bc4dbb771949804bee12f4e9a6e",
    ("--n", "2", "--field", "q"):
        "53937be32eeb9d147154db5489212c3ace72c575f9c18e1cd291be1c8f6c28a0",
    ("--n", "3", "--field", "q"):
        "9b1f5fcd8bf2397f0c9e746cd33e7552c3f494a8a58a277a22dc06a1fa12680a",
    ("--n", "4", "--field", "q"):
        "06484347e64b16e99d0addb8825bc48d51b7873bcb2ec153dadc444cf01e0d07",
    ("--n", "5", "--discrete-only"):
        "0b7d2372ee8119a834d9ed62a4e3721ca4f727cc11622f95f69e4a8cd27b06cb",
}


@pytest.mark.parametrize("flags", sorted(COMMUTE_SHA256), ids=" ".join)
def test_commutation_reports_are_pinned(capsys, flags):
    # sha256 of `knotss triple-commute` recorded while the check still
    # ran on field-valued shape chains (reference_verify_commutation)
    assert main(["triple-commute", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMMUTE_SHA256[flags]


def test_count_graphs_matches_the_enumeration():
    for n in range(1, 6):
        for P in enumerate_partitions(n):
            for max_edges in (None, 0, 1, 2):
                assert count_graphs(P, max_edges) == \
                    sum(1 for _ in all_graphs(P, max_edges=max_edges))
    assert sum(count_graphs(P) for P in enumerate_partitions(6)) == 41658
    assert count_graphs(discrete_partition(7)) == 2 ** 21
    assert sum(count_graphs(P, 2) for P in enumerate_partitions(8)) == 15422


def test_verify_commutation_small():
    for n in (2, 3):
        assert verify_commutation(n, QQ)["pass"]
    assert verify_commutation(4, F3)["pass"]


def test_verify_commutation_discrete_n5():
    r = verify_commutation(5, F2, discrete_only=True, max_edges=1)
    assert r["pass"]


@given(st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_delta_sign_is_unit_and_merge_commutes(n, data):
    parts = enumerate_partitions(n)
    P = data.draw(st.sampled_from(parts))
    graphs = list(all_graphs(P))
    G = data.draw(st.sampled_from(graphs))
    for i in range(P.num_pieces - 1):
        hit = delta_graph(i, G)
        if hit is not None:
            assert hit[1] in (1, -1)
        assert merge_commutes_with_cech(i, G, QQ)


@given(st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_delta_and_cech_square_zero(n, data):
    parts = enumerate_partitions(n)
    P = data.draw(st.sampled_from(parts))
    G = data.draw(st.sampled_from(list(all_graphs(P))))
    x = ShapeChain.single(F3, G)
    assert shape_delta(shape_delta(x)).is_zero()
    assert cech_boundary(cech_boundary(x)).is_zero()
