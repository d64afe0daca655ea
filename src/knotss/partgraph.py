"""Interval partitions of {0..n+1}, graphs on their internal pieces,
the merge maps delta_i with their edge-permutation signs, and the Cech
differential on graph-labeled chains.

A partition is stored as the composition of its piece sizes, read left
to right; piece identity is positional.  Graph vertices are the
positions of the internal pieces (1 .. #P-2); the minimum and maximum
pieces never carry edges.  delta_i merges the pieces at positions i and
i+1; the result is dropped when it acquires a loop, a double edge, or
an edge touching an extreme piece.
"""

import re
from dataclasses import dataclass
from itertools import combinations

from .fields import Field


@dataclass(frozen=True)
class Partition:
    n: int
    sizes: tuple

    def __post_init__(self):
        if len(self.sizes) < 2:
            raise ValueError("a partition needs at least two pieces")
        if any(s < 1 for s in self.sizes):
            raise ValueError("piece sizes must be positive")
        if sum(self.sizes) != self.n + 2:
            raise ValueError("piece sizes must cover {0..n+1}")

    @property
    def num_pieces(self):
        return len(self.sizes)

    @property
    def num_internal(self):
        return len(self.sizes) - 2

    def pieces(self):
        out, start = [], 0
        for s in self.sizes:
            out.append(tuple(range(start, start + s)))
            start += s
        return out

    def boundaries(self):
        acc, out = 0, []
        for s in self.sizes[:-1]:
            acc += s
            out.append(acc)
        return frozenset(out)

    def is_discrete(self):
        return all(s == 1 for s in self.sizes)

    def __str__(self):
        return "+".join(str(s) for s in self.sizes)


def discrete_partition(n):
    return Partition(n, (1,) * (n + 2))


def enumerate_partitions(n):
    """All 2^{n+1} - 1 interval partitions of {0..n+1} with >= 2 pieces."""
    if not (1 <= n <= 8):
        raise ValueError("n out of supported range 1..8")
    out = []
    total = n + 2
    for mask in range(2 ** (total - 1)):
        sizes, run = [], 1
        for pos in range(total - 1):
            if mask >> pos & 1:
                sizes.append(run)
                run = 1
            else:
                run += 1
        sizes.append(run)
        if len(sizes) >= 2:
            out.append(Partition(n, tuple(sizes)))
    return out


def is_subdivision(P, Q):
    """True iff Q is strictly finer: every Q-piece sits inside a P-piece."""
    if P.n != Q.n:
        raise ValueError("partitions of different sets")
    return P != Q and P.boundaries() <= Q.boundaries()


@dataclass(frozen=True)
class PGraph:
    partition: Partition
    edges: tuple

    def __post_init__(self):
        m = self.partition.num_internal
        seen = set()
        for (a, b) in self.edges:
            if not (1 <= a < b <= m):
                raise ValueError("edge (%d,%d) must join distinct internal pieces" % (a, b))
            if (a, b) in seen:
                raise ValueError("double edge (%d,%d)" % (a, b))
            seen.add((a, b))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def __str__(self):
        prefix = "" if self.partition.is_discrete() else str(self.partition) + ":"
        return prefix + ("".join("(%d,%d)" % e for e in self.edges) or "()")


_GRAPH_RE = re.compile(r"\((\d+)\s*,\s*(\d+)\)")


def parse_graph(text, n):
    """Parse '(1,4)(2,3)' with an optional 'sizes:' partition prefix.

    Without a prefix the partition is the discrete one; with one, e.g.
    '1+2+2+1:(1,2)', the sizes before the colon give the composition.
    """
    if ":" in text:
        prefix, body = text.split(":", 1)
        P = Partition(n, tuple(int(s) for s in prefix.split("+")))
    else:
        body, P = text, discrete_partition(n)
    body = body.strip()
    edges = tuple((int(a), int(b)) for a, b in _GRAPH_RE.findall(body))
    if _GRAPH_RE.sub("", body).strip() not in ("", "()"):
        raise ValueError("malformed graph text %r" % text)
    return PGraph(P, edges)


def _inversion_sign(seq):
    sign = 1
    for a, b in combinations(seq, 2):
        if a > b:
            sign = -sign
    return sign


def delta_graph(i, G):
    """Merge pieces i and i+1 under the graph G; None when the term dies.

    Returns (image graph, sign).  The sign is the parity of the
    permutation comparing the G-order of the edges whose smaller vertex
    is piece i or i+1 against the lexicographic order of their images.
    """
    P = G.partition
    if not (0 <= i <= P.num_pieces - 2):
        raise ValueError("merge index %d out of range" % i)
    sizes = P.sizes[:i] + (P.sizes[i] + P.sizes[i + 1],) + P.sizes[i + 2:]
    if len(sizes) < 2:
        return None  # the one-piece partition is outside the poset
    Q = Partition(P.n, sizes)
    m = P.num_internal
    last = P.num_pieces - 2  # merge index landing on the maximum piece

    def vmap(v):
        # internal label v sits at position v; None marks an extreme piece
        if i == 0:
            return None if v == 1 else v - 1
        if i == last:
            return None if v == m else v
        return v if v <= i else v - 1

    images = []
    for (a, b) in G.edges:
        va, vb = vmap(a), vmap(b)
        if va is None or vb is None:
            return None  # edge swallowed by an extreme piece
        if va == vb:
            return None  # loop
        images.append((min(va, vb), max(va, vb)))
    if len(set(images)) != len(images):
        return None  # double edge
    restricted = [img for (a, b), img in zip(G.edges, images) if a in (i, i + 1)]
    sign = _inversion_sign(restricted)
    return PGraph(Q, tuple(images)), sign


class ShapeChain:
    """Formal sum of (Partition, PGraph) labels with field coefficients."""

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
        """Add the field element c to the coefficient of label, in place."""
        F = self.field
        v = F.add(self.terms.get(label, F.zero), c)
        if v:
            self.terms[label] = v
        else:
            self.terms.pop(label, None)

    def __add__(self, other):
        out = ShapeChain(self.field)
        out.terms = dict(self.terms)
        for label, c in other.terms.items():
            out._put(label, c)
        return out

    def scale(self, c):
        F = self.field
        c = F.of(c)
        out = ShapeChain(F)
        if c:
            out.terms = {label: F.mul(c, v) for label, v in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        return isinstance(other, ShapeChain) and self.field == other.field \
            and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s·%s" % (c, g) for g, c in sorted(
            self.terms.items(), key=lambda kv: str(kv[0])))


def cech_boundary(chain):
    """Signed sum of single-edge removals, sum_k (-1)^{k-1} del_k."""
    F = chain.field
    out = ShapeChain(F)
    for G, c in chain.terms.items():
        for k, _ in enumerate(G.edges):
            smaller = PGraph(G.partition, G.edges[:k] + G.edges[k + 1:])
            coeff = c if k % 2 == 0 else F.neg(c)  # (-1)^{k-1} with k 1-based
            out._put(smaller, coeff)
    return out


def shape_delta(chain):
    """Signed merge sum delta = sum_{i=0}^{#P-2} (-1)^i delta_i."""
    F = chain.field
    out = ShapeChain(F)
    for G, c in chain.terms.items():
        for i in range(G.partition.num_pieces - 1):
            hit = delta_graph(i, G)
            if hit is None:
                continue
            image, sign = hit
            coeff = F.mul(F.of(sign if i % 2 == 0 else -sign), c)
            out._put(image, coeff)
    return out


def all_graphs(P, max_edges=None):
    m = P.num_internal
    pool = list(combinations(range(1, m + 1), 2))
    limit = len(pool) if max_edges is None else min(max_edges, len(pool))
    for k in range(limit + 1):
        for edges in combinations(pool, k):
            yield PGraph(P, edges)


def merge_commutes_with_cech(i, G, field):
    """Check cech(delta_i G) = delta_i(cech G) for one surviving merge.

    When delta_i kills G the composite vanishes only on chains supported
    over G (the kill conditions are conditions on supports, which the
    shape labels do not carry), so the meaningful identity is the one
    quantified over surviving merges; that is also the identity whose
    sign bookkeeping is nontrivial.
    """
    hit = delta_graph(i, G)
    if hit is None:
        return True
    image, sign = hit
    lhs = cech_boundary(ShapeChain.single(field, image, sign))
    rhs = ShapeChain(field)
    for k in range(len(G.edges)):
        smaller = PGraph(G.partition, G.edges[:k] + G.edges[k + 1:])
        hit2 = delta_graph(i, smaller)
        if hit2 is None:
            continue
        image2, sign2 = hit2
        coeff = sign2 if k % 2 == 0 else -sign2
        rhs._put(image2, field.of(coeff))
    return lhs == rhs


def verify_commutation(n, field, discrete_only=False, max_edges=None):
    """Exhaustively check that the merge maps commute with the Cech
    differential (signs included) on every graph, merge by merge, and
    that delta^2 = 0 and cech^2 = 0 as operators on shape chains.

    Returns a report dict; any counterexample label is recorded.
    """
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
