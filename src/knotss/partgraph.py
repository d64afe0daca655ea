"""Interval partitions of {0..n+1}, graphs on their internal pieces,
the merge maps delta_i with their edge-permutation signs, and an
exhaustive check that they commute with the Cech differential.

A partition is stored as the composition of its piece sizes, read left
to right; piece identity is positional.  Graph vertices are the
positions of the internal pieces (1 .. #P-2); the minimum and maximum
pieces never carry edges.  delta_i merges the pieces at positions i and
i+1; the result is dropped when it acquires a loop, a double edge, or
an edge touching an extreme piece.

verify_commutation works one graph at a time over Z: every coefficient
is a signed sum of units, so each identity is a {(sizes, edges): int}
dict whose nonzero entries are reduced into the field once.  The route over
field-valued shape chains that it replaced is kept in the tests as the
reference.  Partition._of and PGraph._of skip validation for the
partitions and graphs this module derives from valid ones; the public
constructors and parse_graph validate.  Record, the base of these two
records and of chainledger.WeightSpec and geometry.Params, gives them
what a frozen dataclass would without importing dataclasses, which
loads inspect, ast, dis and tokenize at every start.
"""

import re
from collections import defaultdict
from itertools import combinations
from math import comb
from operator import attrgetter


class Record:
    """A frozen record with __slots__, compared, hashed and printed by
    _fields, which lead its __slots__; equal only within its class."""
    __slots__ = ()

    def __init_subclass__(cls):
        # an attrgetter is no descriptor: self._key is the getter itself
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values):
        """Store values in the slots, in __slots__ order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor
        return self.__class__, self._key(self)


class Partition(Record):
    __slots__ = _fields = ("n", "sizes")

    def __init__(self, n, sizes):
        if len(sizes) < 2:
            raise ValueError("a partition needs at least two pieces")
        if any(s < 1 for s in sizes):
            raise ValueError("piece sizes must be positive")
        if sum(sizes) != n + 2:
            raise ValueError("piece sizes must cover {0..n+1}")
        self._set(n, sizes)

    @classmethod
    def _of(cls, n, sizes):
        """Internal constructor for sizes already known to be valid."""
        P = cls.__new__(cls)
        object.__setattr__(P, "n", n)
        object.__setattr__(P, "sizes", sizes)
        return P

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


class PGraph(Record):
    __slots__ = ("partition", "edges", "_hash")
    _fields = ("partition", "edges")

    def __init__(self, partition, edges):
        m = partition.num_internal
        seen = set()
        for (a, b) in edges:
            if not (1 <= a < b <= m):
                raise ValueError("edge (%d,%d) must join distinct internal pieces" % (a, b))
            if (a, b) in seen:
                raise ValueError("double edge (%d,%d)" % (a, b))
            seen.add((a, b))
        self._set(partition, tuple(sorted(edges)))

    @classmethod
    def _of(cls, partition, edges):
        """Internal constructor for sorted edges already valid on partition."""
        G = cls.__new__(cls)
        object.__setattr__(G, "partition", partition)
        object.__setattr__(G, "edges", edges)
        return G

    def __hash__(self):
        # computed on first use and stored: graphs label every chain term
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.partition, self.edges))
            object.__setattr__(self, "_hash", h)
        return h

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


def inversion_sign(seq):
    """(-1)^(number of inversions of seq): the sign of a permutation."""
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
    sizes = P.sizes
    last = len(sizes) - 2  # merge index landing on the maximum piece
    if not (0 <= i <= last):
        raise ValueError("merge index %d out of range" % i)
    if not last:
        return None  # the one-piece partition is outside the poset
    # internal label v sits at position v and moves down one when v > i;
    # a label landing on 0 or on last has joined an extreme piece
    images, restricted = [], []
    for (a, b) in G.edges:
        va = a - 1 if a > i else a
        vb = b - 1 if b > i else b
        if va == 0 or vb == last:
            return None  # edge swallowed by an extreme piece
        if va == vb:
            return None  # loop
        images.append((va, vb))
        if a == i or a == i + 1:
            restricted.append((va, vb))
    if len(set(images)) != len(images):
        return None  # double edge
    Q = Partition._of(P.n, sizes[:i] + (sizes[i] + sizes[i + 1],) + sizes[i + 2:])
    return PGraph._of(Q, tuple(sorted(images))), inversion_sign(restricted)


def all_graphs(P, max_edges=None):
    m = P.num_internal
    pool = list(combinations(range(1, m + 1), 2))
    limit = len(pool) if max_edges is None else min(max_edges, len(pool))
    for k in range(limit + 1):
        for edges in combinations(pool, k):
            yield PGraph._of(P, edges)


def count_graphs(P, max_edges=None):
    """How many graphs all_graphs(P, max_edges) yields, by binomials."""
    pairs = comb(P.num_internal, 2)
    limit = pairs if max_edges is None else min(max_edges, pairs)
    return sum(comb(pairs, k) for k in range(limit + 1))


def _vanishes(counts, field):
    """True when every integer coefficient reduces to zero in field."""
    return not any(field.of(c) for c in counts.values() if c)


def verify_commutation(n, field, discrete_only=False, max_edges=None):
    """Exhaustively check, graph by graph, that the merge maps commute
    with the Cech differential (signs included), merge by merge, and
    that delta^2 = 0 and cech^2 = 0 as operators on shape chains.

    For a merge delta_i that keeps G the identity is
    cech(delta_i G) = delta_i(cech G).  When delta_i kills G the
    composite vanishes only on chains supported over G (the kill
    conditions are conditions on supports, which the shape labels do
    not carry), so the meaningful identity is the one quantified over
    surviving merges; that is also the identity whose sign bookkeeping
    is nontrivial.

    Every coefficient is a signed sum of units, so each identity is
    summed over Z, keyed by (piece sizes, edges), and each nonzero sum
    is reduced into the field once.  Returns a report dict; any
    counterexample label is recorded.
    """
    if not (1 <= n <= 8):
        raise ValueError("n out of supported range 1..8")
    partitions = [discrete_partition(n)] if discrete_only else enumerate_partitions(n)
    checked = 0
    counterexamples = []
    for P in partitions:
        for G in all_graphs(P, max_edges=max_edges):
            edges = G.edges
            faces = [edges[:k] + edges[k + 1:] for k in range(len(edges))]
            face_graphs = [PGraph._of(P, f) for f in faces]
            delta2 = defaultdict(int)
            for i in range(P.num_pieces - 1):
                hit = delta_graph(i, G)
                if hit is None:
                    continue
                image, sign = hit
                # cech(delta_i G) - delta_i(cech G), cech = sum_k (-1)^{k-1} del_k
                sizes, img = image.partition.sizes, image.edges
                diff = defaultdict(int)
                for k in range(len(img)):
                    diff[sizes, img[:k] + img[k + 1:]] += sign if k % 2 == 0 else -sign
                for k, face in enumerate(face_graphs):
                    hit2 = delta_graph(i, face)
                    if hit2 is not None:
                        image2, sign2 = hit2
                        key = (image2.partition.sizes, image2.edges)
                        diff[key] -= sign2 if k % 2 == 0 else -sign2
                if not _vanishes(diff, field):
                    counterexamples.append(("commute", i, str(G)))
                # delta(delta G) collects +-delta_j delta_i G over both merges
                coeff = sign if i % 2 == 0 else -sign
                for j in range(len(sizes) - 1):
                    hit2 = delta_graph(j, image)
                    if hit2 is not None:
                        image2, sign2 = hit2
                        key = (image2.partition.sizes, image2.edges)
                        delta2[key] += coeff * sign2 if j % 2 == 0 else -coeff * sign2
            if not _vanishes(delta2, field):
                counterexamples.append(("delta2", str(G)))
            cech2 = defaultdict(int)
            for k, face in enumerate(faces):
                for j in range(len(face)):
                    cech2[P.sizes, face[:j] + face[j + 1:]] += 1 if (k + j) % 2 == 0 else -1
            if not _vanishes(cech2, field):
                counterexamples.append(("cech2", str(G)))
            checked += 1
    return {"n": n, "field": field.name, "discrete_only": discrete_only,
            "checked": checked, "counterexamples": counterexamples,
            "pass": not counterexamples}
