"""Cohomology of planar configuration spaces in the Arnold presentation.

H^*(Conf_p(R^2); k) is generated by degree-1 classes g_{ij}, 1 <= i < j
<= p, subject to g_{ij}^2 = 0, anticommutativity, and the 3-term
relation g_{ik} g_{jk} = g_{ij} g_{jk} - g_{ij} g_{ik} for i < j < k.
A monomial is admissible when its factors have pairwise-distinct,
strictly increasing second indices; admissible monomials form a basis
of size [t^q] prod_{k=1}^{p-1} (1 + k t).

The cosimplicial structure enters through coface pullbacks on
generators and the alternating-sum differential d_1.  Coface images are
computed over Z on factor tuples, as (monomial, int) pairs
(coface_terms); hochschild sums them into one sparse integer d_1 and
coerces once per nonzero entry.  An image needs the 3-term rewrite only
when an inner coface i meets factors with second indices i and i+1.
The rewrite recurses on sorted factor tuples and memoizes its nodes in
a dict the caller may pass: each d_1 assembly passes one for all of its
images and drops it when it returns.
"""

import re
from itertools import combinations


def _sort_with_sign(factors):
    """Sort odd-degree factors by (second, first) index; count swaps mod 2.

    Insertion sort keeps the parity bookkeeping trivial at these sizes.
    """
    fs = list(factors)
    sign = 1
    for a in range(1, len(fs)):
        b = a
        while b > 0 and (fs[b - 1][1], fs[b - 1][0]) > (fs[b][1], fs[b][0]):
            fs[b - 1], fs[b] = fs[b], fs[b - 1]
            sign = -sign
            b -= 1
    return tuple(fs), sign


def straighten(factors):
    """Express a product of generators over Z in the admissible basis.

    Returns {admissible factor tuple: integer coefficient}.  The factors
    are sorted once (with the sign of the permutation) and the sorted
    tuple is straightened by _straighten_sorted with a fresh memo.
    """
    fs = tuple(factors)
    if all(fs[a][1] < fs[a + 1][1] for a in range(len(fs) - 1)):
        return {fs: 1}  # already admissible
    fs, sign = _sort_with_sign(fs)
    return {m: sign * z for m, z in _straighten_sorted(fs, {})}


def _straighten_sorted(fs, memo):
    """Straighten a factor tuple sorted by (second, first) index.

    Returns a tuple of (admissible factor tuple, nonzero int) pairs.  At
    the first pair of factors sharing a second index k, the 3-term
    rewrite g_{ik} g_{jk} -> g_{ij} g_{jk} - g_{ij} g_{ik} strictly
    decreases the sum of second indices, so the recursion terminates.
    Only such rewrite nodes enter memo, keyed by the sorted tuple; the
    stored pairs are those of fs itself, never scaled by a caller's sign.
    """
    for a in range(len(fs) - 1):
        if fs[a][1] == fs[a + 1][1]:
            break
    else:
        return ((fs, 1),)
    hit = memo.get(fs)  # a tuple with a repeated factor never enters memo
    if hit is not None:
        return hit
    if any(fs[b] == fs[b + 1] for b in range(a, len(fs) - 1)):
        return ()  # g^2 = 0
    (i, k), (j, _) = fs[a], fs[a + 1]
    # g_ij sorts in at c among fs[:a], the factors below k, and the kept
    # factor at a + 1: a + c transpositions from (g_ij, kept) + rest
    c = 0
    while c < a and (fs[c][1], fs[c][0]) < (j, i):
        c += 1
    out = {}
    if c == a or fs[c] != (i, j):  # else g_ij repeats and both terms vanish
        head, tail = fs[:c] + ((i, j),) + fs[c:a], fs[a + 2:]
        sign = -1 if (a + c) % 2 else 1
        for coeff, kept in ((-sign, fs[a]), (sign, fs[a + 1])):
            for m, z in _straighten_sorted(head + (kept,) + tail, memo):
                out[m] = out.get(m, 0) + coeff * z
    hit = memo[fs] = tuple((m, z) for m, z in out.items() if z)
    return hit


class CohClass:
    """Linear combination of admissible monomials in H^q(Conf_p)."""

    def __init__(self, arity, degree, field, terms=None):
        self.arity = arity
        self.degree = degree
        self.field = field
        # factor tuple -> field value, zeros dropped
        self.terms = {m: v for m, v in (terms or {}).items() if v}
        for m in self.terms:
            if len(m) != self.degree:
                raise ValueError("mixed degrees in class")

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if (self.arity, self.degree, self.field) != (other.arity, other.degree, other.field):
            raise ValueError("incompatible classes")
        F = self.field
        terms = dict(self.terms)
        for m, v in other.terms.items():
            terms[m] = F.add(terms.get(m, F.zero), v)
        return CohClass(self.arity, self.degree, F, terms)

    def scale(self, c):
        F = self.field
        c = F.of(c)
        return CohClass(self.arity, self.degree, F,
                        {m: F.mul(c, v) for m, v in self.terms.items()})

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, CohClass)
                and (self.arity, self.degree, self.field) == (other.arity, other.degree, other.field)
                and self.terms == other.terms)

    def __mul__(self, other):
        if (self.arity, self.field) != (other.arity, other.field):
            raise ValueError("incompatible classes")
        F = self.field
        terms = {}
        for m1, v1 in self.terms.items():
            for m2, v2 in other.terms.items():
                c = F.mul(v1, v2)
                for m, z in straighten(m1 + m2).items():
                    zc = F.mul(F.of(z), c)
                    terms[m] = F.add(terms.get(m, F.zero), zc)
        return CohClass(self.arity, self.degree + other.degree, F, terms)

    def __repr__(self):
        if not self.terms:
            return "0[p=%d,q=%d,%s]" % (self.arity, self.degree, self.field.name)
        bits = []
        for m, v in sorted(self.terms.items()):
            mono = "*".join("g(%d,%d)" % f for f in m) or "1"
            bits.append("%s·%s" % (v, mono))
        return " + ".join(bits)


def normal_form(arity, factors, field, coeff=1):
    """Straighten a single product of generators into a CohClass."""
    factors = tuple(factors)
    for (i, j) in factors:
        if not (1 <= i < j <= arity):
            raise ValueError("generator g(%d,%d) out of range at arity %d"
                             % (i, j, arity))
    F = field
    c = F.of(coeff)
    terms = {}
    for m, z in straighten(factors).items():
        terms[m] = F.add(terms.get(m, F.zero), F.mul(F.of(z), c))
    return CohClass(arity, len(factors), F, terms)


def zero_class(arity, degree, field):
    return CohClass(arity, degree, field, {})


def dim_cohomology(p, q):
    """Coefficient of t^q in prod_{k=1}^{p-1} (1 + k t); field-independent."""
    if not (0 <= q <= max(p - 1, 0)):
        return 0
    poly = [1]
    for k in range(1, p):
        poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
    return poly[q] if q < len(poly) else 0


def admissible_basis(p, q):
    """All admissible degree-q monomials at arity p, sorted."""
    out = []
    for seconds in combinations(range(2, p + 1), q):
        def grow(idx, acc):
            if idx == q:
                out.append(tuple(acc))
                return
            k = seconds[idx]
            for i in range(1, k):
                grow(idx + 1, acc + [(i, k)])
        grow(0, [])
    return sorted(out)


def coface_terms(i, p, m, memo=None):
    """Pullback of the admissible factor tuple m along the i-th coface,
    over Z: H^q(Conf_p) -> H^q(Conf_{p-1}) as a tuple of distinct
    (admissible factor tuple, nonzero int) pairs.  memo is the dict of
    rewrite nodes _straighten_sorted fills, a fresh one when it is None.

    On generators: the inner cofaces double the i-th point (collapse
    indices i, i+1 and kill g_{i,i+1}); the outer cofaces i=0 and i=p
    kill generators touching the new end point and shift the rest.
    The outer cofaces keep second indices strictly increasing, and an
    inner coface i breaks that order only when m has a factor with
    second index i and one with second index i+1; every other image is
    already admissible and comes back with coefficient 1.  A clash
    leaves at most that tied pair out of order: one swap, with its sign,
    sorts the image for the memoized rewrite.
    """
    mapped, sign = [], 0  # sign stays 0 unless the image clashes
    if i == 0:
        for (a, b) in m:
            if a == 1:
                return ()
            mapped.append((a - 1, b - 1))
        return ((tuple(mapped), 1),)
    if i == p:  # only the last factor of m can have second index p
        return () if m and m[-1][1] == p else ((tuple(m), 1),)
    for f in m:
        a, b = f
        if b > i:
            if b == i + 1:
                if a == i:
                    return ()
                # m is admissible: second index i, if any, comes just before
                if mapped and mapped[-1][1] == i:
                    sign = 1
                    if mapped[-1][0] > a:
                        mapped.insert(-1, (a, i))
                        sign = -1
                        continue
            f = (a if a <= i else a - 1, b - 1)
        mapped.append(f)
    if not sign:
        return ((tuple(mapped), 1),)
    pairs = _straighten_sorted(tuple(mapped), {} if memo is None else memo)
    return pairs if sign == 1 else tuple((mm, -z) for mm, z in pairs)


def coface_image(i, p, m):
    """coface_terms as a dict {admissible factor tuple: int}."""
    return dict(coface_terms(i, p, m))


def coface_pullback(i, x):
    """Pullback of the class x along the i-th coface (see coface_image)."""
    p = x.arity
    if p < 2:
        raise ValueError("arity must be at least 2")
    if not (0 <= i <= p):
        raise ValueError("coface index %d out of range 0..%d" % (i, p))
    F = x.field
    terms = {}
    for m, c in x.terms.items():
        for mm, z in coface_image(i, p, m).items():
            zc = F.mul(F.of(z), c)
            terms[mm] = F.add(terms.get(mm, F.zero), zc)
    return CohClass(p - 1, x.degree, F, terms)


def sinha_d1(x):
    """Alternating sum of coface pullbacks: H^q(Conf_p) -> H^q(Conf_{p-1})."""
    p = x.arity
    out = zero_class(p - 1, x.degree, x.field)
    for i in range(p + 1):
        term = coface_pullback(i, x)
        out = out + (term if i % 2 == 0 else -term)
    return out


class ParseError(ValueError):
    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<int>\d+)|(?P<star>\*)"
                    r"|g\((?P<a>\d+),\s*(?P<b>\d+)\)|g(?P<c>\d)(?P<d>\d))")


def parse_class(text, arity, field):
    """Parse 'g14*g23 + g13*g24' or '-2*g(1,3)*g(2,4) + ...' into a class.

    Grammar: signed terms joined by + / -; each term an optional integer
    coefficient and '*'-joined generators, written gAB for single-digit
    indices or g(A,B) in general.
    """
    pos = 0
    terms = []  # (coeff, factors)
    sign = 1
    expect_term = True
    coeff = None
    factors = None

    def flush(at):
        nonlocal coeff, factors, sign
        if factors is None and coeff is None:
            raise ParseError("empty term", at)
        if factors is None:
            factors = []
        terms.append((sign * (1 if coeff is None else coeff), list(factors)))
        coeff, factors, sign = None, None, 1

    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError("unexpected character %r" % text[pos], pos)
        pos = m.end()
        if m.group("sign"):
            if not expect_term:
                flush(m.start())
            sign = 1 if m.group("sign") == "+" else -1
            expect_term = True
        elif m.group("int"):
            if coeff is not None or factors is not None:
                raise ParseError("misplaced coefficient", m.start())
            coeff = int(m.group("int"))
            expect_term = False
        elif m.group("star"):
            expect_term = False
        else:
            a = int(m.group("a") or m.group("c"))
            b = int(m.group("b") or m.group("d"))
            if not (1 <= a < b):
                raise ParseError("generator indices must satisfy i < j", m.start())
            if b > arity:
                raise ParseError("index %d exceeds arity %d" % (b, arity), m.start())
            if factors is None:
                factors = []
            factors.append((a, b))
            expect_term = False
    if coeff is not None or factors is not None:
        flush(len(text))
    if not terms:
        raise ParseError("empty expression", 0)
    degrees = {len(fs) for _, fs in terms}
    if len(degrees) > 1:
        raise ParseError("mixed degrees %s" % sorted(degrees), 0)
    out = zero_class(arity, degrees.pop(), field)
    for c, fs in terms:
        out = out + normal_form(arity, fs, field, coeff=c)
    return out
