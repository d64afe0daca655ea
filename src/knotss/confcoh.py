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
coerces once per nonzero entry, evaluating only the cofaces that
live_cofaces keeps: not those that kill the monomial, and one per run
of cofaces with equal images.  An image needs the 3-term rewrite only
when an inner coface i meets factors with second indices i and i+1 and
different first indices.
The rewrite recurses on sorted factor tuples and memoizes its nodes in
a dict the caller may pass: each d_1 assembly passes one for all of its
images and drops it when it returns.

Coefficients stay integers until they meet a field value, and meet it
once.  The CohClass constructor coerces every value it is given;
everything here builds through the unchecked CohClass._of instead.
parse_class sums the straightened terms of a class over Z and calls
Field.of once per monomial; normal_form coerces its coeff once.
coface_pullback and the class sum and product add the (monomial, int)
pairs of coface_terms and straighten through linalg.sub_scaled.
"""

import re
from itertools import combinations, product

from .linalg import sub_scaled


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
    """Linear combination of admissible monomials in H^q(Conf_p); terms
    maps factor tuples to nonzero field values.  The constructor coerces
    each value through field.of, as FreeElement's does."""

    def __init__(self, arity, degree, field, terms=None):
        self.arity = arity
        self.degree = degree
        self.field = field
        self.terms = {}
        for m, v in (terms or {}).items():
            v = field.of(v)
            if v:
                if len(m) != degree:
                    raise ValueError("mixed degrees in class")
                self.terms[m] = v

    @classmethod
    def _of(cls, arity, degree, field, terms):
        """Internal constructor for nonzero field values on monomials of
        the given degree."""
        x = cls.__new__(cls)
        x.arity, x.degree, x.field, x.terms = arity, degree, field, terms
        return x

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if (self.arity, self.degree, self.field) != (other.arity, other.degree, other.field):
            raise ValueError("incompatible classes")
        F = self.field
        terms = dict(self.terms)
        sub_scaled(F, terms, F.neg(F.one), other.terms.items())
        return CohClass._of(self.arity, self.degree, F, terms)

    def scale(self, c):
        F = self.field
        c = F.of(c)
        return CohClass._of(self.arity, self.degree, F,
                            {m: F.mul(c, v) for m, v in self.terms.items()}
                            if c else {})

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
                sub_scaled(F, terms, F.neg(F.mul(v1, v2)),
                           straighten(m1 + m2).items())
        return CohClass._of(self.arity, self.degree + other.degree, F, terms)

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
    c = field.of(coeff)
    return CohClass._of(arity, len(factors), field,
                        {m: v for m, z in straighten(factors).items()
                         if (v := field.mul(c, z))})


def zero_class(arity, degree, field):
    return CohClass._of(arity, degree, field, {})


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
        out.extend(product(*[[(i, k) for i in range(1, k)] for k in seconds]))
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
    already admissible and comes back with coefficient 1.  When both
    factors have the same first index a, the image is g_{a,i}^2 = 0 and
    comes back as () without the rewrite.  Any other clash leaves at
    most that tied pair out of order: one swap, with its sign, sorts the
    image for the memoized rewrite.
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
                    if mapped[-1][0] == a:
                        return ()  # g_{a,i} g_{a,i+1} -> g_{a,i}^2 = 0
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


def live_cofaces(p, m, table=None):
    """The cofaces whose pullbacks of the admissible factor tuple m can
    contribute to d_1 at arity p, as (i, sign) pairs: d_1 m is the sum of
    sign * coface_terms(i, p, m) over them.  The list depends only on
    the bit masks of the indices m touches and of the starts that kill
    m, so table, a dict serving one arity p, keeps it by those masks;
    callers must not change the list it returns.

    Two rules skip the rest.  Cofaces i - 1 and i agree on m when no
    factor of m touches index i, so the indices m touches cut 0..p into
    runs of equal images; a run from start adds (-1)^start once when its
    length is odd and cancels when it is even.  A run is dead, its image
    0, when its start i kills m: i = 0 and m has a factor g_{1b}, i = p
    and m has g_{bp}, or i inner and the factors of m join i to i + 1
    (g_{i,i+1} itself, or a path such as g_{a,i} g_{a,i+1}, whose image
    holds a cycle and vanishes by the 3-term relation).  Only a start can
    kill: the other cofaces of a run meet no factor at their own index.

    The factors of m form a forest in which g_{ab} hangs b below a < b,
    so each one joins a new index b to the tree of a, and i joins i + 1
    exactly when the tree of i + 1 has the root of i.
    """
    root, touched, dead = {}, 0, 0
    for a, b in m:
        r = root[b] = root.get(a, a)
        touched |= 1 << a | 1 << b
        if root.get(b - 1, b - 1) == r:
            dead |= 1 << b - 1
    dead |= touched >> 1 & 1 | touched & 1 << p
    if table is None:
        table = {}
    live = table.get((touched, dead))
    if live is None:
        live = table[touched, dead] = []
        start = 0
        for i in range(1, p + 2):
            if touched >> i & 1 or i > p:
                if (i - start) & 1 and not dead >> start & 1:
                    live.append((start, -1 if start & 1 else 1))
                start = i
    return live


def coface_pullback(i, x):
    """Pullback of the class x along the i-th coface (see coface_terms)."""
    p = x.arity
    if p < 2:
        raise ValueError("arity must be at least 2")
    if not (0 <= i <= p):
        raise ValueError("coface index %d out of range 0..%d" % (i, p))
    F = x.field
    terms, memo = {}, {}
    for m, c in x.terms.items():
        sub_scaled(F, terms, F.neg(c), coface_terms(i, p, m, memo))
    return CohClass._of(p - 1, x.degree, F, terms)


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


_TOKEN = re.compile(r"(?:(?P<sign>[+-])|(?P<int>\d+)|(?P<star>\*)"
                    r"|g\((?P<a>\d+),\s*(?P<b>\d+)\)|g(?P<c>\d)(?P<d>\d))\s*")


def parse_class(text, arity, field):
    """Parse 'g14*g23 + g13*g24' or '-2*g(1,3)*g(2,4) + ...' into a class.

    Grammar: terms joined by + or -, the first with an optional sign;
    each term an optional integer coefficient and generators, joined by
    '*' or juxtaposed, written gAB for single-digit indices or g(A,B) in
    general.  A sign needs a term after it and a '*' a factor on each
    side; a ParseError names the position of the offending token.

    The straightened coefficients of all terms are summed over Z, and
    each monomial's sum meets the field once, in Field.of.
    """
    terms = []  # (int coefficient, factor tuple)
    sign, coeff, factors = 1, None, []
    sign_at = star_at = None  # a sign or '*' still waiting for its factor

    def term():
        return sign * (1 if coeff is None else coeff), tuple(factors)

    pos = len(text) - len(text.lstrip())
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], pos)
        at, pos = pos, m.end()
        gen = m.group("a") or m.group("c")
        if star_at is not None and not gen:
            raise ParseError("'*' without a generator after it", star_at)
        if m.group("sign"):
            if sign_at is not None:
                raise ParseError("sign after a sign", at)
            if coeff is not None or factors:
                terms.append(term())
                coeff, factors = None, []
            sign, sign_at = (1 if m.group("sign") == "+" else -1), at
        elif m.group("star"):
            if coeff is None and not factors:
                raise ParseError("'*' without a factor before it", at)
            star_at = at
        elif m.group("int"):
            if coeff is not None or factors:
                raise ParseError("misplaced coefficient", at)
            coeff, sign_at = int(m.group("int")), None
        else:
            a, b = int(gen), int(m.group("b") or m.group("d"))
            if not (1 <= a < b):
                raise ParseError("generator indices must satisfy i < j", at)
            if b > arity:
                raise ParseError("index %d exceeds arity %d" % (b, arity), at)
            factors.append((a, b))
            sign_at = star_at = None
    if star_at is not None:
        raise ParseError("'*' without a generator after it", star_at)
    if sign_at is not None:
        raise ParseError("sign without a term after it", sign_at)
    if coeff is not None or factors:
        terms.append(term())
    if not terms:
        raise ParseError("empty expression", 0)
    degrees = {len(fs) for _, fs in terms}
    if len(degrees) > 1:
        raise ParseError("mixed degrees %s" % sorted(degrees), 0)
    total = {}
    for c, fs in terms:
        for mono, z in straighten(fs).items():
            total[mono] = total.get(mono, 0) + c * z
    return CohClass._of(arity, degrees.pop(), field,
                        {mono: v for mono, z in total.items()
                         if z and (v := field.of(z))})
