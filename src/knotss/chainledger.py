"""Symbolic ledger for bounding-chain bookkeeping on the graph-labeled
tower of Thom spaces.

A chain is a rational combination of terms f(w), where f is an affine
map expression R^4 x (parameter box) -> R^{2n} and w is a weight built
from two sphere factors, interval-at-infinity factors bound to
s-parameters, and unit-interval factors bound to t-parameters.  The
boundary D = d + (-1)^degree partial has a restriction part d (s := 0;
t := 1 minus t := 0, with Koszul signs read off the weight order) and a
Cech part partial removing one edge of the label graph at a time.
Coefficients stay exact rationals throughout; a characteristic enters
only through Chain.reduce, so the char-2 and char-3 ledgers share one
signed D.  apply_delta is the merge map: it relabels terms by delta_i
and drops those whose merged label has a loop, a double edge or an
extreme incidence.  apply_facts is the one collapse filter: it drops
terms that map to the basepoint, found syntactically (equal or reversed
first coordinates inside a piece) or in a table of zero facts that are
verified separately by geometric sampling.  It tests each term alone,
so it may run after any linear combination.

A Poly and a Chain keep an integral coefficient as an int and any
other as a Fraction, so a Poly's sorted terms are its key.  A term
works on its key: per component, the keys of its four coefficient
polynomials.  Canonicalization renames the key and keeps the least
renaming; the restriction part of D drops (s, t := 0) or strips and
merges (t := 1) the monomials of the key that hold the name.  A
canonical term builds its MapExpr from the key only when something
reads it (text, the collapse filters, evaluation).  D is linear term
by term, so D of an assembled chain is the weighted sum of its parts' D.
parse_expr and parse_term read back the text that MapExpr.text and the
graph labels print, as the fact table stores it.
"""

import json
import os
import re
from fractions import Fraction
from itertools import permutations

from .errors import VerificationError
from .partgraph import (PGraph, Record, delta_graph, inversion_sign,
                        parse_graph)

# ---------------------------------------------------------------------------
# polynomials over Q in named parameters, multilinear (affine in each name)


class Poly:
    """Multilinear polynomial; terms maps sorted name tuples to nonzero
    coefficients, an int when integral and a Fraction otherwise."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            mono = tuple(sorted(mono))
            if len(set(mono)) != len(mono):
                raise ValueError("monomial %r repeats a name" % (mono,))
            _accumulate(self.terms, mono, Fraction(c))

    @classmethod
    def _of(cls, terms):
        """Internal constructor for terms that are already normalized."""
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def const(cls, c):
        return cls({(): c})

    @classmethod
    def var(cls, name):
        return cls({(name,): 1})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return Poly._of(out)

    def __neg__(self):
        return Poly._of({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if set(m1) & set(m2):
                    raise ValueError("product is not affine in %r" % (set(m1) & set(m2),))
                _accumulate(out, tuple(sorted(m1 + m2)), c1 * c2)
        return Poly._of(out)

    def subst(self, name, value):
        out = {}
        for m, c in self.terms.items():
            if name in m:
                _accumulate(out, tuple(x for x in m if x != name), c * value)
            else:
                _accumulate(out, m, c)
        return Poly._of(out)

    def names(self):
        return {x for m in self.terms for x in m}

    def evaluate(self, values):
        acc = Fraction(0)
        for m, c in self.terms.items():
            for x in m:
                c = c * values[x]
            acc = acc + c if acc else c
        return acc

    def key(self):
        """The sorted (monomial, coefficient) pairs."""
        return tuple(sorted(self.terms.items()))

    def text(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in sorted(self.terms.items()):
            body = "*".join((str(c),) + m) if m else str(c)
            bits.append(body)
        return "+".join(bits).replace("+-", "-")

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        return "Poly(%s)" % self.text()


def _rational(c):
    """An int or Fraction c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _accumulate(terms, m, c):
    """terms[m] += c, keeping only nonzero coefficients, an integral one
    as an int."""
    if m in terms:
        c += terms[m]
    if c:
        terms[m] = _rational(c)
    else:
        terms.pop(m, None)


_Z = Poly()
_ONE = Poly.const(1)


def _affine(a, b, u, v, x, y):
    """a x + b y + (u, v) for rational a, b, u, v and pairs x, y; zero
    coefficients are skipped, not multiplied."""
    if a:
        u, v = u + a * x[0], v + a * x[1]
    if b:
        u, v = u + b * y[0], v + b * y[1]
    return u, v

# ---------------------------------------------------------------------------
# map expressions R^4 x params -> R^{2n}


class MapExpr:
    """n components, each c_x*x + c_y*y + q_u*u + q_v*v with Poly coeffs."""

    __slots__ = ("comps",)

    BASIS = ("x", "y", "u", "v")

    def __init__(self, comps):
        self.comps = tuple(tuple(comp) for comp in comps)
        for comp in self.comps:
            if len(comp) != 4:
                raise ValueError("component needs (c_x, c_y, q_u, q_v)")

    @property
    def n(self):
        return len(self.comps)

    def __add__(self, other):
        return MapExpr([[a + b for a, b in zip(c1, c2)]
                        for c1, c2 in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return MapExpr([[a - b for a, b in zip(c1, c2)]
                        for c1, c2 in zip(self.comps, other.comps)])

    def scale(self, p):
        if not isinstance(p, Poly):
            p = Poly.const(p)
        return MapExpr([[p * a if a.terms else a for a in comp]
                        for comp in self.comps])

    def names(self):
        out = set()
        for comp in self.comps:
            for a in comp:
                out |= a.names()
        return out

    def swap_xy(self):
        return MapExpr([[c[1], c[0], c[2], c[3]] for c in self.comps])

    def coefficients(self, values):
        """(c_x, c_y, q_u, q_v) of every component, evaluated at values."""
        return [[p.evaluate(values) for p in comp] for comp in self.comps]

    @staticmethod
    def image(coeffs, x, y):
        """The image point list of x, y (pairs of rationals) under the
        evaluated coefficients of coefficients()."""
        return [_affine(*comp, x, y) for comp in coeffs]

    def evaluate(self, x, y, values=None):
        """Exact image point list; x, y are pairs of rationals."""
        x = (Fraction(x[0]), Fraction(x[1]))
        y = (Fraction(y[0]), Fraction(y[1]))
        return self.image(self.coefficients(values or {}), x, y)

    def key(self):
        return tuple(tuple(a.key() for a in comp) for comp in self.comps)

    def text(self):
        def comp_text(comp):
            bits = []
            for p, base in zip(comp, self.BASIS):
                if p.is_zero():
                    continue
                if p == _ONE:
                    bits.append(base)
                else:
                    bits.append("(%s)%s" % (p.text(), base))
            return "+".join(bits) or "0"
        return ";".join(comp_text(c) for c in self.comps)

    def __eq__(self, other):
        return isinstance(other, MapExpr) and self.comps == other.comps

    def __repr__(self):
        return "MapExpr(%s)" % self.text()


# ---------------------------------------------------------------------------
# expression text parsing: the inverse of MapExpr.text, for the fact table

# a signed piece: an optional sign, then parenthesised groups (without
# nested parentheses) and characters other than signs and parentheses
_PIECE = re.compile(r"([+-]?)((?:\([^()]*\)|[^-+()])+)")
_NUMERAL = re.compile(r"([0-9]+)(?:/([0-9]+))?")


def parse_expr(text, n):
    """Inverse of MapExpr.text: the MapExpr of n components that text
    writes.

    Grammar: n components joined by ';'.  A component is "0" or signed
    pieces joined by '+' or '-', the first with an optional sign; a piece
    is a basis letter (x, y, u or v) or "(poly)" followed by one, and a
    piece "0" adds nothing.  The coefficients of one basis letter sum.
    Malformed text, a bad basis or a count other than n raises
    ValueError.
    """
    parts = text.split(";")
    if len(parts) != n:
        raise ValueError("component count mismatch: %d in %r, want %d"
                         % (len(parts), text, n))
    comps = []
    for part in parts:
        comp = {"x": {}, "y": {}, "u": {}, "v": {}}
        for neg, body in _signed_pieces(part):
            if body == "0":
                continue
            if body[0] == "(":
                poly, base = body[1:].split(")", 1)
            else:
                poly, base = None, body
            terms = comp.get(base)
            if terms is None:
                raise ValueError("bad basis %r in %r" % (base, part))
            if poly is None:
                _accumulate(terms, (), -1 if neg else 1)
            else:
                _parse_poly(poly, neg, terms)
        comps.append([Poly._of(comp[b]) for b in MapExpr.BASIS])
    return MapExpr(comps)


def parse_term(etext, ltext, n):
    """The term of a fact-table entry: expression text on label text,
    its s- and t-names bound in sorted order."""
    expr = parse_expr(etext, n)
    names = sorted(expr.names())
    weight = WeightSpec(tuple(x for x in names if x.startswith("s")),
                        tuple(x for x in names if x.startswith("t")))
    return Term(expr, weight, parse_graph(ltext, n))


def _signed_pieces(text):
    """(negative, body) of each signed piece of text, in order.  The
    pieces must cover text exactly: empty text, a sign without a body
    after it, or an unmatched or nested parenthesis raises ValueError."""
    out, pos, end = [], 0, len(text)
    while pos < end:
        m = _PIECE.match(text, pos)
        if m is None:
            raise ValueError("malformed text %r at position %d" % (text, pos))
        out.append((m.group(1) == "-", m.group(2)))
        pos = m.end()
    if not out:
        raise ValueError("no term in %r" % text)
    return out


def _parse_poly(text, neg, terms):
    """Add the polynomial text, negated when neg, into terms, a dict of
    sorted name tuples to coefficients.

    Grammar: signed pieces joined by '+' or '-', the first with an
    optional sign; a piece is factors joined by '*'.  A factor that
    starts with a letter is a name, and every other factor is a numeral,
    an integer "123" or a fraction "1/2" with a nonzero denominator.  The
    numerals of a piece multiply into its coefficient; a name may occur
    once per piece.
    """
    for minus, body in _signed_pieces(text):
        coeff, names = -1 if minus != neg else 1, []
        for factor in body.split("*"):
            if factor[:1].isalpha():
                names.append(factor)
            else:
                coeff *= _numeral(factor, text)
        mono = tuple(sorted(names))
        if len(set(mono)) != len(mono):
            raise ValueError("monomial %r repeats a name in %r" % (body, text))
        _accumulate(terms, mono, coeff)


def _numeral(factor, text):
    """The int or Fraction a numeral factor of text writes."""
    m = _NUMERAL.fullmatch(factor)
    if m is None:
        raise ValueError("bad numeral %r in %r" % (factor, text))
    num, den = m.groups()
    if den is None:
        return int(num)
    if not int(den):
        raise ValueError("zero denominator in %r" % text)
    return Fraction(int(num), int(den))


# ---------------------------------------------------------------------------
# graph helpers: numbers 1..n versus piece positions of a partition


def piece_positions(P):
    """Position (0-based over all pieces) of the piece containing each
    number 0..n+1."""
    return [pos for pos, size in enumerate(P.sizes) for _ in range(size)]


def _components(P, edges):
    """Union-find components over internal piece positions 1..#P-2."""
    m = P.num_internal
    parent = list(range(m + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for (a, b) in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return find


def f_graph(G):
    """The map whose i-th component is x when piece(i) connects to
    piece(1) in G, and y otherwise."""
    P = G.partition
    find = _components(P, G.edges)
    pos = piece_positions(P)
    root1 = find(pos[1])
    comps = []
    for i in range(1, P.n + 1):
        comp = [_Z, _Z, _Z, _Z]
        comp[0 if find(pos[i]) == root1 else 1] = _ONE
        comps.append(comp)
    return MapExpr(comps)


def edge_signs(G, e):
    """A_e multipliers: +1 on the side of the smaller endpoint of the
    bridge e after its removal, -1 on the other side, 0 elsewhere."""
    P = G.partition
    a, b = e
    rest = tuple(x for x in G.edges if x != e)
    if len(rest) == len(G.edges):
        raise ValueError("edge %r not in graph" % (e,))
    find = _components(P, rest)
    ra, rb = find(a), find(b)
    if ra == rb:
        raise ValueError("edge %r is not a bridge" % (e,))
    out = []
    for pos in piece_positions(P)[1:-1]:
        if pos in (0, P.num_pieces - 1):
            out.append(0)
            continue
        r = find(pos)
        out.append(1 if r == ra else (-1 if r == rb else 0))
    return out


def contraction(expr, G, e, s_name, direction=1):
    """expr + A_e(s) in the v direction; direction=-1 reverses it."""
    signs = edge_signs(G, e)
    comps = []
    for comp, sg in zip(expr.comps, signs):
        comp = list(comp)
        if sg:
            comp[3] = comp[3] + Poly._of({(s_name,): sg * direction})
        comps.append(comp)
    return MapExpr(comps)


def straight(f, g, t_name):
    """(1-t) f + t g."""
    t = Poly.var(t_name)
    if t_name in f.names() or t_name in g.names():
        raise ValueError("homotopy parameter %r already bound" % t_name)
    return f.scale(_ONE - t) + g.scale(t)


def i_contraction(expr, i, s_name, eps=1):
    """+eps*s*u on component i, -eps*s*u on component i+1 (1-based)."""
    if not (1 <= i <= expr.n - 1):
        raise ValueError("component index %d out of range" % i)
    comps = [list(c) for c in expr.comps]
    comps[i - 1][2] = comps[i - 1][2] + Poly._of({(s_name,): eps})
    comps[i][2] = comps[i][2] + Poly._of({(s_name,): -eps})
    return MapExpr(comps)


# ---------------------------------------------------------------------------
# weights and ledger terms


class WeightSpec(Record):
    """Two sphere factors, then w_infty factors bound to s-parameters,
    then w_I factors bound to t-parameters, in this order."""
    __slots__ = _fields = ("s_names", "t_names")

    def __init__(self, s_names, t_names):
        self._set(s_names, t_names)

    @property
    def degree(self):
        return 4 + len(self.s_names) + len(self.t_names)


def make_weight(factors):
    """Normalize a factor word [('s', name) | ('t', name), ...] to the
    canonical s-block/t-block order; returns (WeightSpec, Koszul sign)."""
    s_names, t_names, sign = [], [], 1
    pending_t = 0
    for kind, name in factors:
        if kind == "s":
            s_names.append(name)
            if pending_t % 2:
                sign = -sign
        elif kind == "t":
            t_names.append(name)
            pending_t += 1
        else:
            raise ValueError("unknown factor kind %r" % kind)
    return WeightSpec(tuple(s_names), tuple(t_names)), sign


class Term:
    """expr(weight) on a graph label, carrying ekey = expr.key().  A term
    made from its key alone (expr None) builds expr on first read."""
    __slots__ = ("_expr", "weight", "label", "ekey")

    def __init__(self, expr, weight, label, ekey=None):
        self._expr = expr
        self.weight = weight
        self.label = label
        self.ekey = expr.key() if ekey is None else ekey

    @property
    def expr(self):
        if self._expr is None:
            self._expr = MapExpr([[Poly._of(dict(pk)) for pk in comp]
                                  for comp in self.ekey])
        return self._expr

    def key(self):
        return (self.ekey, self.weight, self.label)

    def relabel(self, label):
        return Term(self._expr, self.weight, label, self.ekey)


def _key_names(ekey):
    return {x for comp in ekey for pk in comp for m, _ in pk for x in m}


def _rename_key(ekey, mapping):
    def rename(pk):
        if not pk or not pk[-1][0]:  # a constant: monomials sort () first
            return pk
        return tuple(sorted((tuple(sorted([mapping[x] for x in m])), c)
                            for m, c in pk))
    return tuple(tuple(map(rename, comp)) for comp in ekey)


def canon_term(coeff, expr, weight, label):
    """Canonical representative: bound parameters renamed positionally,
    factor transpositions and the x/y swap of the sphere block resolved
    by picking the least key (transpositions of odd factors carry their
    permutation sign; the sphere swap is sign-free in even dimension).
    A least key reached with both signs means the term is its own
    negative, and 0 is returned as coefficient.  A canonical term,
    whatever its label, comes back as it is."""
    ekey = expr.key()
    for nm in _key_names(ekey):
        if nm not in weight.s_names and nm not in weight.t_names:
            raise ValueError("parameter %r not bound by the weight" % nm)
    return _canon_key(coeff, ekey, weight, label)


def _canon_key(coeff, ekey, weight, label):
    """canon_term on the key of an expression whose parameters are all
    bound by weight: the candidates are renamings of the key, and the
    returned term builds its expression from the least one."""
    k, l = len(weight.s_names), len(weight.t_names)
    best, tied = None, False
    for ps in permutations(range(k)):
        for pt in permutations(range(l)):
            mapping = dict(zip(weight.s_names, ("s%d" % (i + 1) for i in ps)))
            mapping.update(zip(weight.t_names, ("t%d" % (i + 1) for i in pt)))
            sign = inversion_sign(ps) * inversion_sign(pt)
            bkey = _rename_key(ekey, mapping)
            # the sphere swap exchanges the x and y keys of each component
            skey = tuple((c[1], c[0], c[2], c[3]) for c in bkey)
            for key in (bkey, skey):
                if best is None or key < best:
                    best, best_sign, tied = key, sign, False
                elif key == best and sign != best_sign:
                    tied = True
    w = WeightSpec(tuple("s%d" % (i + 1) for i in range(k)),
                   tuple("t%d" % (i + 1) for i in range(l)))
    return (0 if tied else coeff * best_sign), Term(None, w, label, best)


class Chain:
    """Rational combination of canonical ledger terms; a coefficient is
    an int when integral and a Fraction otherwise, as in Poly."""

    def __init__(self):
        self.terms = {}  # key -> [coeff, Term]

    def add(self, coeff, expr, weight, label):
        if not coeff:
            return self
        return self._put(*canon_term(coeff, expr, weight, label))

    def add_word(self, coeff, expr, factors, label):
        """Add in place with factor-order normalization (see make_weight)."""
        weight, sign = make_weight(factors)
        return self.add(coeff * sign, expr, weight, label)

    def _put(self, coeff, term):
        """Add coeff * term for a term that is already canonical."""
        key = term.key()
        entry = self.terms.setdefault(key, [0, term])
        coeff += entry[0]
        if coeff:
            entry[0] = _rational(coeff)
        else:
            del self.terms[key]
        return self

    def add_scaled(self, c, other):
        """Add c * other in place."""
        for coeff, t in other.items():
            self._put(coeff * c, t)
        return self

    def __isub__(self, other):
        return self.add_scaled(-1, other)

    def __sub__(self, other):
        return Chain().add_scaled(1, self).add_scaled(-1, other)

    def items(self):
        return [(c, t) for c, t in self.terms.values()]

    def is_zero(self):
        return not self.terms

    def reduce(self, char):
        """Drop terms whose coefficient vanishes modulo char (char=0
        keeps everything); coefficients stay rational."""
        out = Chain()
        for c, t in self.items():
            if char:
                if c.denominator % char == 0:
                    raise VerificationError(
                        "coefficient %s of %s on %s not defined mod %d"
                        % (c, t.expr.text(), t.label, char))
                if c.numerator % char == 0:
                    continue
            out._put(c, t)
        return out

    def diff_report(self, other, char):
        d = (self - other).reduce(char)
        return [(str(c), t.expr.text(), str(t.label)) for c, t in d.items()]

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "Chain(%d terms)" % len(self.terms)


def single(coeff, expr, factors, label):
    """Convenience: one-term chain with factor-order normalization."""
    return Chain().add_word(coeff, expr, factors, label)


# ---------------------------------------------------------------------------
# boundary and merge operators


def boundary_D(chain):
    """D = d + (-1)^degree partial, exact over Q.

    The restriction part d sets each s-parameter to 0 and takes the
    difference of t := 1 and t := 0, signed by the factor position with
    the degree-4 sphere block first.  The Cech part partial removes one
    edge at a time; results with no edge left are truncated away.  A
    restricted term whose expression no longer depends on one of its
    remaining t-parameters is a degenerate simplex and is dropped.  Mod
    2 the sign (-1)^degree is 1, so Chain.reduce(2) of the result is the
    unsigned D = d + partial of the char-2 setting.
    """
    out = Chain()
    for coeff, term in chain.items():
        w, ekey, label = term.weight, term.ekey, term.label
        k = len(w.s_names)
        # restriction part, substituted on the key
        for j, s in enumerate(w.s_names):
            sign = -1 if j % 2 else 1
            w2 = WeightSpec(w.s_names[:j] + w.s_names[j + 1:], w.t_names)
            _emit(out, coeff * sign, _restrict_key(ekey, s, 0), w2, label)
        for j, t in enumerate(w.t_names):
            sign = -1 if (k + j) % 2 else 1
            w2 = WeightSpec(w.s_names, w.t_names[:j] + w.t_names[j + 1:])
            _emit(out, coeff * sign, _restrict_key(ekey, t, 1), w2, label)
            _emit(out, -coeff * sign, _restrict_key(ekey, t, 0), w2, label)
        # Cech part
        psign = (-1) ** w.degree
        edges = label.edges
        if len(edges) >= 2:
            for pos in range(len(edges)):
                smaller = PGraph._of(label.partition,
                                     edges[:pos] + edges[pos + 1:])
                esign = 1 if pos % 2 == 0 else -1
                out._put(coeff * psign * esign, term.relabel(smaller))
    return out


def _restrict_key(ekey, name, value):
    """The key of the expression of key ekey with name := value, 0 or 1:
    := 0 drops the monomials that hold name, := 1 strips it and merges."""
    def restrict(pk):
        for m, _ in pk:
            if name in m:
                break
        else:
            return pk
        if not value:
            return tuple((m, c) for m, c in pk if name not in m)
        out = {}
        for m, c in pk:
            if name in m:
                m = tuple(x for x in m if x != name)
            _accumulate(out, m, c)
        return tuple(sorted(out.items()))
    return tuple(tuple(restrict(pk) for pk in comp) for comp in ekey)


def _emit(out, coeff, ekey, weight, label):
    free = _key_names(ekey)
    for t in weight.t_names:
        if t not in free:
            return
    out._put(*_canon_key(coeff, ekey, weight, label))


def first_coord_collapse(expr, P):
    """True when two components in one internal piece of P have first
    coordinates in weakly reversed order identically on the whole
    domain (s >= 0, t in [0,1]); such a term maps to the basepoint."""
    pieces = P.pieces()
    for pos in range(1, P.num_pieces - 1):
        members = [i for i in pieces[pos] if 1 <= i <= P.n]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                ci, cj = expr.comps[i - 1], expr.comps[j - 1]
                dx, dy, du = cj[0] - ci[0], cj[1] - ci[1], cj[2] - ci[2]
                if dx.is_zero() and dy.is_zero() and _nonpositive_on_box(du):
                    return True
    return False


def _nonpositive_on_box(poly):
    """poly <= 0 for every s >= 0, t in [0,1]?  Exact for multilinear
    polynomials: evaluate all t-corners; the s-part must then have no
    positive coefficient."""
    tnames = sorted(n for n in poly.names() if n.startswith("t"))
    corners = [poly]
    for t in tnames:
        corners = [q.subst(t, v) for q in corners for v in (0, 1)]
    for q in corners:
        for m, c in q.terms.items():
            if c > 0:
                return False
    return True


class ZeroFacts:
    """Checked-in table of geometrically verified basepoint collapses."""

    def __init__(self, records=None):
        self.table = {}
        for rec in records or []:
            self.table[(rec["expr"], rec["label"])] = rec

    @classmethod
    def load(cls, path=None):
        path = path or os.path.join(os.path.dirname(__file__), "data",
                                    "zerofacts.json")
        with open(path) as fh:
            return cls(json.load(fh))

    def match(self, term):
        return self.table.get((term.expr.text(), str(term.label)))


def apply_facts(chain, facts):
    """The collapse filter: drop the terms that map to the basepoint,
    found syntactically (first-coordinate order inside a piece) or in
    the fact table.  It tests each term alone, so filtering
    commutes with linear combination."""
    out = Chain()
    for coeff, term in chain.items():
        if not (first_coord_collapse(term.expr, term.label.partition)
                or facts.match(term) is not None):
            out._put(coeff, term)
    return out


def apply_delta(chain, i=None):
    """The merge map.  With i given: the single map delta_i (edge
    permutation sign only); otherwise the full signed sum over all
    merge positions.  Loops, double edges, and extreme incidences kill
    terms inside partgraph.delta_graph; every other term is relabeled
    and kept, for apply_facts to filter."""
    out = Chain()
    for coeff, term in chain.items():
        P = term.label.partition
        positions = [i] if i is not None else range(P.num_pieces - 1)
        for pos in positions:
            hit = delta_graph(pos, term.label)
            if hit is None:
                continue
            image, sign = hit
            out._put(-coeff * sign if i is None and pos % 2 else coeff * sign,
                     term.relabel(image))
    return out
