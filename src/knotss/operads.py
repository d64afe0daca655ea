"""Free planar operads on generators mu_k (k >= 2) and the homotopy-
associativity differential.

Trees are nested tuples: a leaf is "*", an internal vertex of arity k
is (k, child_1, ..., child_k).  The generator mu_k has degree k - 2.
The differential is

    d mu_k = sum mu_l o_{p+1} mu_q,   l, q >= 2, 0 <= p <= l-1, l+q = k+1,

extended to trees as a derivation.  The summand mu_l o_{p+1} mu_q
carries (-1)^{p + q(l-p-1)} and the derivation rule carries Koszul
signs, so d squares to zero over any field.  Over F2 every sign is 1;
over F3 and Q the unsigned sum fails d^2 = 0 from arity 4 on.

Coefficients meet the field once.  The public FreeElement(field, terms)
coerces its values and checks that its trees share one degree; _d_tree
gives its Koszul signs as ints, and free_differential and + add them
through linalg.sub_scaled into the unchecked FreeElement._of.
"""

from .linalg import sub_scaled

LEAF = "*"


def leaf_count(tree):
    if tree == LEAF:
        return 1
    return sum(leaf_count(c) for c in tree[1:])


def tree_degree(tree):
    """Sum of k - 2 over internal vertices."""
    if tree == LEAF:
        return 0
    return (tree[0] - 2) + sum(tree_degree(c) for c in tree[1:])


def generator(k):
    if k < 2:
        raise ValueError("generators start at arity 2")
    return (k,) + (LEAF,) * k


def graft(a, i, b):
    """Replace the i-th leaf (1-based, planar order) of a by b."""
    total = leaf_count(a)
    if not (1 <= i <= total):
        raise ValueError("slot %d out of range 1..%d" % (i, total))
    if b == LEAF:  # the leaf is the unit of grafting
        return a

    def go(tree, i):
        if tree == LEAF:
            return b if i == 1 else None, i - 1
        children = []
        for c in tree[1:]:
            lc = leaf_count(c)
            if 1 <= i <= lc:
                newc, _ = go(c, i)
                children.append(newc)
            else:
                children.append(c)
            i -= lc
        return (tree[0],) + tuple(children), i

    out, _ = go(a, i)
    return out


class FreeElement:
    """Formal sum of planar trees with field coefficients."""

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        for t, c in (terms or {}).items():
            c = field.of(c)
            if c:
                self.terms[t] = c
        degs = {tree_degree(t) for t in self.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element: degrees %s" % sorted(degs))

    @classmethod
    def _of(cls, field, terms):
        """Internal constructor for nonzero field values on trees of one
        degree."""
        x = cls.__new__(cls)
        x.field, x.terms = field, terms
        return x

    @classmethod
    def single(cls, field, tree, coeff=1):
        return cls(field, {tree: coeff})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        F = self.field
        terms = dict(self.terms)
        sub_scaled(F, terms, F.neg(F.one), other.terms.items())
        return FreeElement._of(F, terms)

    def __eq__(self, other):
        return isinstance(other, FreeElement) and self.field == other.field \
            and self.terms == other.terms

    def __repr__(self):
        return " + ".join("%s·%s" % (c, t) for t, c in
                          sorted(self.terms.items(), key=lambda kv: repr(kv[0]))) or "0"


def ainf_differential(k, field):
    """d mu_k as a free element: the root summands of the derivation on
    generator(k); zero for k = 2."""
    return free_differential(FreeElement.single(field, generator(k)))


def _d_tree(tree):
    """Derivation extension of the generator differential, as a list of
    (tree, sign) pairs with the Koszul signs as ints +1 and -1."""
    if tree == LEAF:
        return []
    k = tree[0]
    children = tree[1:]
    out = []
    # differentiate the root vertex; re-graft the children afterwards.
    # Trees are oriented by depth-first vertex order, so inserting the
    # new vertex mu_q after the first p children moves it past their
    # vertices, which costs (-1)^{q * deg(c_1..c_p)}.
    for l in range(2, k):
        q = k + 1 - l
        for p in range(l):
            full = graft(generator(l), p + 1, generator(q))
            for pos in range(k, 0, -1):
                full = graft(full, pos, children[pos - 1])
            passed = sum(tree_degree(c) for c in children[:p])
            out.append((full, (-1) ** (p + q * (l - p - 1) + q * passed)))
    # differentiate inside each child, passing over the root and the
    # preceding children
    sign = (-1) ** (k - 2)
    for idx, child in enumerate(children):
        for sub, s in _d_tree(child):
            out.append(((k,) + children[:idx] + (sub,) + children[idx + 1:],
                        sign * s))
        sign *= (-1) ** (tree_degree(child) % 2)
    return out


def free_differential(x):
    """d on a formal sum of trees."""
    F = x.field
    terms = {}
    for t, c in x.terms.items():
        sub_scaled(F, terms, F.neg(c), _d_tree(t))
    return FreeElement._of(F, terms)


def d_squared_report(max_arity, field):
    """Check d(d mu_k) = 0 for all k <= max_arity; returns a report."""
    failures = []
    for k in range(2, max_arity + 1):
        if not free_differential(ainf_differential(k, field)).is_zero():
            failures.append(k)
    return {"max_arity": max_arity, "field": field.name,
            "failures": failures, "pass": not failures}
