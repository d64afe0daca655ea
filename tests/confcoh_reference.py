"""Reference routes on configuration-space classes that the engine does
not need: the tests read classes as dense coordinate vectors, check
the normalized slots against the codegeneracy pullbacks, and compare
the slot bases with the recursive enumeration and per-monomial index
set they were first built by."""

from itertools import combinations

from knotss.confcoh import CohClass, straighten


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


def normalized_slot(p, q):
    """The monomials of admissible_basis(p, q), in order, whose factors
    touch every index 1..p."""
    return [m for m in admissible_basis(p, q)
            if len({a for f in m for a in f}) == p]


def class_to_vector(x, basis):
    index = {m: i for i, m in enumerate(basis)}
    v = [x.field.zero] * len(basis)
    for m, c in x.terms.items():
        v[index[m]] = c
    return v


def codegeneracy_pullback(i, x):
    """Pullback along the i-th codegeneracy, H^q(Conf_p) -> H^q(Conf_{p+1})."""
    p = x.arity
    if not (0 <= i <= p):
        raise ValueError("codegeneracy index %d out of range 0..%d" % (i, p))
    F = x.field
    terms = {}
    for m, c in x.terms.items():
        mapped = tuple((a if a <= i else a + 1, b if b <= i else b + 1) for (a, b) in m)
        for mm, z in straighten(mapped).items():
            zc = F.mul(F.of(z), c)
            terms[mm] = F.add(terms.get(mm, F.zero), zc)
    return CohClass(p + 1, x.degree, F, terms)
