"""Reference routes on configuration-space classes that the engine does
not need: the tests read classes as dense coordinate vectors and check
the normalized slots against the codegeneracy pullbacks."""

from knotss.confcoh import CohClass, straighten


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
