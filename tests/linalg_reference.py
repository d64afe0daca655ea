"""Reference routes for the sparse updates: the loops that do the field
arithmetic through Field methods, one call per entry.  linalg.sub_scaled
and FilteredComplex.apply do the same arithmetic inline; the tests
compare them with these."""


def sub_scaled(F, zero, v, c, items):
    """v -= c * w in place, for a sparse v of field values, a field
    value c and the (t, w_t) of w's support; a t may repeat.  The w_t
    may be plain ints, which F.mul(c, w_t) brings into the field."""
    for t, x in items:
        s = F.sub(v.get(t, zero), F.mul(c, x))
        if s:
            v[t] = s
        elif t in v:  # an int w_t may be 0 mod p where v has no t
            del v[t]


def apply(C, v):
    """The sparse product D v of a sparse vector v, for a FilteredComplex C."""
    F = C.field
    zero = F.zero
    out = {}
    for j, x in v.items():
        col = C.columns.get(j)
        if col is None:
            continue
        for i, a in col.items():
            s = F.add(out.get(i, zero), F.mul(a, x))
            if s:
                out[i] = s
            else:
                del out[i]
    return out
