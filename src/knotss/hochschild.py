"""The Sinha complex of the configuration-space tower: its d_1, the
filtered complex build_sinha_complex hands to spectral, and e2_report,
the second-page verdicts of verify-cycle.

Slot (p, q) holds H^q(Conf_p(R^2)) on the admissible monomials of
confcoh, and d_1 out of it is Sinha's: the alternating sum of the coface
pullbacks into slot (p - 1, q), the i-th signed (-1)^i.  delta_columns
computes it on one sparse integer route, on the slots' monomials in
source and target: all admissible monomials for the plain complex, the
normalized ones for the normalized complex.  Its callers coerce each
nonzero entry into the field once.  conf_delta_matrix is its dense
view; confcoh.sinha_d1 computes the same sum on classes, and the tests
compare the two.  build_sinha_complex filters the tower by arity, so
d_1 is the differential of the spectral sequence's first page.

The d_1 is the Hochschild-style delta of the operad whose dual pieces
are these cohomology rings, delta(x) = sum_l (x o_1 mu_l + sum_i mu_l
o_i x + x o_l mu_l) with the positional sign (-1)^position.  The
general route, an operad given by explicit composition matrices with
delta read off their rows (OperadPresentation, hochschild_complex,
d2_via_lifting and two synthetic presentations), runs in no command and
lives beside the tests in tests/hochschild_reference.py.  This module
imports only what ss-table and verify-cycle execute: confcoh, linalg
and spectral.
"""

from itertools import chain

from .confcoh import admissible_basis, coface_terms, dim_cohomology
from .linalg import Eliminator, Matrix, column_kernel, rank, sub_scaled
from .spectral import FilteredComplex

MAX_ARITY = 8  # largest max_p of build_sinha_complex


def delta_columns(p, q, sources, index):
    """d_1 over Z out of slot (p, q): yields one sparse column per source.

    index maps admissible monomials of slot (p - 1, q) to rows.  Each
    column sums the coface images of its source, the i-th signed (-1)^i,
    as {row: int}, read off the (monomial, int) pairs of coface_terms;
    images outside index are dropped, and a sum that cancels stays as a
    0 entry for the caller to skip.  One rewrite memo serves the call.
    """
    signs = [(-1) ** i for i in range(p + 1)] if index else []
    memo = {}
    for m in sources:
        col = {}
        for i, sign in enumerate(signs):
            for mm, z in coface_terms(i, p, m, memo):
                t = index.get(mm)
                if t is not None:
                    col[t] = col.get(t, 0) + sign * z
        yield col


def conf_delta_matrix(p, q, field, mode="signed"):
    """Matrix of delta on the admissible basis, slot (p, q) -> (p-1, q):
    the dense view of delta_columns, coerced once per nonzero entry."""
    # signed only; the keyword stays because perfbench's flip_one_entry passes it
    if mode != "signed":
        raise ValueError("conf_delta_matrix is signed only, got mode %r" % (mode,))
    tgt = admissible_basis(p - 1, q) if p >= 2 else []
    source = admissible_basis(p, q)
    M = Matrix.zeros(field, len(tgt), len(source))
    index = {m: t for t, m in enumerate(tgt)}
    for j, col in enumerate(delta_columns(p, q, source, index)):
        for t, z in col.items():
            if z:
                M.rows[t][j] = field.of(z)
    return M


def _field_columns(field, cols):
    """The integer columns of delta_columns as sparse field columns."""
    for col in cols:
        yield {t: x for t in sorted(col) if (x := field.of(col[t]))}


def normalized_slot(p, q):
    """The monomials of admissible_basis(p, q), in order, whose factors
    touch every index 1..p: a basis of the quotient by the degenerate
    subspace.

    The codegeneracy s^i is strictly monotone on indices, so it sends an
    admissible monomial to one admissible monomial (coefficient 1) that
    misses index i + 1, and a monomial missing index k is s^(k-1) of its
    own down-shift.  The degenerate span is therefore the coordinate
    subspace of the monomials that miss some index.
    """
    return [m for m in admissible_basis(p, q)
            if len(set(chain.from_iterable(m))) == p]


def build_sinha_complex(max_p, field, normalized=True):
    """FilteredComplex of the configuration-space tower up to arity max_p.

    Slots are (p, q) for 1 <= p <= max_p, 0 <= q <= p - 1, and D is
    delta_columns on each slot's monomials in source and target.  The
    plain complex takes every admissible monomial.  With normalized=True
    a slot keeps the monomials touching every index 1..p
    (normalized_slot), a basis of the quotient of H^q(Conf_p) by the
    codegeneracy pullback images; delta maps degenerates to degenerates,
    so D is delta on the quotient.
    """
    if not (1 <= max_p <= MAX_ARITY):
        raise ValueError("max_p must be between 1 and %d" % MAX_ARITY)
    F = field
    basis = normalized_slot if normalized else admissible_basis
    keys = [(p, q) for p in range(1, max_p + 1) for q in range(p)
            if dim_cohomology(p, q)]
    reps, offsets, slots = {}, {}, []
    for k in keys:
        reps[k] = basis(*k)
        offsets[k] = len(slots)
        slots.extend([k] * len(reps[k]))
    columns = {}
    for (p, q) in keys:
        if (p - 1, q) in offsets:
            base = offsets[(p - 1, q)]
            index = {m: base + i for i, m in enumerate(reps[(p - 1, q)])}
            cols = delta_columns(p, q, reps[(p, q)], index)
            columns.update(enumerate(_field_columns(F, cols), offsets[(p, q)]))
    return FilteredComplex(F, slots, columns)


def mu3_obstruction_rank(field):
    """Rank of delta from slot (4, 1) to slot (3, 1): the pairing that
    detects the nontrivial ternary bracket on the second page."""
    return rank(conf_delta_matrix(4, 1, field))


def e2_report(x):
    """Second-page data for a cohomology class x at slot (p, q).

    Returns is_cycle, is_boundary, the slot's E_2 dimension, and the
    coordinates of [x] on chosen representatives (None for non-cycles).
    """
    F = x.field
    p, q = x.arity, x.degree
    basis = admissible_basis(p, q)
    index = {m: t for t, m in enumerate(basis)}
    # as in conf_delta_matrix, nothing lies below arity 1
    below = ({m: t for t, m in enumerate(admissible_basis(p - 1, q))}
             if p >= 2 else {})
    d_out = list(_field_columns(F, delta_columns(p, q, basis, below)))
    d_in = _field_columns(F, delta_columns(p + 1, q, admissible_basis(p + 1, q),
                                           index))
    v = {index[m]: c for m, c in x.terms.items() if c}
    image = {}
    for j, c in v.items():
        sub_scaled(F, image, F.neg(c), d_out[j].items())
    is_cycle = not image
    # the kept columns are independent, so [x] has unique coordinates on
    # them, and x is a boundary exactly when those past n_bnd vanish
    elim = Eliminator(F, track=True)
    for col in d_in:
        elim.add(col)
    n_bnd = elim.rank
    dim_e2 = sum(elim.add(w) for w in column_kernel(F, d_out)[1])
    coords = None
    if is_cycle:
        sol = elim.coords_in_span(v)
        coords = sol[n_bnd:] if sol is not None else None
    is_boundary = coords is not None and not any(coords)
    return {"slot": (p, q), "is_cycle": is_cycle, "is_boundary": is_boundary,
            "dim_e2": dim_e2, "coordinates": coords}
