"""The Sinha complex of the configuration-space tower: its d_1, the
page tables of ss-table, and e2_report, the second-page verdicts of
verify-cycle.

Slot (p, q) holds H^q(Conf_p(R^2)) on the admissible monomials of
confcoh, and d_1 out of it is Sinha's: the alternating sum of the coface
pullbacks into slot (p - 1, q), the i-th signed (-1)^i.  delta_columns
computes it on one sparse integer route, on the slots' monomials in
source and target: all admissible monomials for the plain complex, the
normalized ones for the normalized complex, and it evaluates only the
coface pullbacks confcoh.live_cofaces keeps.  conf_delta_matrix is its
dense view; confcoh.sinha_d1 computes the same sum on classes, and the
tests compare the two.

Filtered by arity, every entry of the tower's differential lies in a
block (p, q) -> (p - 1, q), so d_1 is that differential and E_2 =
E_infinity.  The block route of ss-table reads every page off the slot
dimensions and one rank per block: sinha_blocks holds the integer
blocks, check_d_squared composes consecutive blocks over Z, block_ranks
runs one linalg.integer_elimination per block, mod p or fraction-free
over Z for Q, and checks each rank from both sides, and block_pages
writes the tables.  build_sinha_complex hands the same blocks, coerced
once per nonzero entry, to spectral as a FilteredComplex for the page
and E_infinity routes that criterion 07 and the tests compare against.

The d_1 is the Hochschild-style delta of the operad whose dual pieces
are these cohomology rings, delta(x) = sum_l (x o_1 mu_l + sum_i mu_l
o_i x + x o_l mu_l) with the positional sign (-1)^position.  The
general route, an operad given by explicit composition matrices with
delta read off their rows (OperadPresentation, hochschild_complex,
d2_via_lifting and two synthetic presentations), runs in no command and
lives beside the tests in tests/hochschild_reference.py.  This module
imports only what ss-table and verify-cycle execute: confcoh, errors
and linalg; build_sinha_complex imports spectral when it is called.
"""

from itertools import combinations

from .confcoh import admissible_basis, coface_terms, live_cofaces
from .errors import VerificationError
from .linalg import (Eliminator, Matrix, column_kernel, integer_elimination,
                     sub_scaled)

MAX_ARITY = 8  # largest max_p of sinha_blocks and build_sinha_complex


def delta_columns(p, q, sources, index):
    """d_1 over Z out of slot (p, q): yields one sparse column per source.

    index maps admissible monomials of slot (p - 1, q) to rows.  Each
    column sums the coface images of its source, the i-th signed (-1)^i,
    as {row: int}, read off the (monomial, int) pairs of coface_terms;
    images outside index are dropped.  Only the cofaces of
    confcoh.live_cofaces are evaluated: a coface that kills the source
    is skipped, and a run of cofaces with equal images is summed once,
    its signs cancelling in pairs.  Distinct images can still cancel, as
    a 0 entry for the caller to skip.  One rewrite memo and one
    live_cofaces table serve the call.
    """
    memo, table = {}, {}
    for m in sources:
        col = {}
        for i, sign in live_cofaces(p, m, table) if index else ():
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


def _field_columns(field, cols, base=0):
    """The integer columns of delta_columns as sparse field columns, their
    rows shifted by base."""
    for col in cols:
        yield {base + t: x for t in sorted(col) if (x := field.of(col[t]))}


def normalized_slot(p, q):
    """The monomials of admissible_basis(p, q), in order, whose factors
    touch every index 1..p: a basis of the quotient by the degenerate
    subspace.

    The codegeneracy s^i is strictly monotone on indices, so it sends an
    admissible monomial to one admissible monomial (coefficient 1) that
    misses index i + 1, and a monomial missing index k is s^(k-1) of its
    own down-shift.  The degenerate span is therefore the coordinate
    subspace of the monomials that miss some index.

    They are enumerated directly.  q factors touch at most 2q indices,
    and p can only be a second index, so a slot with 2q < p is empty and
    a set of second indices must hold p.  The indices that are no second
    index must each be the first index of a factor, so a partial monomial
    that leaves more of them uncovered than it has factors left is cut.
    """
    out = []
    if 2 * q < p:
        return out
    for seconds in combinations(range(2, p + 1), q):
        if p and seconds[-1:] != (p,):
            continue
        uncovered = (1 << p + 1) - 2  # bits of 1..p
        for k in seconds:
            uncovered &= ~(1 << k)
        partial, left = [((), uncovered)], q
        for k in seconds:
            left -= 1
            partial = [(m + ((i, k),), u) for m, v in partial
                       for i in range(1, k)
                       if (u := v & ~(1 << i)).bit_count() <= left]
        out.extend(m for m, _ in partial)
    out.sort()
    return out


def sinha_blocks(max_p, normalized=True):
    """(dims, blocks) of the tower up to arity max_p, over Z.

    Slots are (p, q) for 1 <= p <= max_p, 0 <= q <= p - 1.  The plain
    complex takes every admissible monomial.  With normalized=True a
    slot keeps the monomials touching every index 1..p
    (normalized_slot), a basis of the quotient of H^q(Conf_p) by the
    codegeneracy pullback images; delta maps degenerates to degenerates,
    so d_1 is delta on the quotient.  dims holds the size of each
    nonempty slot in (p, q) order, and blocks holds, for each slot whose
    target (p - 1, q) is nonempty, the delta_columns out of it, with rows
    numbered within the target.
    """
    if not (1 <= max_p <= MAX_ARITY):
        raise ValueError("max_p must be between 1 and %d" % MAX_ARITY)
    basis = normalized_slot if normalized else admissible_basis
    reps = {(p, q): m for p in range(1, max_p + 1) for q in range(p)
            if (m := basis(p, q))}
    blocks = {}
    for (p, q), sources in reps.items():
        if (p - 1, q) in reps:
            index = {m: t for t, m in enumerate(reps[(p - 1, q)])}
            blocks[(p, q)] = list(delta_columns(p, q, sources, index))
    return {k: len(m) for k, m in reps.items()}, blocks


def _apply(cols, v, p):
    """The sparse product sum v_k * cols[k] over Z, or mod p."""
    out = {}
    for k, x in v.items():
        for t, z in cols[k].items():
            out[t] = out.get(t, 0) + x * z
    if p is None:
        return {t: s for t, s in out.items() if s}
    return {t: r for t, s in out.items() if (r := s % p)}


def check_d_squared(blocks):
    """d_1 d_1 = 0 over Z on each pair of consecutive blocks of
    sinha_blocks, hence over every field; a column that fails raises
    VerificationError naming it and its slot."""
    for (p, q), cols in blocks.items():
        below = blocks.get((p - 1, q))
        for j, col in enumerate(cols if below else ()):
            if _apply(below, col, None):
                raise VerificationError(
                    "differential does not square to zero (witness column "
                    "%d of slot %s)" % (j, (p, q)))


def block_ranks(blocks, field):
    """The rank of each block of sinha_blocks over field, from one
    integer_elimination per block (over Z for Q), checked from both
    sides before it is returned.

    At least r: the r stored columns have distinct pivots, and each is d_1
    applied to its combination, so r independent vectors lie in the
    image.  At most r: each of the other columns has a relation that is
    nonzero at the column, zero past it and sent to 0 by d_1, so they
    give that many independent kernel vectors.  A violation raises
    VerificationError naming the column and its slot.
    """
    p = field.p
    ranks = {}
    for slot, cols in blocks.items():
        stored, relations = integer_elimination(cols, p)
        owner = {}
        for j, (r, c) in stored.items():
            if not r or _apply(cols, c, p) != r:
                raise VerificationError(
                    "stored column %d of slot %s is not d_1 applied to its "
                    "combination" % (j, slot))
            if (i := max(r)) in owner:
                raise VerificationError(
                    "stored columns %d and %d of slot %s share the pivot %d"
                    % (owner[i], j, slot, i))
            owner[i] = j
        for j, v in relations.items():
            diagonal = v.get(j, 0)
            if not (diagonal if p is None else diagonal % p) or max(v) != j:
                raise VerificationError(
                    "relation of column %d of slot %s is not zero past the "
                    "column and nonzero at it" % (j, slot))
            if _apply(cols, v, p):
                raise VerificationError(
                    "relation of column %d of slot %s is not sent to 0 by d_1"
                    % (j, slot))
        if len(stored) + len(relations) != len(cols):
            raise VerificationError(
                "%d stored columns and %d relations for the %d columns of "
                "slot %s" % (len(stored), len(relations), len(cols), slot))
        ranks[slot] = len(stored)
    return ranks


def block_pages(dims, ranks, r_max):
    """Pages E_0 .. E_{r_max} from sinha_blocks' dims and block_ranks,
    as tables {(-p, q): {"dim", "d_rank", "target"}} with the keys and
    entries of spectral.page_ranks.

    Every entry of D lies in a block (p, q) -> (p - 1, q), so d_0 = 0,
    E_0 and E_1 are the slots themselves and d_1 has the block rank.
    E_2 = E_infinity: every later page has dim - rank(d_1 out) -
    rank(d_1 in) at each slot, and d_r = 0.
    """
    e2 = {(p, q): n - ranks.get((p, q), 0) - ranks.get((p + 1, q), 0)
          for (p, q), n in dims.items()}
    return [{(-p, q): {"dim": n if r < 2 else e2[(p, q)],
                       "d_rank": ranks.get((p, q), 0) if r == 1 else 0,
                       "target": (r - p, q - r + 1)}
             for (p, q), n in dims.items()}
            for r in range(r_max + 1)]


def build_sinha_complex(max_p, field, normalized=True):
    """FilteredComplex of the configuration-space tower up to arity max_p
    over field: the slots and blocks of sinha_blocks, filtered by arity,
    so d_1 is the differential of the spectral sequence's first page."""
    from .spectral import FilteredComplex
    dims, blocks = sinha_blocks(max_p, normalized)
    offsets, slots = {}, []
    for k, n in dims.items():
        offsets[k] = len(slots)
        slots.extend([k] * n)
    columns = {}
    for (p, q), cols in blocks.items():
        columns.update(enumerate(
            _field_columns(field, cols, offsets[(p - 1, q)]), offsets[(p, q)]))
    return FilteredComplex(field, slots, columns)


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
