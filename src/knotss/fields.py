"""Exact coefficient fields: the prime fields F_p and the rationals Q.

Elements are stored as plain Python values (int residues in 0..p-1 for
F_p, Fraction for Q); a Field object supplies the arithmetic.  Matrices
and chains carry a field tag instead of wrapping every entry, which
keeps elimination loops cheap.  The per-entry loops (linalg.sub_scaled,
Eliminator's pivot scaling, Matrix.mul_vector, FilteredComplex.apply)
call no Field method: they use the plain operators and reduce mod
Field.p, which is None for Q.  add, sub, mul and neg serve the edges.
"""

from fractions import Fraction


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """F_p for prime p, or Q when p is None."""

    def __init__(self, p=None):
        if p is not None and not _is_prime(p):
            raise ValueError("characteristic must be prime, got %r" % (p,))
        self.p = p
        self.zero = Fraction(0) if p is None else 0
        self.one = Fraction(1) if p is None else 1

    @property
    def name(self):
        return "q" if self.p is None else "f%d" % self.p

    def of(self, x):
        """Coerce an int or Fraction into this field.  Anything else is a
        TypeError, and a Fraction whose denominator p divides is a
        ValueError over F_p."""
        if isinstance(x, int):
            return Fraction(x) if self.p is None else x % self.p
        if not isinstance(x, Fraction):
            raise TypeError("field value must be an int or a Fraction, got %r"
                            % (x,))
        if self.p is None:
            return x
        if not x.denominator % self.p:
            raise ValueError("%s has no value in F_%d: its denominator is "
                             "divisible by %d" % (x, self.p, self.p))
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a):
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return self.one / a
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "Field(%r)" % (self.p,)


F2 = Field(2)
F3 = Field(3)
QQ = Field(None)

_BY_NAME = {"f2": F2, "f3": F3, "q": QQ}


def field_by_name(name):
    """Resolve 'f2' / 'f3' / 'q' (shipped fields only)."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise ValueError("unknown field %r; shipped fields are f2, f3, q" % name)
