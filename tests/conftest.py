import pytest

from knotss import hochschild
from knotss.fields import Field


@pytest.fixture
def flipped_delta_sign(monkeypatch):
    """Negate the first nonzero entry, in row-major order, of the integer
    d_1 columns out of slot (5, 3), the slot (5, 3) -> (4, 3) that
    composes with (6, 3) -> (5, 3); the normalized and the plain Sinha
    complexes to arity 6 then fail D^2 = 0.  The first nonzero row of the dense
    matrix is a normalized one, so the dense conf_delta_matrix(5, 3) and
    its normalized restriction see the same entry flipped."""
    original = hochschild.delta_columns

    def flipped(p, q, sources, index):
        cols = list(original(p, q, sources, index))
        if (p, q) == (5, 3):
            t = min(t for col in cols for t, z in col.items() if z)
            col = next(col for col in cols if col.get(t))
            col[t] = -col[t]
        return cols

    monkeypatch.setattr(hochschild, "delta_columns", flipped)


@pytest.fixture
def field_of_calls(monkeypatch):
    """A one-item list that counts the Field.of calls made after it is
    set up; a test may reset it to 0."""
    calls, of = [0], Field.of

    def counted(self, x):
        calls[0] += 1
        return of(self, x)

    monkeypatch.setattr(Field, "of", counted)
    return calls
