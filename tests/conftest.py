import pytest

from knotss import hochschild


@pytest.fixture
def flipped_delta_sign(monkeypatch):
    """Negate the first nonzero entry of conf_delta_matrix(5, 3), the
    slot (5, 3) -> (4, 3) that composes with (6, 3) -> (5, 3); the
    normalized Sinha complex to arity 6 then fails D^2 = 0."""
    original = hochschild.conf_delta_matrix

    def flipped(p, q, field, mode="signed"):
        M = original(p, q, field, mode=mode)
        if (p, q) == (5, 3):
            i, j = next((i, j) for i, row in enumerate(M.rows)
                        for j, x in enumerate(row) if x)
            M.rows[i][j] = field.neg(M.rows[i][j])
        return M

    monkeypatch.setattr(hochschild, "conf_delta_matrix", flipped)
