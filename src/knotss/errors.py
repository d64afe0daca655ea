"""VerificationError, in a module of its own that imports nothing, so
that the ledger and the geometry can raise it without loading linalg."""


class VerificationError(ValueError):
    """An exactness check failed on computed data; the message names
    the witness (a column, a slot or a vector)."""
