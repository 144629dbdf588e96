"""The record that every audit writes for one identity."""

from __future__ import annotations

from .linalg import Matrix


def audit(ident: str, outcome) -> dict:
    """The record of one audited identity; a failing record names its deviation.

    ``outcome`` is a difference Matrix that must vanish (a failure names its
    first nonzero entry), a bool (a failure reads "nonzero"), or None for a
    pass and a string naming the deviation for a failure.
    """
    if isinstance(outcome, Matrix):
        where = outcome.first_nonzero()
        outcome = None if where is None else f"entry{where}"
    elif isinstance(outcome, bool):
        outcome = None if outcome else "nonzero"
    return {"identity_id": ident,
            "status": "pass" if outcome is None else "fail",
            "deviation": "0" if outcome is None else outcome}
