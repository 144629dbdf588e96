"""The record that every audit writes for one identity, and a store of them."""

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


class Records(dict):
    """Records by identity id, all about the generator matrices e_0 .. e_N
    of one module at one parameter point, so that an audit may read them as
    premises."""

    def __init__(self, generators, point):
        super().__init__()
        self.generators = tuple(generators)
        self.point = point

    def add(self, records: list[dict]) -> list[dict]:
        self.update((r["identity_id"], r) for r in records)
        return records


def premises(store: Records | None, generators, point) -> dict:
    """The records of ``store`` when they are about ``generators``, the same
    Matrix objects in the same order, at the same ``point`` object, and
    otherwise none: a premise is a passing record about the same matrices
    and scalars."""
    generators = tuple(generators)
    if (store is None or store.point is not point
            or len(store.generators) != len(generators)):
        return {}
    if all(a is b for a, b in zip(store.generators, generators)):
        return store
    return {}


def passed(records: dict, *idents: str) -> bool:
    """Whether each of ``idents`` has a passing record in ``records``."""
    return all(records.get(i, {}).get("status") == "pass" for i in idents)


def same_matrix(records: dict, ident: str, other: str):
    """The record ``ident`` read from ``records[other]``, an identity whose
    difference matrix is the same up to a nonzero factor, so that it fails
    at the same first entry; None when ``other`` has no record."""
    if other not in records:
        return None
    return {**records[other], "identity_id": ident}
