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
    premises.

    ``routes`` holds, by identity id, the premise ids of each derived record
    (empty for an identity that needs none) and the source id of each read
    one; a formed record has no route.  The records themselves are those of
    ``audit``, so a report does not show the route."""

    def __init__(self, generators, point):
        super().__init__()
        self.generators = tuple(generators)
        self.point = point
        self.routes: dict[str, tuple[str, ...] | str] = {}

    @staticmethod
    def about(store: Records | None, generators, point) -> Records:
        """``store`` when it is about ``generators``, the same Matrix objects
        in the same order, at the same ``point`` object, and otherwise an
        empty store about them: a premise is a passing record about the
        same matrices and scalars."""
        generators = tuple(generators)
        if (store is not None and store.point is point
                and len(store.generators) == len(generators)
                and all(a is b for a, b in zip(store.generators, generators))):
            return store
        return Records(generators, point)

    def add(self, records: list[dict]) -> list[dict]:
        self.update((r["identity_id"], r) for r in records)
        return records

    def derive(self, ident: str, premises, form) -> dict:
        """The record ``ident``, kept here: a pass when ``premises`` is not
        None and each of its ids has a passing record here, and otherwise
        ``audit(ident, form())``, so that a failure names the first nonzero
        entry of the matrix ``form`` gives."""
        if premises is not None and all(
                self.get(p, {}).get("status") == "pass" for p in premises):
            self.routes[ident] = tuple(premises)
            self[ident] = audit(ident, True)
        else:
            self[ident] = audit(ident, form())
        return self[ident]

    def read(self, ident: str, other: str, form) -> dict:
        """The record ``ident``, kept here: read from the record ``other``,
        passing or not, an identity whose difference matrix is the same up
        to a nonzero factor, so that it fails at the same first entry; and
        ``audit(ident, form())`` when ``other`` has no record."""
        if other in self:
            self.routes[ident] = other
            self[ident] = {**self[other], "identity_id": ident}
        else:
            self[ident] = audit(ident, form())
        return self[ident]
