"""Matrix representations on half-diagram modules, and their Gram forms.

Two kinds of module over the quotiented diagram algebra:

* through-line modules, spanned by the half-diagrams with a fixed number of
  through lines and fixed wall parities (any action that loses a through
  line acts as zero);
* the 2^N-dimensional module of all through-line-free half-diagrams, where
  pairs of horizontal lines are traded for the scalar b.

Both act by ``diagrams.act_on_half``.  The Gram form <x, y>, the action of
x's doubled diagram on y, is read only as a whole matrix, ``gram_matrix``.

Matrices follow the left-action column convention: column i of e_k holds the
expansion of e_k applied to the i-th basis vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

from .audit import Records, audit
# ``compose`` is unused here but stays bound: perfbench/tracer.py rebinds it
from .diagrams import (HalfDiagram, InvalidDiagramError,  # noqa: F401
                       act_on_half, compose, generator_diagram)
from .linalg import Matrix


def ballot(m: int, n: int) -> int:
    """Number of up-down sequences of length m with excess n."""
    if m < 0 or abs(n) > m or (m - n) % 2:
        return 0
    return math.comb(m, (m - n) // 2)


def irrep_dim(m: int, n: int) -> int:
    """Half-diagram module dimension: sum of ballot numbers B(m, |n|+2i-1)."""
    if m < 1:
        raise ValueError("chain length must be at least 1")
    return sum(ballot(m, abs(n) + 2 * i - 1)
               for i in range(1, (m + 1 - abs(n)) // 2 + 1))


def through_line_count(n: int, eps1: int, eps2: int) -> int:
    """Through lines of the module labelled (n, eps1, eps2), n + (eps1 +
    eps2)/2, or 0 where that is below 1 and the label names no module."""
    return max(n + (eps1 + eps2) // 2, 0)


@dataclass(frozen=True)
class ModuleSpec:
    """A concrete module: chain length, kind, and its parameter point."""

    n_sites: int
    kind: str  # "lines" or "big"
    point: object
    n: int = 0
    eps1: int = 1
    eps2: int = 1
    b: object = None

    @staticmethod
    def through_lines(n_sites: int, n: int, eps1: int, eps2: int,
                      point) -> ModuleSpec:
        if eps1 not in (1, -1) or eps2 not in (1, -1):
            raise ValueError("parities must be +1 or -1")
        n_through = through_line_count(n, eps1, eps2)
        if not 1 <= n_through <= n_sites:
            raise ValueError(f"invalid through-line count {n_through}")
        if (n_sites - 1 - n) % 2:
            raise ValueError(f"n={n} has the wrong parity for N={n_sites}")
        return ModuleSpec(n_sites, "lines", point, n, eps1, eps2)

    @staticmethod
    def big(n_sites: int, point) -> ModuleSpec:
        return ModuleSpec(n_sites, "big", point, b=point.b_for(n_sites))

    def weigh(self, weight: tuple[int, int, int], pairs: int):
        """delta^i s1^j s2^k b^pairs for ``weight`` = (i, j, k): the one place
        where a diagram product's or pairing's exponents become a scalar."""
        p = self.point
        out = p.one
        for base, k in zip((p.delta, p.s1, p.s2, self.b), (*weight, pairs)):
            if k:
                out *= base ** k
        return out

    @property
    def dim(self) -> int:
        return len(_patterns(self))

    @cached_property
    def basis(self) -> tuple[HalfDiagram, ...]:
        """The canonically ordered basis, built once."""
        return tuple(enumerate_basis(self))

    @cached_property
    def generators(self) -> tuple[Matrix, ...]:
        """e_0 .. e_N on this module, each built once."""
        return tuple(generator_matrix(self, i)
                     for i in range(self.n_sites + 1))


@lru_cache(maxsize=None)
def _basis_patterns(n_sites: int, n_through: int,
                    parities: tuple[int, int] | None) -> tuple[str, ...]:
    """The drawable patterns with ``n_through`` through lines and, unless
    ``parities`` is None, wall parities (eps1, eps2), in basis order:
    lexicographic with ')' < '(' < '|'.

    The 2^N module is every pattern without through lines."""
    pats = []
    for chars in product(")(|", repeat=n_sites):
        pattern = "".join(chars)
        if pattern.count("|") != n_through:
            continue
        try:
            h = HalfDiagram(pattern)
        except InvalidDiagramError:
            continue
        if parities is None or (h.eps1, h.eps2) == parities:
            pats.append(pattern)
    return tuple(pats)


def _patterns(spec: ModuleSpec) -> tuple[str, ...]:
    if spec.kind == "big":
        return _basis_patterns(spec.n_sites, 0, None)
    eps = (spec.eps1, spec.eps2)
    return _basis_patterns(spec.n_sites, through_line_count(spec.n, *eps), eps)


def enumerate_basis(spec: ModuleSpec) -> list[HalfDiagram]:
    """Canonically ordered basis; length 2^N or the ballot-sum dimension."""
    return [HalfDiagram(p) for p in _patterns(spec)]


def action_table(spec: ModuleSpec, i: int) -> list:
    """Sparse column map: entry j is (row, scalar) or None.  Each distinct
    ``(weight, pairs)`` is weighed once."""
    basis = spec.basis
    index = {h.pattern: r for r, h in enumerate(basis)}
    gen = generator_diagram(i, spec.n_sites)
    values = {}
    table = []
    for h in basis:
        hit = act_on_half(gen, h)
        if hit is None:
            table.append(None)
            continue
        key = hit[:2]
        if key not in values:
            values[key] = spec.weigh(*key)
        scalar = values[key]
        table.append((index[hit[2].pattern], scalar) if scalar else None)
    return table


def generator_matrix(spec: ModuleSpec, i: int) -> Matrix:
    """The Matrix of ``action_table``; ``spec.generators`` keeps them all."""
    cols = []
    for hit in action_table(spec, i):
        col = [0] * spec.dim
        if hit is not None:
            row, scalar = hit
            col[row] = scalar
        cols.append(col)
    return Matrix.from_columns(cols)


# ---------------------------------------------------------------------------
# Gram form


def gram_matrix(spec: ModuleSpec) -> Matrix:
    """The Gram form <x, y> on the basis: the action of x's doubled diagram
    on y, ``act_on_half(x.doubled, y)``, weighed, or zero where it is None.
    Each distinct ``(weight, pairs)`` is weighed once."""
    basis = spec.basis
    values = {None: spec.point.zero}
    rows = []
    for x in basis:
        hits = (act_on_half(x.doubled, y) for y in basis)
        keys = [hit and hit[:2] for hit in hits]
        values.update((k, spec.weigh(*k)) for k in set(keys) - values.keys())
        rows.append([values[k] for k in keys])
    return Matrix(rows)


# ---------------------------------------------------------------------------
# relation audit


def _defining_relations(n_sites: int) -> list[tuple[str, tuple[int, ...], tuple]]:
    """(identity id, left word, (coeff name, right word)) triples."""
    rels = []
    for i in range(1, n_sites):
        rels.append((f"bulk.sq.{i}", (i, i), ("delta", (i,))))
    for i in range(1, n_sites - 1):
        rels.append((f"bulk.jones.{i}.{i + 1}", (i, i + 1, i), ("one", (i,))))
        rels.append((f"bulk.jones.{i + 1}.{i}", (i + 1, i, i + 1), ("one", (i + 1,))))
    for i in range(0, n_sites + 1):
        for j in range(i + 2, n_sites + 1):
            rels.append((f"comm.{i}.{j}", (i, j), ("one", (j, i))))
    rels.append(("left.sq", (0, 0), ("s1", (0,))))
    rels.append(("left.jones", (1, 0, 1), ("one", (1,))))
    rels.append(("right.sq", (n_sites, n_sites), ("s2", (n_sites,))))
    rels.append(("right.jones", (n_sites - 1, n_sites, n_sites - 1),
                 ("one", (n_sites - 1,))))
    return rels


def idempotent_words(n_sites: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two alternating products: odd generators, and even ones with both
    boundaries attached according to the parity of the chain length."""
    if n_sites % 2 == 0:
        i1 = tuple(range(1, n_sites, 2))
        i2 = tuple(range(0, n_sites + 1, 2))
    else:
        i1 = tuple(range(1, n_sites, 2)) + (n_sites,)
        i2 = tuple(range(0, n_sites, 2))
    return i1, i2


def word_product(family, word) -> Matrix:
    """Product of ``family[i]`` over the letters of the word, left to right;
    the identity for the empty word."""
    if not word:
        return Matrix.identity(family[0].nrows)
    out = family[word[0]]
    for i in word[1:]:
        out = out @ family[i]
    return out


def evaluate(family, terms) -> Matrix:
    """The Matrix of the sum of c f_1 .. f_k over the terms (c, f_1, .., f_k)
    of ``PairWords.vanishes``, with e_i = ``family[i]``: a factor
    {word: x, ..} is the sum of x ``word_product(family, word)``."""
    unit = Matrix.identity(family[0].nrows)
    total = zero = unit.scale(0)
    for c, *factors in terms:
        prod = unit.scale(c)
        for factor in factors:
            prod = prod @ sum((word_product(family, word).scale(x)
                               for word, x in factor.items()), zero)
        total = total + prod
    return total


class PairWords:
    """Words in one generator or two adjacent ones, rewritten by the TL
    relations of ``_defining_relations`` among them: x x -> alpha x, with
    alpha = delta, s1 or s2 (``bulk.sq.i``, ``left.sq``, ``right.sq``),
    and x y x -> x for each Jones relation of the pair (both orders in the
    bulk, and at a wall only the bulk neighbour's, so that e_N e_{N-1} e_N
    is a reduced word; at N = 1 the two walls give both orders).

    An element is a dict {word: coefficient}.  Each rewrite replaces a
    factor by an equal one wherever the relations hold, so an element that
    reduces to zero is zero in every representation where they hold; one
    that does not proves nothing."""

    def __init__(self, point, n_sites: int, letters):
        #: left word -> (coefficient, right word), each right word one letter
        self.rules = {}
        #: the identity ids of the relations behind ``rules``
        self.idents = []
        for ident, lhs, (cname, rhs) in _defining_relations(n_sites):
            if len(rhs) == 1 and set(lhs) <= set(letters):
                self.rules[lhs] = (getattr(point, cname), rhs)
                self.idents.append(ident)

    @classmethod
    def premises(cls, point, n_sites: int, letters, *terms):
        """The ids of the relations among ``letters`` when the sum of the
        ``terms`` (as in ``vanishes``) reduces to zero by them, and None
        otherwise: the identity then holds wherever those relations do."""
        words = cls(point, n_sites, letters)
        return tuple(words.idents) if words.vanishes(*terms) else None

    @classmethod
    def record(cls, store: Records, ident: str, letters, *terms) -> dict:
        """The record ``ident`` of the identity that the sum of the ``terms``
        vanishes, about the generators and point of ``store`` and kept
        there: derived from the relations among ``letters`` (``premises``),
        and otherwise formed by ``evaluate``, so that a failure names the
        first nonzero entry of the sum."""
        return store.derive(ident, cls.premises(
            store.point, len(store.generators) - 1, letters, *terms),
            lambda: evaluate(store.generators, terms))

    def _reduce(self, word):
        """(c, w) with ``word`` = c w by the rules, w reduced."""
        coeff, out = 1, []
        for letter in word:
            out.append(letter)
            while True:
                hit = next((k for k in (2, 3) if len(out) >= k
                            and tuple(out[-k:]) in self.rules), None)
                if hit is None:
                    break
                c, rhs = self.rules[tuple(out[-hit:])]
                coeff = coeff * c
                out[-hit:] = rhs
        return coeff, tuple(out)

    def product(self, factors) -> dict:
        """The reduced product of the elements ``factors``, left to right."""
        out = {(): 1}
        for factor in factors:
            acc = {}
            for w1, c1 in out.items():
                for w2, c2 in factor.items():
                    c, w = self._reduce(w1 + w2)
                    x = c1 * c2 if c == 1 else c * c1 * c2
                    acc[w] = acc[w] + x if w in acc else x
            out = acc
        return out

    def vanishes(self, *terms) -> bool:
        """Whether the sum of c f_1 .. f_k over the terms (c, f_1, .., f_k)
        reduces to zero; a term without factors is c times the unit."""
        total = {}
        for c, *factors in terms:
            for w, x in self.product(factors).items():
                total[w] = total[w] + c * x if w in total else c * x
        return not any(total.values())


def check_relations(family, point, prefix: str = "") -> list[dict]:
    """One record per defining relation lhs = c * rhs, checked exactly;
    c is the point's attribute named in ``_defining_relations``.

    ``family[i]`` is the Matrix of e_i, i = 0 .. N, in the representation
    under audit (a sequence, or a dict keyed 0 .. N).
    """
    return [audit(prefix + ident, word_product(family, lhs)
                  - word_product(family, rhs).scale(getattr(point, cname)))
            for ident, lhs, (cname, rhs)
            in _defining_relations(len(family) - 1)]


def relation_audit(spec: ModuleSpec, store: Records | None = None
                   ) -> list[dict]:
    """Exact check of every defining relation, as matrix identities, each
    record kept in ``store`` when it is about ``spec.generators``.

    On the 2^N module the two horizontal-line relations I1*I2*I1 = b*I1 and
    I2*I1*I2 = b*I2 are audited as well.
    """
    gens = spec.generators
    records = check_relations(gens, spec.point)
    if spec.kind == "big":
        w1, w2 = idempotent_words(spec.n_sites)
        i1, i2 = word_product(gens, w1), word_product(gens, w2)
        records.append(audit("quotient.121", i1 @ i2 @ i1 - i1.scale(spec.b)))
        records.append(audit("quotient.212", i2 @ i1 @ i2 - i2.scale(spec.b)))
    return Records.about(store, gens, spec.point).add(records)


__all__ = [
    "ModuleSpec", "PairWords", "action_table", "ballot", "check_relations",
    "enumerate_basis", "evaluate", "generator_matrix", "gram_matrix",
    "idempotent_words", "irrep_dim", "relation_audit", "through_line_count",
    "word_product",
]
