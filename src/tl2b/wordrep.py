"""Matrix representations on half-diagram modules, and their Gram forms.

Two kinds of module over the quotiented diagram algebra:

* through-line modules, spanned by the half-diagrams with a fixed number of
  through lines and fixed wall parities (any action that loses a through
  line acts as zero);
* the 2^N-dimensional module of all through-line-free half-diagrams, where
  pairs of horizontal lines are traded for the scalar b.

Matrices follow the left-action column convention: column i of e_k holds the
expansion of e_k applied to the i-th basis vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .audit import audit
from .diagrams import HalfDiagram, act_on_half, compose, FullDiagram
from .linalg import Matrix, exact_det
from .scalars import DerivedParams


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


@dataclass(frozen=True)
class ModuleSpec:
    """A concrete module: chain length, kind, and its scalar context."""

    n_sites: int
    kind: str  # "lines" or "big"
    params: DerivedParams
    n: int = 0
    eps1: int = 1
    eps2: int = 1
    b: object = None

    @staticmethod
    def through_lines(n_sites: int, n: int, eps1: int, eps2: int,
                      params: DerivedParams) -> ModuleSpec:
        if eps1 not in (1, -1) or eps2 not in (1, -1):
            raise ValueError("parities must be +1 or -1")
        n_through = n + (eps1 + eps2) // 2
        if not 1 <= n_through <= n_sites:
            raise ValueError(f"invalid through-line count {n_through}")
        if (n_sites - 1 - n) % 2:
            raise ValueError(f"n={n} has the wrong parity for N={n_sites}")
        return ModuleSpec(n_sites, "lines", params, n, eps1, eps2)

    @staticmethod
    def big(n_sites: int, params: DerivedParams, b=None) -> ModuleSpec:
        if b is None:
            b = params.b_for(n_sites)
        return ModuleSpec(n_sites, "big", params, b=b)

    @property
    def quotient_b(self):
        return self.b if self.kind == "big" else None

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
def _basis_patterns(n_sites: int, kind: str, n_through: int,
                    eps1: int, eps2: int) -> tuple[str, ...]:
    if kind == "big":
        pats = []
        for mask in range(1 << n_sites):
            pats.append("".join("(" if (mask >> (n_sites - 1 - i)) & 1 else ")"
                                for i in range(n_sites)))
        return tuple(sorted(pats, key=lambda p: HalfDiagram(p).sort_index))
    from .diagrams import InvalidDiagramError

    pats = []

    def grow(prefix: str) -> None:
        if len(prefix) == n_sites:
            try:
                h = HalfDiagram(prefix)
            except InvalidDiagramError:
                return
            if (h.n_through == n_through and h.eps1 == eps1
                    and h.eps2 == eps2):
                pats.append(prefix)
            return
        for ch in ")(|":
            grow(prefix + ch)

    grow("")
    return tuple(sorted(pats, key=lambda p: HalfDiagram(p).sort_index))


def _patterns(spec: ModuleSpec) -> tuple[str, ...]:
    if spec.kind == "big":
        return _basis_patterns(spec.n_sites, "big", 0, 1, 1)
    n_through = spec.n + (spec.eps1 + spec.eps2) // 2
    return _basis_patterns(spec.n_sites, "lines", n_through,
                           spec.eps1, spec.eps2)


def enumerate_basis(spec: ModuleSpec) -> list[HalfDiagram]:
    """Canonically ordered basis; length 2^N or the ballot-sum dimension."""
    return [HalfDiagram(p) for p in _patterns(spec)]


def action_table(spec: ModuleSpec, i: int) -> list:
    """Sparse column map: entry j is (row, scalar) or None."""
    basis = spec.basis
    index = {h.pattern: r for r, h in enumerate(basis)}
    table = []
    for h in basis:
        scalar, image = act_on_half(i, h, spec.params, spec.quotient_b)
        if image is None or not scalar:
            table.append(None)
        else:
            table.append((index[image.pattern], scalar))
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
# bilinear form


def bilinear(x: HalfDiagram, y: HalfDiagram, spec: ModuleSpec):
    """Pairing of two half-diagrams by closing the top of x onto y.

    Zero whenever the closure is not proportional to the required shape
    (through-line loss).  In the 2^N module each half-diagram brings its
    own horizontal line; the pair as a whole trades max(fx, fy) plus half
    the freshly closed horizontal lines for powers of b, which stays
    division-free even where b vanishes.
    """
    params = spec.params
    fx, fy = int(x.hline), int(y.hline)
    a = FullDiagram(x.pattern, x.pattern, 2 * fx)
    b = FullDiagram(y.pattern, y.pattern, 2 * fy)
    out = compose(a, b, params, None)
    if spec.kind != "big":
        if out.shape != (x.pattern, y.pattern, 0):
            return params.point.zero
        return out.coeff
    born = out.hlines - 2 * fx - 2 * fy
    exponent = max(fx, fy) + born // 2
    return out.coeff * spec.b ** exponent


def gram_matrix(spec: ModuleSpec) -> Matrix:
    basis = spec.basis
    rows = []
    for x in basis:
        rows.append([bilinear(x, y, spec) for y in basis])
    return Matrix(rows)


def gram_det_bruteforce(spec: ModuleSpec):
    """Exact determinant of the Gram matrix by fraction-free elimination."""
    return exact_det(gram_matrix(spec))


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


def word_matrix(spec: ModuleSpec, word: tuple[int, ...]) -> Matrix:
    """Matrix of the product of generators, read left to right."""
    return word_product(spec.generators, word)


def word_product(family, word) -> Matrix:
    """Product of ``family[i]`` over the letters of the word, left to right."""
    out = Matrix.identity(family[0].nrows)
    for i in word:
        out = out @ family[i]
    return out


def check_relations(family, params, prefix: str = "") -> list[dict]:
    """One record per defining relation lhs = c * rhs, checked exactly.

    ``family[i]`` is the Matrix of e_i, i = 0 .. N, in the representation
    under audit (a sequence, or a dict keyed 0 .. N).
    """
    named = {"one": params.point.one, "delta": params.delta,
             "s1": params.s1, "s2": params.s2}
    return [audit(prefix + ident, word_product(family, lhs)
                  - word_product(family, rhs).scale(named[cname]))
            for ident, lhs, (cname, rhs)
            in _defining_relations(len(family) - 1)]


def relation_audit(spec: ModuleSpec) -> list[dict]:
    """Exact check of every defining relation, as matrix identities.

    On the 2^N module the two horizontal-line relations I1*I2*I1 = b*I1 and
    I2*I1*I2 = b*I2 are audited as well.
    """
    gens = spec.generators
    records = check_relations(gens, spec.params)
    if spec.kind == "big":
        w1, w2 = idempotent_words(spec.n_sites)
        i1, i2 = word_product(gens, w1), word_product(gens, w2)
        records.append(audit("quotient.121", i1 @ i2 @ i1 - i1.scale(spec.b)))
        records.append(audit("quotient.212", i2 @ i1 @ i2 - i2.scale(spec.b)))
    return sorted(records, key=lambda r: r["identity_id"])


__all__ = [
    "ModuleSpec", "action_table", "ballot", "bilinear", "check_relations",
    "enumerate_basis", "generator_matrix", "gram_det_bruteforce",
    "gram_matrix", "idempotent_words", "irrep_dim", "relation_audit",
    "word_matrix", "word_product",
]
