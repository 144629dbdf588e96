"""Planar diagram calculus for the chain algebra with two boundary generators.

Half-diagrams are parenthesis strings over ')', '(', '|': a matched pair is
an arc between two sites, an unmatched ')' runs to the left wall, an
unmatched '(' to the right wall, and '|' is a through line.  A full diagram
is a bottom half, a top half and a count of horizontal wall-to-wall lines.

Composition stacks one diagram below another and removes what closes up:

* closed loops                      -> factor delta
* even wall-to-wall arcs            -> factor 1
* odd arcs at the left wall         -> factor s1
* odd arcs at the right wall        -> factor s2
* pairs of horizontal lines         -> factor b   (only in the quotient)

An arc's parity is the parity of the number of wall endpoints strictly below
its lowest point.  Planarity forces a unique vertical order of endpoints on
each wall, which is what ``_slot_order`` encodes: on the left wall the lower
diagram's endpoints sit under its own horizontal lines, which sit under the
interface endpoints (lower-side strands in descending site order, then
upper-side strands in ascending site order); the right wall mirrors this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .scalars import DerivedParams

_ORDER = {")": 0, "(": 1, "|": 2}


def pattern_sort_key(pattern: str) -> tuple[int, ...]:
    """Canonical basis order: lexicographic with ')' < '(' < '|'."""
    return tuple(_ORDER[ch] for ch in pattern)


class InvalidDiagramError(ValueError):
    """The site pattern cannot be drawn without crossings."""


@lru_cache(maxsize=None)
def _strand_map(pattern: str) -> tuple:
    """Per-site connector: ('pair', j), ('left',), ('right',) or ('thru', k).

    Raises InvalidDiagramError when a through line sits inside an arc or a
    left-wall connection appears to the right of a through line.
    """
    out: list[tuple] = [None] * len(pattern)
    stack: list[int] = []
    seen_pipe = False
    k = 0
    for i, ch in enumerate(pattern):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            if stack:
                j = stack.pop()
                out[i] = ("pair", j)
                out[j] = ("pair", i)
            else:
                if seen_pipe:
                    raise InvalidDiagramError(
                        f"left connection after a through line: {pattern!r}")
                out[i] = ("left",)
        elif ch == "|":
            if stack:
                raise InvalidDiagramError(
                    f"through line inside an arc: {pattern!r}")
            seen_pipe = True
            out[i] = ("thru", k)
            k += 1
        else:
            raise InvalidDiagramError(f"bad character {ch!r} in {pattern!r}")
    for i in stack:
        out[i] = ("right",)
    return tuple(out)


@dataclass(frozen=True, order=True)
class HalfDiagram:
    """An immutable half-diagram; the horizontal-line flag is derived.

    >>> HalfDiagram(")()((").n_through
    0
    >>> str(HalfDiagram(")("))
    ')(*'
    """

    sort_index: tuple[int, ...] = field(init=False, repr=False)
    pattern: str

    def __post_init__(self):
        _strand_map(self.pattern)
        object.__setattr__(self, "sort_index", pattern_sort_key(self.pattern))

    @property
    def n_sites(self) -> int:
        return len(self.pattern)

    @property
    def strands(self) -> tuple:
        return _strand_map(self.pattern)

    @property
    def n_left(self) -> int:
        return sum(1 for s in self.strands if s[0] == "left")

    @property
    def n_right(self) -> int:
        return sum(1 for s in self.strands if s[0] == "right")

    @property
    def n_through(self) -> int:
        return self.pattern.count("|")

    @property
    def hline(self) -> bool:
        """A horizontal line rides with the half that has odd right count;
        only the through-line-free sector carries one."""
        return self.n_through == 0 and self.n_right % 2 == 1

    @property
    def eps1(self) -> int:
        return -1 if self.n_left % 2 else 1

    @property
    def eps2(self) -> int:
        return -1 if self.n_right % 2 else 1

    def __str__(self) -> str:
        return self.pattern + ("*" if self.hline else "")

    @staticmethod
    def from_string(text: str) -> HalfDiagram:
        """Parse the display form; a trailing '*' must match the derived flag."""
        starred = text.endswith("*")
        half = HalfDiagram(text[:-1] if starred else text)
        if starred != half.hline:
            raise InvalidDiagramError(
                f"horizontal-line flag of {text!r} contradicts its parity")
        return half


@dataclass(frozen=True)
class FullDiagram:
    """Reduced diagram: bottom half, top half, horizontal lines, coefficient."""

    bottom: str
    top: str
    hlines: int = 0
    coeff: object = field(default=1, compare=False)

    def __post_init__(self):
        bot, top = _strand_map(self.bottom), _strand_map(self.top)
        if len(self.bottom) != len(self.top):
            raise InvalidDiagramError("bottom and top have different widths")
        n_thru = self.bottom.count("|")
        if n_thru != self.top.count("|"):
            raise InvalidDiagramError("through lines must cross the diagram")
        if n_thru and self.hlines:
            raise InvalidDiagramError(
                "through lines and horizontal lines cannot coexist")
        if self.hlines < 0:
            raise InvalidDiagramError("negative horizontal line count")
        mismatch = (sum(1 for s in bot if s[0] == "right")
                    + sum(1 for s in top if s[0] == "right")) % 2
        if self.hlines % 2 != mismatch:
            raise InvalidDiagramError(
                "horizontal-line parity contradicts the wall connections")

    @property
    def n_sites(self) -> int:
        return len(self.bottom)

    @property
    def shape(self) -> tuple[str, str, int]:
        return (self.bottom, self.top, self.hlines)

    def scaled(self, c) -> FullDiagram:
        return FullDiagram(self.bottom, self.top, self.hlines, self.coeff * c)

    def to_json(self) -> dict:
        return {"bottom": self.bottom, "top": self.top,
                "hlines": self.hlines, "coeff": str(self.coeff)}


def identity_diagram(n_sites: int) -> FullDiagram:
    return FullDiagram("|" * n_sites, "|" * n_sites, 0, 1)


def generator_diagram(i: int, n_sites: int) -> FullDiagram:
    """The diagram of e_i: boundary arcs for i = 0 and i = N, else a cup-cap."""
    if not 0 <= i <= n_sites:
        raise IndexError(f"generator index {i} out of range 0..{n_sites}")
    if i == 0:
        pat = ")" + "|" * (n_sites - 1)
    elif i == n_sites:
        pat = "|" * (n_sites - 1) + "("
    else:
        pat = "|" * (i - 1) + "()" + "|" * (n_sites - 1 - i)
    return FullDiagram(pat, pat, 0, 1)


# ---------------------------------------------------------------------------
# the gluing engine


class _Glue:
    """Resolve the interface between a lower top-pattern and an upper
    bottom-pattern: trace every line, classify the pieces, and record wall
    endpoints in their forced vertical order."""

    __slots__ = ("below", "above", "n", "loops", "components")

    def __init__(self, lower_top: str, upper_bottom: str):
        self.below = _strand_map(lower_top)
        self.above = _strand_map(upper_bottom)
        self.n = len(lower_top)
        self.loops = 0
        self.components: list[tuple] = []
        self._trace()

    def _strand(self, side: int, i: int):
        return self.below[i] if side == 0 else self.above[i]

    def _trace(self):
        used = [[False] * self.n, [False] * self.n]

        def follow(side: int, i: int):
            while True:
                used[side][i] = True
                c = self._strand(side, i)
                if c[0] != "pair":
                    return (side, c, i)
                used[side][c[1]] = True
                side, i = 1 - side, c[1]

        for side in (0, 1):
            for i in range(self.n):
                c = self._strand(side, i)
                if c[0] == "pair" or used[side][i]:
                    continue
                used[side][i] = True
                end_a = (side, c, i)
                end_b = follow(1 - side, i)
                self.components.append((end_a, end_b))
        for start in range(self.n):
            if used[0][start]:
                continue
            side, i = 0, start
            while not used[side][i]:
                c = self._strand(side, i)
                used[side][i] = used[side][c[1]] = True
                side, i = 1 - side, c[1]
            self.loops += 1

    def _slot_order(self, wall: str) -> dict[tuple[int, int], int]:
        """(side, site) -> vertical slot of interface endpoints on a wall."""
        below_sites = [i for i in range(self.n) if self.below[i] == (wall,)]
        above_sites = [i for i in range(self.n) if self.above[i] == (wall,)]
        if wall == "left":
            ordered = sorted(below_sites, reverse=True)
            ordered_above = sorted(above_sites)
        else:
            ordered = sorted(below_sites)
            ordered_above = sorted(above_sites, reverse=True)
        slots = {(0, i): k for k, i in enumerate(ordered)}
        slots.update({(1, i): len(ordered) + k for k, i in enumerate(ordered_above)})
        return slots

    def resolve(self, params: DerivedParams, base_left: int, base_right: int):
        """Scalar factor, horizontal-line count and the end-assignments.

        ``base_left``/``base_right`` count wall points of the lower diagram
        that sit below every interface endpoint (its bottom-half connections
        plus its own horizontal lines); they decide arc parities.
        """
        slots_l = self._slot_order("left")
        slots_r = self._slot_order("right")
        factor = params.point.one
        new_hlines = 0
        bottom_ends: list[tuple[int, tuple]] = []
        top_ends: list[tuple[int, tuple]] = []
        for end_a, end_b in self.components:
            kinds = {end_a[1][0], end_b[1][0]}
            if kinds == {"left"}:
                low = min(slots_l[(e[0], e[2])] for e in (end_a, end_b))
                if (base_left + low) % 2:
                    factor = factor * params.s1
            elif kinds == {"right"}:
                low = min(slots_r[(e[0], e[2])] for e in (end_a, end_b))
                if (base_right + low) % 2:
                    factor = factor * params.s2
            elif kinds == {"left", "right"}:
                new_hlines += 1
            else:
                for end, other in ((end_a, end_b), (end_b, end_a)):
                    side, conn, _site = end
                    if conn[0] == "thru":
                        if side == 0:
                            bottom_ends.append((conn[1], other))
                        else:
                            top_ends.append((conn[1], other))
        if self.loops:
            factor = factor * params.delta ** self.loops
        return factor, new_hlines, bottom_ends, top_ends


def _thru_sites(pattern: str) -> list[int]:
    return [i for i, ch in enumerate(pattern) if ch == "|"]


def compose(a: FullDiagram, b: FullDiagram, params: DerivedParams,
            quotient_b=None) -> FullDiagram:
    """The product a·b: a is placed below b and the interface is reduced.

    With ``quotient_b`` set, pairs of horizontal lines are removed with a
    factor b each until at most one remains.
    """
    if a.n_sites != b.n_sites:
        raise InvalidDiagramError("cannot compose diagrams of different widths")
    glue = _Glue(a.top, b.bottom)
    a_bot = _strand_map(a.bottom)
    base_left = sum(1 for s in a_bot if s[0] == "left") + a.hlines
    base_right = sum(1 for s in a_bot if s[0] == "right") + a.hlines
    factor, born, bottom_ends, top_ends = glue.resolve(params, base_left, base_right)

    new_bottom = _rewrite_edge(a.bottom, bottom_ends, far_is_top=True)
    new_top = _rewrite_edge(b.top, top_ends, far_is_top=False)
    hlines = a.hlines + b.hlines + born
    coeff = a.coeff * b.coeff * factor
    if quotient_b is not None:
        while hlines >= 2:
            hlines -= 2
            coeff = coeff * quotient_b
    return FullDiagram(new_bottom, new_top, hlines, coeff)


def _rewrite_edge(pattern: str, ends: list[tuple[int, tuple]],
                  far_is_top: bool) -> str:
    """Reassign the through-line sites of an outer edge after gluing."""
    sites = _thru_sites(pattern)
    chars = list(pattern)
    surviving = "thru"
    # group the ends of components that link two through lines of this edge
    pair_partner: dict[int, int] = {}
    for k, other in ends:
        side, conn, site = other
        if conn[0] == surviving and ((side == 1) == far_is_top):
            continue  # still a through line
        if conn[0] == "left":
            chars[sites[k]] = ")"
        elif conn[0] == "right":
            chars[sites[k]] = "("
        elif conn[0] == surviving:
            # both ends are through lines of this same edge: a new arc
            pair_partner[k] = conn[1]
    done = set()
    for k, k2 in pair_partner.items():
        if k in done or k2 in done:
            continue
        lo, hi = sorted((sites[k], sites[k2]))
        chars[lo], chars[hi] = "(", ")"
        done.update((k, k2))
    return "".join(chars)


def transpose(d: FullDiagram) -> FullDiagram:
    """Reflection about the horizontal axis; an involutive antihomomorphism."""
    return FullDiagram(d.top, d.bottom, d.hlines, d.coeff)


# ---------------------------------------------------------------------------
# linear combinations


class AlgebraElement:
    """Finite linear combination of reduced diagrams, keyed by shape."""

    __slots__ = ("n_sites", "terms")

    def __init__(self, n_sites: int, terms=None):
        self.n_sites = n_sites
        self.terms: dict[tuple, object] = {}
        for shape, c in (terms or {}).items():
            if c:
                self.terms[shape] = c

    @staticmethod
    def from_diagram(d: FullDiagram) -> AlgebraElement:
        return AlgebraElement(d.n_sites, {d.shape: d.coeff})

    @staticmethod
    def one(n_sites: int) -> AlgebraElement:
        return AlgebraElement.from_diagram(identity_diagram(n_sites))

    def diagrams(self):
        for (bottom, top, hlines), c in sorted(self.terms.items()):
            yield FullDiagram(bottom, top, hlines, c)

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        out = dict(self.terms)
        for shape, c in other.terms.items():
            out[shape] = out.get(shape, 0) + c
        return AlgebraElement(self.n_sites, out)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.n_sites,
                              {s: -c for s, c in self.terms.items()})

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def scaled(self, c) -> AlgebraElement:
        return AlgebraElement(self.n_sites,
                              {s: c * x for s, x in self.terms.items()})

    def mul(self, other: AlgebraElement, params: DerivedParams,
            quotient_b=None) -> AlgebraElement:
        out = AlgebraElement(self.n_sites)
        for d1 in self.diagrams():
            for d2 in other.diagrams():
                prod = compose(d1, d2, params, quotient_b)
                out = out + AlgebraElement.from_diagram(prod)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        shapes = set(self.terms) | set(other.terms)
        return all(self.terms.get(s, 0) == other.terms.get(s, 0) for s in shapes)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        bits = [f"{c!r}*{shape}" for shape, c in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


@dataclass(frozen=True)
class Word:
    """A product of generator indices, applied left to right."""

    letters: tuple[int, ...]
    n_sites: int

    def __post_init__(self):
        for i in self.letters:
            if not 0 <= i <= self.n_sites:
                raise IndexError(f"letter {i} out of range 0..{self.n_sites}")


def word_to_element(word: Word, params: DerivedParams,
                    quotient_b=None) -> AlgebraElement:
    """Evaluate a generator word to its single reduced diagram."""
    acc = identity_diagram(word.n_sites)
    for i in word.letters:
        acc = compose(acc, generator_diagram(i, word.n_sites), params, quotient_b)
    return AlgebraElement.from_diagram(acc)


# ---------------------------------------------------------------------------
# action on half-diagrams


def act_on_half(d: FullDiagram, x: HalfDiagram, params: DerivedParams,
                quotient_b=None):
    """Left action of the diagram ``d`` on a module basis vector, by
    ``compose`` with the diagram that has x as both halves.

    Returns ``(scalar, HalfDiagram)``; a zero scalar (with None) signals
    annihilation, which for through-line modules is the cellular quotient by
    diagrams with fewer through lines: a through line of x that does not
    survive changes the top half.  Half-diagrams without through lines
    carry their derived horizontal line, on each half, so ``quotient_b`` is
    mandatory there; each further pair of horizontal lines is traded for it.
    """
    if x.n_through == 0 and quotient_b is None:
        raise ValueError("the no-through-line module needs the quotient scalar")
    out = compose(d, FullDiagram(x.pattern, x.pattern, 2 * x.hline), params)
    if out.top != x.pattern:
        return params.point.zero, None
    result = HalfDiagram(out.bottom)
    pairs = (out.hlines - x.hline - result.hline) // 2
    return (out.coeff * quotient_b ** pairs if pairs else out.coeff), result


__all__ = [
    "AlgebraElement", "FullDiagram", "HalfDiagram", "InvalidDiagramError",
    "Word", "act_on_half", "compose", "generator_diagram", "identity_diagram",
    "pattern_sort_key", "transpose", "word_to_element",
]
