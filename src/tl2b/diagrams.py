"""Planar diagram calculus for the chain algebra with two boundary generators.

Half-diagrams are parenthesis strings over ')', '(', '|': a matched pair is
an arc between two sites, an unmatched ')' runs to the left wall, an
unmatched '(' to the right wall, and '|' is a through line.  A full diagram
is a bottom half, a top half and a count of horizontal wall-to-wall lines.

Composition stacks one diagram below another and counts what closes up in
the product's ``weight``, its exponents of (delta, s1, s2):

* closed loops                      -> delta
* even wall-to-wall arcs            -> nothing
* odd arcs at the left wall         -> s1
* odd arcs at the right wall        -> s2
* left-to-right wall strands        -> kept as horizontal lines

No scalar is formed here: ``wordrep.ModuleSpec.weigh`` evaluates weights.

An arc's parity is the parity of the number of wall endpoints strictly below
its lowest point.  ``compose`` traces each strand of the interface once, from
one free end to the other, and reads its fate off its two ends.  Planarity
forces the vertical order of the ends on each wall: on the left wall the
lower diagram's bottom-half ends sit under its own horizontal lines, which
sit under the interface ends (the lower side's in descending site order,
then the upper side's in ascending site order); the right wall mirrors this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache


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


@dataclass(frozen=True)
class HalfDiagram:
    """An immutable half-diagram; the horizontal-line flag is derived.

    >>> HalfDiagram(")()((").n_through
    0
    >>> str(HalfDiagram(")("))
    ')(*'
    """

    pattern: str

    def __post_init__(self):
        _strand_map(self.pattern)

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

    @cached_property
    def doubled(self) -> FullDiagram:
        """x on both halves, its horizontal line (if any) on each side."""
        return FullDiagram(self.pattern, self.pattern, 2 * self.hline)

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
    """Reduced diagram: halves, horizontal lines, (delta, s1, s2) exponents."""

    bottom: str
    top: str
    hlines: int = 0
    weight: tuple[int, int, int] = field(default=(0, 0, 0), compare=False)

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


def identity_diagram(n_sites: int) -> FullDiagram:
    return FullDiagram("|" * n_sites, "|" * n_sites)


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
    return FullDiagram(pat, pat)


def compose(a: FullDiagram, b: FullDiagram) -> FullDiagram:
    """The product a·b: a is placed below b and the interface is reduced.

    Each strand of the interface is followed from one free end to the other
    and classified by its two ends.  A free end is a through line of ``a``
    (side 0, ending on the new bottom edge), a through line of ``b`` (side
    1, ending on the new top edge) or a wall:

    * two through lines of the same edge     -> a new arc on that edge
    * a through line and a wall              -> the site becomes ')' or '('
    * through lines of both edges            -> the through line stays
    * the same wall at both ends             -> s1 or s2 if the arc is odd
    * the left and the right wall            -> one more horizontal line

    Interface sites that no strand reaches lie on closed loops, each worth
    delta.  The product's weight is ``a.weight + b.weight`` plus these
    counts, and its horizontal lines are all of a's, b's and the new ones.
    """
    if a.n_sites != b.n_sites:
        raise InvalidDiagramError("cannot compose diagrams of different widths")
    n = a.n_sites
    halves = (_strand_map(a.top), _strand_map(b.bottom))
    edges = (list(a.bottom), list(b.top))
    thru = [[i for i, ch in enumerate(edge) if ch == "|"] for edge in edges]
    # the vertical slot of each wall end, counted from the bottom of the
    # wall: under the interface lie a's bottom-half ends and its own lines
    a_bottom = _strand_map(a.bottom)
    slot = {}
    for wall, step in (("left", -1), ("right", 1)):
        ends = [(0, i) for i in range(n)[::step] if halves[0][i] == (wall,)]
        ends += [(1, i) for i in range(n)[::-step] if halves[1][i] == (wall,)]
        below = a.hlines + sum(1 for s in a_bottom if s == (wall,))
        slot.update((end, below + k) for k, end in enumerate(ends))
    seen = [[False] * n, [False] * n]

    def walk(side: int, i: int):
        """Cross the interface at site i into ``side`` and follow arcs to a
        free end ``(side, site, connector)``; None on a closed loop."""
        while not seen[side][i]:
            seen[side][i] = True
            c = halves[side][i]
            if c[0] != "pair":
                return side, i, c
            seen[side][c[1]] = True
            side, i = 1 - side, c[1]
        return None

    weight, born = [x + y for x, y in zip(a.weight, b.weight)], 0
    for side in (0, 1):
        for i, c in enumerate(halves[side]):
            if c[0] == "pair" or seen[side][i]:
                continue
            seen[side][i] = True
            ends = [(side, i, c), walk(1 - side, i)]
            if c[0] != "thru":
                ends.reverse()  # a through-line end, if any, comes first
            (s, i1, c1), (t, i2, c2) = ends
            if c2[0] == "thru":
                if s == t:
                    lo, hi = sorted((thru[s][c1[1]], thru[s][c2[1]]))
                    edges[s][lo], edges[s][hi] = "(", ")"
            elif c1[0] == "thru":
                edges[s][thru[s][c1[1]]] = ")" if c2 == ("left",) else "("
            elif c1 != c2:
                born += 1
            elif min(slot[s, i1], slot[t, i2]) % 2:
                weight[1 if c1 == ("left",) else 2] += 1
    for i in range(n):
        if not seen[0][i]:
            walk(0, i)
            weight[0] += 1
    return FullDiagram("".join(edges[0]), "".join(edges[1]),
                       a.hlines + b.hlines + born, tuple(weight))


def transpose(d: FullDiagram) -> FullDiagram:
    """Reflection about the horizontal axis; an involutive antihomomorphism."""
    return FullDiagram(d.top, d.bottom, d.hlines, d.weight)


def word_to_element(letters, n_sites: int) -> FullDiagram:
    """The reduced diagram of a generator word, letters applied left to right."""
    acc = identity_diagram(n_sites)
    for i in letters:
        acc = compose(acc, generator_diagram(i, n_sites))
    return acc


# ---------------------------------------------------------------------------
# action on half-diagrams


def act_on_half(d: FullDiagram, x: HalfDiagram):
    """Left action of the diagram ``d`` on a module basis vector: the
    product ``compose(d, x.doubled)``.

    Returns None on annihilation (for through-line modules, the cellular
    quotient by diagrams with fewer through lines: a through line of x that
    does not survive changes the top half), else ``(weight, pairs, image)``.
    The horizontal lines beyond x's and the image's own make ``pairs``,
    each b.  With ``d = y.doubled`` this is the Gram form <y, x>.
    """
    out = compose(d, x.doubled)
    if out.top != x.pattern:
        return None
    result = HalfDiagram(out.bottom)
    return out.weight, (out.hlines - x.hline - result.hline) // 2, result


__all__ = [
    "FullDiagram", "HalfDiagram", "InvalidDiagramError", "act_on_half",
    "compose", "generator_diagram", "identity_diagram", "transpose",
    "word_to_element",
]
