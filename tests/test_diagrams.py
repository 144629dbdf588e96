from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tl2b.diagrams import (FullDiagram, HalfDiagram, InvalidDiagramError,
                           act_on_half, compose, generator_diagram,
                           identity_diagram, transpose, word_to_element)


def test_half_diagram_derived_data():
    h = HalfDiagram(")()((")
    assert (h.n_left, h.n_right, h.n_through) == (1, 2, 0)
    assert h.hline is False
    assert HalfDiagram(")(").hline is True
    assert str(HalfDiagram(")(")) == ")(*"
    assert HalfDiagram.from_string(")(*").pattern == ")("


def test_half_diagram_parser_rejects_wrong_flag():
    with pytest.raises(InvalidDiagramError):
        HalfDiagram.from_string(")(")  # flag is derived and must be starred
    with pytest.raises(InvalidDiagramError):
        HalfDiagram.from_string("()*")


@pytest.mark.parametrize("bad", ["(|)", "|)", "(()|", "|)("])
def test_invalid_patterns_rejected(bad):
    with pytest.raises(InvalidDiagramError):
        HalfDiagram(bad)


def test_parities():
    assert HalfDiagram(")|").eps1 == -1
    assert HalfDiagram(")|").eps2 == 1
    assert HalfDiagram("|(").eps2 == -1


def test_generator_shapes():
    e0 = generator_diagram(0, 2)
    assert e0.bottom == e0.top == ")|"
    e1 = generator_diagram(1, 2)
    assert e1.bottom == e1.top == "()"
    e2 = generator_diagram(2, 2)
    assert e2.bottom == e2.top == "|("
    with pytest.raises(IndexError):
        generator_diagram(3, 2)


def test_generators_are_transpose_symmetric():
    for n in (2, 3, 4):
        for i in range(n + 1):
            d = generator_diagram(i, n)
            assert transpose(d).shape == d.shape


def test_defining_products():
    e0 = generator_diagram(0, 3)
    sq = compose(e0, e0)
    assert sq.shape == e0.shape and sq.weight == (0, 1, 0)
    e1 = generator_diagram(1, 3)
    sq = compose(e1, e1)
    assert sq.shape == e1.shape and sq.weight == (1, 0, 0)
    e3 = generator_diagram(3, 3)
    sq = compose(e3, e3)
    assert sq.shape == e3.shape and sq.weight == (0, 0, 1)


def test_word_examples():
    n = 2
    one = word_to_element((), n)
    assert one.shape == identity_diagram(n).shape and one.weight == (0, 0, 0)
    doubled = word_to_element((0, 0), n)
    assert doubled.shape == generator_diagram(0, n).shape
    assert doubled.weight == (0, 1, 0)
    x = word_to_element((1, 0, 1), n)
    assert x.shape == generator_diagram(1, n).shape
    assert x.weight == (0, 0, 0)
    with pytest.raises(IndexError):
        word_to_element((1, 3), n)


def test_horizontal_line_growth():
    # the length-six word alternating both boundaries cannot be reduced:
    # it is the length-three word with one more pair of horizontal lines
    repeated = word_to_element((1, 0, 2, 1, 0, 2), 2)
    single = word_to_element((1, 0, 2), 2)
    assert repeated.hlines == 3 and single.hlines == 1
    assert (repeated.bottom, repeated.top) == (single.bottom, single.top)
    assert repeated.weight == single.weight == (0, 0, 0)


def test_transpose_involution_and_antihomomorphism():
    d = word_to_element((1, 0), 3)
    assert transpose(transpose(d)).shape == d.shape
    t = word_to_element((0, 1), 3)
    assert transpose(d).shape == t.shape and transpose(d).weight == t.weight


@given(data=st.data(), n=st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_transpose_is_an_antihomomorphism(data, n):
    # flipping reverses products, weights included, so the wall slots of
    # the upper side mirror those of the lower side on both walls
    word = st.lists(st.integers(0, n), max_size=6)
    w1, w2 = data.draw(word), data.draw(word)
    x, y = (word_to_element(w, n) for w in (w1, w2))
    flipped = transpose(compose(x, y))
    reversed_ = compose(transpose(y), transpose(x))
    assert flipped.shape == reversed_.shape
    assert flipped.weight == reversed_.weight
    mirrored = word_to_element(w1[::-1], n)
    assert transpose(x).shape == mirrored.shape
    assert transpose(x).weight == mirrored.weight


def test_half_diagram_decomposition_table():
    # products of generators land on the expected rank-one shapes, with no
    # loop and no odd wall arc closed
    cases = {
        (0, 1): ("))|", "()|", 0),
        (0, 3): (")|(", ")|(", 0),
        (3, 2, 1, 0): ("|((", "))|", 0),
        (0, 2): (")()", ")()", 0),
        (1, 3, 0, 2): ("()(", ")()", 1),
    }
    for word, shape in cases.items():
        diagram = word_to_element(word, 3)
        assert diagram.shape == shape, (word, diagram)
        assert diagram.weight == (0, 0, 0), (word, diagram)


def test_act_on_half_examples():
    assert act_on_half(generator_diagram(1, 3), HalfDiagram("))|")) == (
        (0, 0, 0), 0, HalfDiagram("()|"))
    assert act_on_half(generator_diagram(0, 3), HalfDiagram("))|")) == (
        (0, 1, 0), 0, HalfDiagram("))|"))
    assert act_on_half(generator_diagram(2, 3), HalfDiagram("|||")) is None
    # e_1 on the capped ')(*' closes a wall-to-wall line: b times '()'
    assert act_on_half(generator_diagram(1, 2), HalfDiagram(")(")) == (
        (0, 0, 0), 1, HalfDiagram("()"))
    # the doubled diagram is built once per half-diagram, and the action
    # reads only the pattern
    for p in ("))|", "|||", ")(", "()(", ")|("):
        h = HalfDiagram(p)
        assert h.doubled is h.doubled
        assert h.doubled.shape == (p, p, 2 * h.hline)
        for i in range(len(p) + 1):
            d = generator_diagram(i, len(p))
            assert act_on_half(d, h) == act_on_half(d, HalfDiagram(p))


words = st.lists(st.integers(0, 4), min_size=1, max_size=5)


@given(w1=words, w2=words, w3=words)
@settings(max_examples=60, deadline=None)
def test_compose_associative(w1, w2, w3):
    n = 4
    a, b, c = (word_to_element(w, n) for w in (w1, w2, w3))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert left.shape == right.shape and left.weight == right.weight


@given(w=st.lists(st.integers(0, 3), min_size=0, max_size=8))
@settings(max_examples=60, deadline=None)
def test_hline_parity_invariant(w):
    d = word_to_element(w, 3)
    mismatch = (HalfDiagram(d.bottom).n_right + HalfDiagram(d.top).n_right) % 2
    assert d.hlines % 2 == mismatch


def test_quotient_identities_as_elements():
    # both sandwich identities I1*I2*I1 = b*I1 and I2*I1*I2 = b*I2 hold at
    # the level of diagrams, for chains up to length eight: x*y*x is x with
    # one more pair of horizontal lines and the same weight
    from tl2b.wordrep import idempotent_words

    for n in range(2, 9):
        w1, w2 = idempotent_words(n)
        i1, i2 = word_to_element(w1, n), word_to_element(w2, n)
        for x, y in ((i1, i2), (i2, i1)):
            xyx = compose(compose(x, y), x)
            assert (xyx.bottom, xyx.top) == (x.bottom, x.top)
            assert xyx.hlines == x.hlines + 2 and xyx.weight == x.weight


def test_full_diagram_validation():
    with pytest.raises(InvalidDiagramError):
        FullDiagram("||", "()", 0)  # through-line mismatch
    with pytest.raises(InvalidDiagramError):
        FullDiagram("||", "||", 1)  # lines cannot cross through lines
    with pytest.raises(InvalidDiagramError):
        FullDiagram(")(", ")(", 1)  # parity of horizontal lines
    assert identity_diagram(3).shape == ("|||", "|||", 0)
