from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tl2b.diagrams import (AlgebraElement, FullDiagram, HalfDiagram,
                           InvalidDiagramError, Word, act_on_half, compose,
                           generator_diagram, identity_diagram, transpose,
                           word_to_element)
from tl2b.scalars import derive_params, make_param_point


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


def test_defining_products(params):
    e0 = generator_diagram(0, 3)
    sq = compose(e0, e0, params)
    assert sq.shape == e0.shape and sq.coeff == params.s1
    e1 = generator_diagram(1, 3)
    sq = compose(e1, e1, params)
    assert sq.shape == e1.shape and sq.coeff == params.delta
    e3 = generator_diagram(3, 3)
    sq = compose(e3, e3, params)
    assert sq.shape == e3.shape and sq.coeff == params.s2


def test_word_examples(params):
    n = 2
    assert word_to_element(Word((), n), params) == AlgebraElement.one(n)
    doubled = word_to_element(Word((0, 0), n), params)
    e0 = AlgebraElement.from_diagram(generator_diagram(0, n))
    assert doubled == e0.scaled(params.s1)
    assert word_to_element(Word((1, 0, 1), n), params) == \
        AlgebraElement.from_diagram(generator_diagram(1, n))


def test_horizontal_line_growth(params):
    # the length-six word alternating both boundaries cannot be reduced
    x = word_to_element(Word((1, 0, 2, 1, 0, 2), 2), params)
    [diagram] = list(x.diagrams())
    assert diagram.hlines == 3
    b = params.b_for(2)
    quotiented = word_to_element(Word((1, 0, 2, 1, 0, 2), 2), params, b)
    single = word_to_element(Word((1, 0, 2), 2), params, b)
    assert quotiented == single.scaled(b)


def test_transpose_involution_and_antihomomorphism(params):
    d = list(word_to_element(Word((1, 0), 3), params).diagrams())[0]
    assert transpose(transpose(d)).shape == d.shape
    t = list(word_to_element(Word((0, 1), 3), params).diagrams())[0]
    assert transpose(d).shape == t.shape


def test_half_diagram_decomposition_table(params):
    # products of generators land on the expected rank-one shapes
    cases = {
        (0, 1): ("))|", "()|", 0),
        (0, 3): (")|(", ")|(", 0),
        (3, 2, 1, 0): ("|((", "))|", 0),
        (0, 2): (")()", ")()", 0),
        (1, 3, 0, 2): ("()(", ")()", 1),
    }
    for word, shape in cases.items():
        [diagram] = list(word_to_element(Word(word, 3), params).diagrams())
        assert diagram.shape == shape, (word, diagram.shape)


def test_act_on_half_examples(params):
    scalar, image = act_on_half(generator_diagram(1, 3), HalfDiagram("))|"),
                                params)
    assert scalar == 1 and image.pattern == "()|"
    scalar, image = act_on_half(generator_diagram(0, 3), HalfDiagram("))|"),
                                params)
    assert scalar == params.s1 and image.pattern == "))|"
    scalar, image = act_on_half(generator_diagram(2, 3), HalfDiagram("|||"),
                                params)
    assert image is None and not scalar


def test_act_on_half_needs_quotient_for_capped_module(params):
    with pytest.raises(ValueError):
        act_on_half(generator_diagram(1, 2), HalfDiagram(")("), params)


words = st.lists(st.integers(0, 4), min_size=1, max_size=5)


@given(w1=words, w2=words, w3=words)
@settings(max_examples=60, deadline=None)
def test_compose_associative(w1, w2, w3):
    params = derive_params(make_param_point(1))
    n = 4
    a, b, c = (list(word_to_element(Word(tuple(w), n), params).diagrams())[0]
               for w in (w1, w2, w3))
    left = compose(compose(a, b, params), c, params)
    right = compose(a, compose(b, c, params), params)
    assert left.shape == right.shape and left.coeff == right.coeff


@given(w=st.lists(st.integers(0, 3), min_size=0, max_size=8))
@settings(max_examples=60, deadline=None)
def test_hline_parity_invariant(w):
    params = derive_params(make_param_point(1))
    [d] = list(word_to_element(Word(tuple(w), 3), params).diagrams())
    mismatch = (HalfDiagram(d.bottom).n_right + HalfDiagram(d.top).n_right) % 2
    assert d.hlines % 2 == mismatch


def test_quotient_identities_as_elements(params):
    # both sandwich identities hold at the level of linear combinations of
    # diagrams, for chains up to length eight
    from tl2b.wordrep import idempotent_words

    for n in range(2, 9):
        b = params.b_for(n)
        w1, w2 = idempotent_words(n)
        i1 = word_to_element(Word(w1, n), params, b)
        i2 = word_to_element(Word(w2, n), params, b)
        assert i1.mul(i2, params, b).mul(i1, params, b) == i1.scaled(b)
        assert i2.mul(i1, params, b).mul(i2, params, b) == i2.scaled(b)


def test_full_diagram_validation():
    with pytest.raises(InvalidDiagramError):
        FullDiagram("||", "()", 0)  # through-line mismatch
    with pytest.raises(InvalidDiagramError):
        FullDiagram("||", "||", 1)  # lines cannot cross through lines
    with pytest.raises(InvalidDiagramError):
        FullDiagram(")(", ")(", 1)  # parity of horizontal lines
    assert identity_diagram(3).shape == ("|||", "|||", 0)


def test_full_diagram_json(params):
    [d] = list(word_to_element(Word((1, 0, 2), 2), params, params.b_for(2)).diagrams())
    data = d.to_json()
    assert data["bottom"] == "()" and data["hlines"] == 1
    assert set(data) == {"bottom", "top", "hlines", "coeff"}
