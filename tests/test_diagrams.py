from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tl2b.diagrams import (FullDiagram, HalfDiagram, InvalidDiagramError,
                           act_on_half, compose, generator_diagram,
                           identity_diagram, transpose, word_to_element)
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
    one = word_to_element((), n, params)
    assert one.shape == identity_diagram(n).shape and one.coeff == 1
    doubled = word_to_element((0, 0), n, params)
    assert doubled.shape == generator_diagram(0, n).shape
    assert doubled.coeff == params.s1
    x = word_to_element((1, 0, 1), n, params)
    assert x.shape == generator_diagram(1, n).shape and x.coeff == 1
    with pytest.raises(IndexError):
        word_to_element((1, 3), n, params)


def test_horizontal_line_growth(params):
    # the length-six word alternating both boundaries cannot be reduced
    assert word_to_element((1, 0, 2, 1, 0, 2), 2, params).hlines == 3
    b = params.b_for(2)
    quotiented = word_to_element((1, 0, 2, 1, 0, 2), 2, params, b)
    single = word_to_element((1, 0, 2), 2, params, b)
    assert quotiented.shape == single.shape
    assert quotiented.coeff == single.coeff * b


def test_transpose_involution_and_antihomomorphism(params):
    d = word_to_element((1, 0), 3, params)
    assert transpose(transpose(d)).shape == d.shape
    t = word_to_element((0, 1), 3, params)
    assert transpose(d).shape == t.shape and transpose(d).coeff == t.coeff


@given(data=st.data(), n=st.integers(2, 5), quotient=st.booleans())
@settings(max_examples=100, deadline=None)
def test_transpose_is_an_antihomomorphism(data, n, quotient):
    # flipping reverses products, coefficients included, so the wall slots
    # of the upper side mirror those of the lower side on both walls
    params = derive_params(make_param_point(1))
    b = params.b_for(n) if quotient else None
    word = st.lists(st.integers(0, n), max_size=6)
    w1, w2 = data.draw(word), data.draw(word)
    x, y = (word_to_element(w, n, params, b) for w in (w1, w2))
    flipped = transpose(compose(x, y, params, b))
    reversed_ = compose(transpose(y), transpose(x), params, b)
    assert flipped.shape == reversed_.shape
    assert flipped.coeff == reversed_.coeff
    mirrored = word_to_element(w1[::-1], n, params, b)
    assert transpose(x).shape == mirrored.shape
    assert transpose(x).coeff == mirrored.coeff


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
        diagram = word_to_element(word, 3, params)
        assert diagram.shape == shape and diagram.coeff, (word, diagram)


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
    a, b, c = (word_to_element(w, n, params) for w in (w1, w2, w3))
    left = compose(compose(a, b, params), c, params)
    right = compose(a, compose(b, c, params), params)
    assert left.shape == right.shape and left.coeff == right.coeff


@given(w=st.lists(st.integers(0, 3), min_size=0, max_size=8))
@settings(max_examples=60, deadline=None)
def test_hline_parity_invariant(w):
    params = derive_params(make_param_point(1))
    d = word_to_element(w, 3, params)
    mismatch = (HalfDiagram(d.bottom).n_right + HalfDiagram(d.top).n_right) % 2
    assert d.hlines % 2 == mismatch


def test_quotient_identities_as_elements(params):
    # both sandwich identities hold at the level of diagrams, for chains up
    # to length eight
    from tl2b.wordrep import idempotent_words

    for n in range(2, 9):
        b = params.b_for(n)
        w1, w2 = idempotent_words(n)
        i1 = word_to_element(w1, n, params, b)
        i2 = word_to_element(w2, n, params, b)
        for x, y in ((i1, i2), (i2, i1)):
            xyx = compose(compose(x, y, params, b), x, params, b)
            assert xyx.shape == x.shape and xyx.coeff == x.coeff * b


def test_full_diagram_validation():
    with pytest.raises(InvalidDiagramError):
        FullDiagram("||", "()", 0)  # through-line mismatch
    with pytest.raises(InvalidDiagramError):
        FullDiagram("||", "||", 1)  # lines cannot cross through lines
    with pytest.raises(InvalidDiagramError):
        FullDiagram(")(", ")(", 1)  # parity of horizontal lines
    assert identity_diagram(3).shape == ("|||", "|||", 0)


def test_full_diagram_json(params):
    d = word_to_element((1, 0, 2), 2, params, params.b_for(2))
    data = d.to_json()
    assert data["bottom"] == "()" and data["hlines"] == 1
    assert set(data) == {"bottom", "top", "hlines", "coeff"}
