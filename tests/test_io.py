import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankchi import Coloring, Decomposition, JoinEdge, JoinTree, ParseError, cycle, path_graph
from rankchi.generate import random_decomposition, random_graph, random_join_tree
from rankchi.io import (
    coloring_from_text,
    coloring_to_text,
    decomposition_from_text,
    decomposition_to_text,
    graph_from_text,
    graph_to_text,
    join_tree_from_text,
    join_tree_to_text,
)


class TestGraphFormat:
    def test_roundtrip(self):
        rng = random.Random(0)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 10))
            assert graph_from_text(graph_to_text(g)) == g

    def test_comments_and_whitespace(self):
        text = "# a triangle\np 3 3\n\ne 0 1\ne 1 2\n e 0 2 \n"
        assert graph_from_text(text).num_edges == 3

    def test_bad_header(self):
        with pytest.raises(ParseError):
            graph_from_text("e 0 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            graph_from_text("p 3 2\ne 0 1\n")

    def test_invalid_edge(self):
        with pytest.raises(ParseError):
            graph_from_text("p 2 1\ne 0 5\n")


class TestDecompositionFormat:
    def test_roundtrip(self):
        rng = random.Random(1)
        for _ in range(30):
            g = random_graph(rng, rng.randint(1, 8))
            d = random_decomposition(rng, g)
            assert decomposition_from_text(decomposition_to_text(d), g.n) == d

    def test_root_roundtrip(self):
        d = Decomposition(2, ((0, 1),), (0,), root=1)
        assert decomposition_from_text(decomposition_to_text(d), 1) == d

    def test_missing_mapping(self):
        with pytest.raises(ParseError):
            decomposition_from_text("d 1\nm 0 0\n", 2)

    def test_duplicate_mapping(self):
        with pytest.raises(ParseError):
            decomposition_from_text("d 1\nm 0 0\nm 0 0\n", 1)

    def test_duplicate_root(self):
        """Two 'r' lines are refused, not read as the last one; so are two equal ones."""
        for roots in ("r 0\nr 2\n", "r 2\nr 2\n"):
            with pytest.raises(ParseError, match="^root given twice$"):
                decomposition_from_text("d 3\nt 0 1\nt 1 2\nm 0 1\n" + roots, 1)


class TestColoringFormat:
    def test_roundtrip(self):
        c = Coloring((3, 1, 2))
        assert coloring_from_text(coloring_to_text(c), 3) == c

    def test_incomplete(self):
        with pytest.raises(ParseError):
            coloring_from_text("c 0 1\n", 2)

    def test_bad_color(self):
        with pytest.raises(ParseError):
            coloring_from_text("c 0 0\n", 1)


class TestJoinTreeFormat:
    def test_roundtrip(self):
        rng = random.Random(2)
        for _ in range(20):
            jt = random_join_tree(rng, rng.randint(1, 5))
            assert join_tree_from_text(join_tree_to_text(jt)) == jt

    def test_explicit_example(self):
        jt = JoinTree(
            (path_graph(3), cycle(3)),
            (JoinEdge(0, 1, 1, 0),),
        )
        text = join_tree_to_text(jt)
        assert text.startswith("j 2\n")
        assert join_tree_from_text(text) == jt

    def test_bad_header(self):
        with pytest.raises(ParseError):
            join_tree_from_text("p 2 0\n")

    def test_bad_join_line(self):
        with pytest.raises(ParseError):
            join_tree_from_text("j 1\np 1 0\nJ 0 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("j 1\np 2 2\ne 0 1\n", "header promises 2 edges, file has 1"),
            ("j 1\np 2 -1\n", "header promises -1 edges, file has 0"),
            # a negative count slices from the end of the file, as it always has
            ("j 1\np 2 -4\ne 0 1\ne 0 1\ne 0 1\n", "header promises -4 edges, file has 1"),
            ("j 2\np 2 3\ne 0 1\nJ 0 1 0 0\n", "expected 'e <u> <v>', got 'J 0 1 0 0'"),
        ],
    )
    def test_piece_edge_count_mismatch(self, text, message):
        with pytest.raises(ParseError) as info:
            join_tree_from_text(text)
        assert str(info.value) == message


# Fuzz texts are lines of a format keyword and a few small integers, or a valid
# file of the parser's format with one or two fields replaced.  Every integer stays
# small, so that no header sizes a costly allocation: refusing huge headers
# before they allocate is a separate ceiling.
_field = st.one_of(
    st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "9", "x"]),
    st.integers(-1000, 1000).map(str),
)
_line = st.builds(
    lambda keyword, fields: " ".join([keyword, *fields]),
    st.sampled_from(["p", "e", "d", "t", "m", "r", "c", "j", "J", "#", "x"]),
    st.lists(_field, max_size=5),
)
_rng = random.Random(9)
_g = random_graph(_rng, 5)
_FORMATS = {  # each parser on five vertices, with a valid file of its format
    "graph": (graph_from_text, graph_to_text(_g)),
    "join_tree": (join_tree_from_text, join_tree_to_text(random_join_tree(_rng, 3))),
    "decomposition": (
        lambda text: decomposition_from_text(text, 5),
        decomposition_to_text(random_decomposition(_rng, _g, 4)),
    ),
    "coloring": (
        lambda text: coloring_from_text(text, 5),
        coloring_to_text(Coloring((1, 2, 1, 3, 2))),
    ),
}


@st.composite
def _texts(draw, valid):
    if draw(st.integers(0, 3)) == 3:
        return "\n".join(draw(st.lists(_line, max_size=12)))
    lines = [line.split() for line in valid.splitlines()]
    for _ in range(draw(st.integers(1, 2))):
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(1, len(line) - 1))] = draw(_field)  # every line has a field
    return "\n".join(" ".join(line) for line in lines)


@pytest.mark.parametrize("fmt", sorted(_FORMATS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_arbitrary_text_raises_only_parse_error(fmt, data):
    parse, valid = _FORMATS[fmt]
    with contextlib.suppress(ParseError):
        parse(data.draw(_texts(valid), label="text"))
