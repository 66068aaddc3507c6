import pytest

from gqdesigns.fileformats import (
    FormatError,
    parse_design,
    parse_incidence,
    parse_lrs,
    parse_ovoid,
    write_design,
    write_incidence,
    write_lrs,
    write_ovoid,
)
from gqdesigns.sprott import sprott_lrs
from gqdesigns.structures import IncidenceStructure

from conftest import fano_design, grid_3x3


# ---------------------------------------------------------
# Round trips
# ---------------------------------------------------------

def test_incidence_round_trip(w2):
    text = write_incidence(w2)
    assert parse_incidence(text) == w2
    assert write_incidence(parse_incidence(text)) == text
    assert text.startswith("inc 15 15\n")
    assert text.endswith("\n") and "\r" not in text


def test_design_and_lrs_round_trip(sprott4):
    d, system = sprott4
    dtext = write_design(d)
    ltext = write_lrs(system)
    assert parse_design(dtext) == d
    assert parse_lrs(ltext) == system
    assert write_design(parse_design(dtext)) == dtext
    assert write_lrs(parse_lrs(ltext)) == ltext


def test_ovoid_round_trip(w2_ovoids):
    for o in w2_ovoids:
        text = write_ovoid(o)
        assert parse_ovoid(text) == o
        assert write_ovoid(parse_ovoid(text)) == text


def test_write_ovoid_refuses_what_parse_ovoid_refuses(w2_ovoids):
    for bad in ([True, 2], [2, 2], [-1], [1.5], ["3"]):
        with pytest.raises(ValueError):
            write_ovoid(bad)
    for o in w2_ovoids:
        assert parse_ovoid(write_ovoid(o)) == o
        assert parse_ovoid(write_ovoid(iter(sorted(o)))) == o


def test_writers_emit_sorted_indices():
    s = IncidenceStructure(4, [[3, 1], [2, 0]])
    assert write_incidence(s) == "inc 4 2\n1 3\n0 2\n"
    assert write_ovoid({3, 0}) == "ovoid 2\n0 3\n"


def test_comments_and_blank_lines_ignored():
    text = "# a structure\n\ninc 3 1\n  # indented note\n0 1 2\n\n"
    s = parse_incidence(text)
    assert s.lines == ((0, 1, 2),)
    o = parse_ovoid("ovoid 2\n# note\n0 2\n")
    assert o == frozenset({0, 2})


def test_lrs_sections_in_any_order(sprott4):
    d, system = sprott4
    lines = write_lrs(system).splitlines()
    header, body = lines[0], lines[1:]
    # split into point sections and reverse their order
    sections, current = [], []
    for row in body:
        if row.startswith("point"):
            if current:
                sections.append(current)
            current = [row]
        else:
            current.append(row)
    sections.append(current)
    shuffled = "\n".join([header] + [r for sec in reversed(sections)
                                     for r in sec]) + "\n"
    assert parse_lrs(shuffled) == system


# ---------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------

def _expect_error(fn, text, line, fragment):
    with pytest.raises(FormatError) as exc:
        fn(text, "input")
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_incidence_errors():
    _expect_error(parse_incidence, "design 3 1\n0 1 2\n", 1, "expected keyword")
    _expect_error(parse_incidence, "inc 3 2\n0 1\n", 2, "unexpected end")
    _expect_error(parse_incidence, "inc 3 1\n0 1\n2\n", 3, "found more")
    _expect_error(parse_incidence, "inc 3 1\n0 7\n", 2, "outside 0..2")
    _expect_error(parse_incidence, "inc 3 1\n0 x\n", 2, "expected an integer")
    _expect_error(parse_incidence, "inc 3\n0 1\n", 1, "takes 2 integers")
    _expect_error(parse_incidence, "inc 3 1\n0 0\n", 2, "repeats")


def test_column_of_bad_token():
    with pytest.raises(FormatError) as exc:
        parse_incidence("inc 3 1\n0 12 zz\n", "f")
    assert exc.value.line == 2
    assert exc.value.column == 6


def test_design_errors():
    _expect_error(parse_design, "design 4 1\n0 9\n", 2, "outside")
    _expect_error(parse_design, "design 4 2\n0 1\n0 1 2\n", 3, "expected 2")


def test_row_errors_name_the_line_of_the_row():
    # comments and blank lines move a row off its index, so the index is no line
    _expect_error(parse_incidence, "inc 3 2\n0 1\n1 1\n", 3, "line repeats a point")
    _expect_error(parse_incidence, "# c\ninc 4 2\n\n0 1\n2 3 2\n", 5, "repeats")
    _expect_error(parse_design, "design 4 2\n0 1\n\n1 2 3\n", 4,
                  "block has size 3, expected 2")
    _expect_error(parse_design, "design 4 3\n0 1 2\n# c\n1 1 2\n", 4, "block repeats")


def test_ovoid_errors():
    _expect_error(parse_ovoid, "ovoid 2\n0 1 2\n", 2, "promises 2")
    _expect_error(parse_ovoid, "ovoid 2\n0 0\n", 2, "repeat")
    _expect_error(parse_ovoid, "ovoid 1\n0\n1\n", 3, "extra content")


def test_lrs_errors():
    _expect_error(parse_lrs, "lrs 2\nclass 0\n", 2, "before any 'point'")
    _expect_error(parse_lrs, "lrs 2\npoint 0\nclass 0\n", 1, "missing 'point'")
    _expect_error(parse_lrs, "lrs 2\npoint 0\npoint 0\n", 3, "duplicate")
    _expect_error(parse_lrs, "lrs 2\npoint 0\nclass\npoint 1\nclass 1\n",
                  3, "empty class")
    _expect_error(parse_lrs, "lrs 2\npoint 5\n", 2, "outside")
    _expect_error(parse_lrs, "lrs 2\nnoise here\n", 2, "expected 'point'")
