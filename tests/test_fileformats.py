import pytest

from gqdesigns.fileformats import (
    FormatError,
    parse_design,
    parse_incidence,
    parse_lrs,
    parse_ovoid,
    parse_structure,
    write_design,
    write_incidence,
    write_lrs,
    write_ovoid,
)
from gqdesigns.sprott import sprott_lrs
from gqdesigns.structures import Design, IncidenceStructure

from conftest import fano_design, grid_3x3
from test_structures import DESIGN_ROW_ERRORS


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
    with pytest.raises(ValueError, match=r"^ovoid point -1 is negative$"):
        write_ovoid([2, -1])
    with pytest.raises(ValueError, match=r"^ovoid point True is not an int$"):
        write_ovoid([True, 2])
    # the same points as file rows ("3" is no str once written)
    for row in ("True 2", "2 2", "-1", "1.5"):
        with pytest.raises(FormatError):
            parse_ovoid(f"ovoid {len(row.split())}\n{row}\n")
    with pytest.raises(FormatError, match=r"^x:3:4: ovoid point -1 is negative$"):
        parse_ovoid("ovoid 3\n# c\n2  -1 0\n", "x")
    for o in w2_ovoids:
        assert parse_ovoid(write_ovoid(o)) == o
        assert parse_ovoid(write_ovoid(iter(sorted(o)))) == o


def test_every_writer_parses_back(w2, w2_ovoids, sprott4):
    d, system = sprott4
    cases = [(write_incidence, parse_incidence, w2), (write_design, parse_design, d),
             (write_ovoid, parse_ovoid, w2_ovoids[0]), (write_lrs, parse_lrs, system),
             (write_incidence, parse_structure, w2), (write_design, parse_structure, d)]
    for write, parse, obj in cases:
        assert parse(write(obj)) == obj
        assert type(parse(write(obj))) is type(obj)
    # "ovoid 0" and an empty points line is no file parse_ovoid reads
    with pytest.raises(ValueError, match="at least one point"):
        write_ovoid([])
    with pytest.raises(FormatError, match="unexpected end of file"):
        parse_ovoid("ovoid 0\n\n")


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


@pytest.mark.parametrize("sep", ["\f", "\x85", "\u2028"])
def test_lines_end_at_line_feed_only(sep):
    # str.splitlines() would also break a line at each of these
    assert parse_ovoid(f"ovoid 3\n0 1{sep}2\n") == frozenset({0, 1, 2})
    text = f"# a{sep}0 1 2\ninc 3 1\n0{sep}1 2\n# b{sep}x\n"
    assert parse_incidence(text).lines == ((0, 1, 2),)
    # a later row's line number is the count of line feeds before it, plus 1
    _expect_error(parse_incidence, f"inc 3 2\n# c{sep}d\n0 1\n0{sep}1 1\n", 4,
                  "repeats")
    with pytest.raises(FormatError, match=r"^x:3:3: expected an integer, got 'z'$"):
        parse_ovoid(f"# c{sep}d\novoid 2\n0{sep}z\n", "x")

def test_parse_structure_reads_the_kind_its_header_names():
    s = parse_structure("# a structure\n\ninc 3 1\n  # note\n0 1 2\n", "x")
    assert type(s) is IncidenceStructure and s.lines == ((0, 1, 2),)
    d = parse_structure("\n# a design\ndesign 3 2\n0 1\n\n1 2\n", "x")
    assert type(d) is Design and d.lines == ((0, 1), (1, 2))


def test_parse_structure_errors_name_their_line():
    with pytest.raises(FormatError, match=r"^x:3:1: unrecognised header 'foo'$"):
        parse_structure("# c\n\nfoo 3 1\n0 1 2\n", "x")
    for text in ("", "# only a comment\n\n"):
        with pytest.raises(FormatError, match=r"^x:1:1: unexpected end of file"):
            parse_structure(text, "x")
    # the row error comes from parse_design, at the row's own line
    with pytest.raises(FormatError, match=r"^x:5:1: block 1 has size 3, expected 2$"):
        parse_structure("# c\ndesign 4 2\n0 1\n\n1 2 3\n", "x")


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
    _expect_error(parse_incidence, "inc -1 2\n", 1, "must be non-negative")


def test_column_of_bad_token():
    with pytest.raises(FormatError) as exc:
        parse_incidence("inc 3 1\n0 12 zz\n", "f")
    assert exc.value.line == 2
    assert exc.value.column == 6


def test_column_of_bad_token_after_a_keyword():
    # the column is the token's own, not that of the same letter in the keyword
    for text, column in (("lrs 1\npoint 0\nclass s\n", 7), ("lrs 1\npoint t\n", 7),
                         ("ovoid s\n", 7)):
        with pytest.raises(FormatError) as exc:
            (parse_ovoid if text.startswith("ovoid") else parse_lrs)(text, "f")
        assert exc.value.column == column, text


def test_design_errors():
    _expect_error(parse_design, "design 4 1\n0 9\n", 2, "outside")
    _expect_error(parse_design, "design 4 2\n0 1\n0 1 2\n", 3, "expected 2")


def test_row_errors_name_the_line_of_the_row():
    # comments and blank lines move a row off its index, so the index is no line
    _expect_error(parse_incidence, "inc 3 2\n0 1\n1 1\n", 3, "line 1 repeats a point")
    _expect_error(parse_incidence, "# c\ninc 4 2\n\n0 1\n2 3 2\n", 5, "repeats")
    _expect_error(parse_design, "design 4 2\n0 1\n\n1 2 3\n", 4,
                  "block 1 has size 3, expected 2")
    _expect_error(parse_design, "design 4 3\n0 1 2\n# c\n1 1 2\n", 4, "block 1 repeats")


def test_first_error_in_a_row_file_wins():
    # the header promises 3 rows; a rule broken by row 2 is reported before a
    # bad token in row 3, row 3 missing, or a 4th row
    for parse, word in ((parse_incidence, "inc"), (parse_design, "design")):
        for rest in ("0 x\n", "", "0 2\n1 2\n"):
            _expect_error(parse, f"{word} 3 3\n# c\n0 1\n1 1\n{rest}", 4, "1 repeats a point")
            _expect_error(parse, f"{word} 3 3\n0 1\n\n1 7\n{rest}", 4,
                          "1 references a point outside")
        _expect_error(parse, f"{word} 3 2\n0 x\n1 1\n", 2, "expected an integer")
    for rest in ("0 x\n", "", "0 2\n1 2\n"):
        _expect_error(parse_design, f"design 3 3\n0 1\n0 1 2\n{rest}", 3,
                      "block 1 has size 3, expected 2")
    # no points is a whole-file error, and the header comes first
    _expect_error(parse_design, "design 0 2\n0 1\n", 1, "need at least one point")


@pytest.mark.parametrize("blocks,message", DESIGN_ROW_ERRORS)
def test_constructor_row_errors_name_their_line(blocks, message):
    # each malformed block of test_design_messages_name_the_block as a file
    # row, after a comment line per row so that index and line differ
    bad = int(message.split()[1])
    text = f"design 5 {len(blocks)}\n" + "".join(
        f"# block {i}\n{' '.join(map(str, b))}\n" for i, b in enumerate(blocks))
    with pytest.raises(FormatError) as exc:
        parse_design(text, "x")
    line = 2 * bad + 3
    if not blocks[bad]:
        # a blank line is no row, so the file comes up one block short
        assert str(exc.value) == f"x:{line - 2}:1: unexpected end of file, " \
                                 "expected a block of point indices"
    elif "not an int" in message:
        # written out, the point is a token that is no integer
        assert str(exc.value).startswith(f"x:{line}:3: expected an integer")
    else:
        assert str(exc.value) == f"x:{line}:1: {message}"


def test_whole_file_errors_name_the_header_line():
    # what the constructors reject, and a missing lrs section, concern the
    # whole file, so they are reported where its header is
    with pytest.raises(FormatError, match=r"^x:3:1: need at least one point$"):
        parse_incidence("# c\n\ninc 0 0\n", "x")
    _expect_error(parse_design, "# c\ndesign 0 0\n", 2, "need at least one point")
    _expect_error(parse_lrs, "# c\n\n# d\nlrs 2\npoint 0\nclass 0\n", 4,
                  "missing 'point' section for point 1")


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
    _expect_error(parse_lrs, "lrs 1\npoint 0 1\n", 2, "exactly one index")
    with pytest.raises(FormatError, match=r"^x:3:1: point 0, class 0 repeats an instance$"):
        parse_lrs("lrs 1\npoint 0\nclass 0 0 1\n", "x")


def test_lrs_syntax_errors_come_before_class_rules():
    # the empty class on line 3 is only built once the whole file is read
    _expect_error(parse_lrs, "lrs 2\npoint 0\nclass\npoint 1\nclass x\n", 5,
                  "expected an integer, got 'x'")
    _expect_error(parse_lrs, "lrs 2\npoint 0\nclass 0 0\npoint 1\nnoise\n", 5,
                  "expected 'point' or 'class'")
    _expect_error(parse_lrs, "lrs 3\npoint 0\nclass 0 0\npoint 1\n", 1,
                  "missing 'point' section for point 2")
    # class rules are then checked point by point, each at its class's line
    text = "lrs 2\npoint 1\nclass 0 0\npoint 0\nclass 1\nclass\n"
    with pytest.raises(FormatError, match=r"^x:6:1: point 0 has an empty class$"):
        parse_lrs(text, "x")
    with pytest.raises(FormatError, match=r"^x:3:1: point 1, class 0 repeats an instance$"):
        parse_lrs(text.replace("class\n", "class 2\n"), "x")
