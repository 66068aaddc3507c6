"""Line-oriented text formats for incidence structures, designs, ovoids, and
local resolution systems.

All indices are 0-based.  A line ends at LF and nowhere else, so line
numbers count LFs; other whitespace, a CR before the LF included, only
separates tokens.  Lines starting with `#` and blank lines are ignored on
input.  Writers emit LF newlines, sorted indices, and no
comments, so writing a parsed file reproduces it byte for byte.

The parsers read tokens and say where an error is.  The row rules are the
constructors' (see structures); a ValueError one raises is reported at
column 1 of the row it was reading, or of the header.  inc and design rows
reach the constructor as they are read, so a file's first error is the one
reported.  An lrs file, whose sections come in any point order, is read
whole first, so its syntax errors come before class rules.  An ovoid has no
constructor: parse_ovoid refuses negative and repeated indices itself.
"""

from __future__ import annotations

from .structures import Design, IncidenceStructure, LocalResolutionSystem, \
    _is_int


class FormatError(ValueError):
    """Malformed input file; carries path, line, and column when known."""

    def __init__(self, path: str, line: int, column: int, message: str):
        super().__init__(f"{path}:{line}:{column}: {message}")
        self.path = path
        self.line = line
        self.column = column


class _Reader:
    """The rows of a file that are not blank or comments, taken in order;
    line is that of the row taken last, where an error is reported."""

    def __init__(self, text: str, path: str):
        self.path = path
        self.rows = [(lineno, raw) for lineno, raw in enumerate(text.split("\n"), start=1)
                     if raw.strip()[:1] not in ("", "#")]
        self.at = 0
        self.line = 1

    def take(self, what: str) -> str:
        if self.at >= len(self.rows):
            self.fail(f"unexpected end of file, expected {what}")
        self.line, raw = self.rows[self.at]
        self.at += 1
        return raw

    def end(self, message: str) -> None:
        """Fail at the first row left unread, if any."""
        if self.at < len(self.rows):
            self.take("nothing")
            self.fail(message)

    def fail(self, message: str, column: int = 1):
        raise FormatError(self.path, self.line, column, message)

    def build(self, make, *args):
        """make(*args), with a ValueError it raises reported at self.line."""
        try:
            return make(*args)
        except FormatError:
            raise
        except ValueError as exc:
            self.fail(str(exc))


def _column(raw: str, k: int) -> int:
    """1-based column of the k-th token of raw."""
    at = 0
    for tok in raw.split()[:k + 1]:
        at = raw.index(tok, at) + len(tok)
    return at - len(tok) + 1


def _ints(reader: _Reader, raw: str, skip: int = 0) -> list[int]:
    """The integers of a row after its first skip tokens."""
    tokens = raw.split()
    try:
        return list(map(int, tokens[skip:]))
    except ValueError:  # only now find which token it was, and its column
        for k in range(skip, len(tokens)):
            try:
                int(tokens[k])
            except ValueError:
                reader.fail(f"expected an integer, got {tokens[k]!r}", _column(raw, k))


def _header(reader: _Reader, keyword: str, arity: int) -> list[int]:
    raw = reader.take(f"'{keyword}' header")
    if raw.split()[0] != keyword:
        reader.fail(f"expected keyword '{keyword}'")
    vals = _ints(reader, raw, 1)
    if len(vals) != arity:
        reader.fail(f"'{keyword}' header takes {arity} integers, got {len(vals)}")
    if any(v < 0 for v in vals):
        reader.fail(f"'{keyword}' header values must be non-negative")
    return vals


# each row format's header word and the class built from its rows
_ROWS = {"inc": IncidenceStructure, "design": Design}


def _parse_rows(reader: _Reader, keyword: str):
    """The structure its header names, each row handed to the constructor as read."""
    make = _ROWS[keyword]
    points, nrows = _header(reader, keyword, 2)

    def rows():
        for _ in range(nrows):
            yield _ints(reader, reader.take(f"a {make._kind} of point indices"))
        reader.end(f"expected {nrows} {make._kind}s per the header, found more")

    return reader.build(make, points, rows())


def parse_incidence(text: str, path: str = "<incidence>") -> IncidenceStructure:
    return _parse_rows(_Reader(text, path), "inc")


def parse_design(text: str, path: str = "<design>") -> Design:
    return _parse_rows(_Reader(text, path), "design")


def parse_structure(text: str, path: str = "<structure>") -> IncidenceStructure:
    """The incidence structure or the design, as the file's header names."""
    reader = _Reader(text, path)
    word = reader.take("an 'inc' or 'design' header").split()[0]
    if word not in _ROWS:
        reader.fail(f"unrecognised header {word!r}")
    reader.at = 0  # the header is read again, as the format's own
    return _parse_rows(reader, word)


def parse_ovoid(text: str, path: str = "<ovoid>") -> frozenset[int]:
    reader = _Reader(text, path)
    (n,) = _header(reader, "ovoid", 1)
    raw = reader.take("the ovoid point indices")
    pts = _ints(reader, raw)
    for k, p in enumerate(pts):
        if p < 0:
            reader.fail(f"ovoid point {p} is negative", _column(raw, k))
    if len(pts) != n:
        reader.fail(f"header promises {n} points, line has {len(pts)}")
    if len(set(pts)) != len(pts):
        reader.fail("ovoid points repeat")
    reader.end("ovoid file has extra content")
    return frozenset(pts)


def parse_lrs(text: str, path: str = "<lrs>") -> LocalResolutionSystem:
    reader = _Reader(text, path)
    (v,) = _header(reader, "lrs", 1)
    sections: dict[int, list[tuple[int, list[int]]]] = {}  # (line, class)s by point
    current = None
    while reader.at < len(reader.rows):
        raw = reader.take("a 'point' or 'class' line")
        word = raw.split()[0]
        if word == "point":
            vals = _ints(reader, raw, 1)
            if len(vals) != 1:
                reader.fail("'point' takes exactly one index")
            p = vals[0]
            if not 0 <= p < v:
                reader.fail(f"point index {p} outside 0..{v - 1}")
            if p in sections:
                reader.fail(f"duplicate section for point {p}")
            current = sections[p] = []
        elif word == "class":
            if current is None:
                reader.fail("'class' before any 'point' section")
            current.append((reader.line, _ints(reader, raw, 1)))
        else:
            reader.fail(f"expected 'point' or 'class', got {word!r}")
    missing = [p for p in range(v) if p not in sections]
    if missing:
        reader.line = reader.rows[0][0]
        reader.fail(f"missing 'point' section for point {missing[0]}")

    def classes(p):
        for reader.line, members in sections[p]:  # a class error names its line
            yield members

    return reader.build(LocalResolutionSystem, (classes(p) for p in range(v)))


def _write_rows(keyword: str, s: IncidenceStructure) -> str:
    out = [f"{keyword} {s.point_count} {len(s.lines)}"]
    out += [" ".join(map(str, line)) for line in s.lines]
    return "\n".join(out) + "\n"


def write_incidence(s: IncidenceStructure) -> str:
    return _write_rows("inc", s)


def write_design(d: Design) -> str:
    return _write_rows("design", d)


def write_ovoid(ovoid) -> str:
    pts = list(ovoid)
    if not pts:
        raise ValueError("an ovoid has at least one point")
    for p in pts:
        if not _is_int(p) or p < 0:
            raise ValueError(f"ovoid point {p!r} is not an int >= 0")
    pts.sort()
    if len(set(pts)) != len(pts):
        raise ValueError("ovoid points repeat")
    return f"ovoid {len(pts)}\n" + " ".join(map(str, pts)) + "\n"


def write_lrs(system: LocalResolutionSystem) -> str:
    out = [f"lrs {system.point_count}"]
    for p, classes in enumerate(system.classes):
        out.append(f"point {p}")
        out += ["class " + " ".join(map(str, sorted(cls))) for cls in classes]
    return "\n".join(out) + "\n"
