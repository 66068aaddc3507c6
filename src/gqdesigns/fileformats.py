"""Line-oriented text formats for incidence structures, designs, ovoids, and
local resolution systems.

All indices are 0-based.  Lines starting with `#` and blank lines are
ignored on input.  Writers emit LF newlines, sorted indices, and no
comments, so writing a parsed file reproduces it byte for byte.
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
    def __init__(self, text: str, path: str):
        self.path = path
        self.rows: list[tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            self.rows.append((lineno, raw))
        self.at = 0

    def take(self, what: str) -> tuple[int, str]:
        if self.at >= len(self.rows):
            last = self.rows[-1][0] if self.rows else 1
            raise FormatError(self.path, last, 1, f"unexpected end of file, expected {what}")
        row = self.rows[self.at]
        self.at += 1
        return row

    def done(self) -> bool:
        return self.at >= len(self.rows)

    def fail(self, lineno: int, column: int, message: str):
        raise FormatError(self.path, lineno, column, message)


def _ints(reader: _Reader, lineno: int, raw: str, expect_word: str | None = None) -> list[int]:
    tokens = raw.split()
    if expect_word is not None:
        if not tokens or tokens[0] != expect_word:
            reader.fail(lineno, 1, f"expected keyword '{expect_word}'")
        tokens = tokens[1:]
    out = []
    col = 1
    for tok in tokens:
        col = raw.index(tok, col - 1) + 1
        try:
            out.append(int(tok))
        except ValueError:
            reader.fail(lineno, col, f"expected an integer, got {tok!r}")
        col += len(tok)
    return out


def _header(reader: _Reader, keyword: str, arity: int) -> list[int]:
    lineno, raw = reader.take(f"'{keyword}' header")
    vals = _ints(reader, lineno, raw, expect_word=keyword)
    if len(vals) != arity:
        reader.fail(lineno, 1, f"'{keyword}' header takes {arity} integers, got {len(vals)}")
    for v in vals:
        if v < 0:
            reader.fail(lineno, 1, f"'{keyword}' header values must be non-negative")
    return vals


def _parse_rows(text: str, path: str, keyword: str, noun: str,
                same_size: bool = False) -> tuple[int, list[list[int]]]:
    """The header's point count and the rows it promises, each a list of
    distinct point indices, and all as long as the first if same_size; noun
    names one row in messages."""
    reader = _Reader(text, path)
    points, nrows = _header(reader, keyword, 2)
    rows = []
    for _ in range(nrows):
        lineno, raw = reader.take(f"a {noun} of point indices")
        pts = _ints(reader, lineno, raw)
        for p in pts:
            if not 0 <= p < points:
                reader.fail(lineno, 1, f"point index {p} outside 0..{points - 1}")
        if len(set(pts)) != len(pts):
            reader.fail(lineno, 1, f"{noun} repeats a point")
        if same_size and rows and len(pts) != len(rows[0]):
            reader.fail(lineno, 1, f"{noun} has size {len(pts)}, expected {len(rows[0])}")
        rows.append(pts)
    if not reader.done():
        lineno, _ = reader.take("nothing")
        reader.fail(lineno, 1, f"expected {nrows} {noun}s per the header, found more")
    return points, rows


def parse_incidence(text: str, path: str = "<incidence>") -> IncidenceStructure:
    points, lines = _parse_rows(text, path, "inc", "line")
    try:
        return IncidenceStructure(points, lines)
    except ValueError as exc:
        raise FormatError(path, 1, 1, str(exc)) from exc


def parse_design(text: str, path: str = "<design>") -> Design:
    v, blocks = _parse_rows(text, path, "design", "block", same_size=True)
    try:
        return Design(v, blocks)
    except ValueError as exc:
        raise FormatError(path, 1, 1, str(exc)) from exc


def parse_ovoid(text: str, path: str = "<ovoid>") -> frozenset[int]:
    reader = _Reader(text, path)
    (n,) = _header(reader, "ovoid", 1)
    lineno, raw = reader.take("the ovoid point indices")
    pts = _ints(reader, lineno, raw)
    if len(pts) != n:
        reader.fail(lineno, 1, f"header promises {n} points, line has {len(pts)}")
    if len(set(pts)) != len(pts):
        reader.fail(lineno, 1, "ovoid points repeat")
    if not reader.done():
        extra, _ = reader.take("nothing")
        reader.fail(extra, 1, "ovoid file has extra content")
    return frozenset(pts)


def parse_lrs(text: str, path: str = "<lrs>") -> LocalResolutionSystem:
    reader = _Reader(text, path)
    (v,) = _header(reader, "lrs", 1)
    sections: dict[int, list[list[int]]] = {}
    current: list[list[int]] | None = None
    while not reader.done():
        lineno, raw = reader.take("a 'point' or 'class' line")
        word = raw.split()[0]
        if word == "point":
            vals = _ints(reader, lineno, raw, expect_word="point")
            if len(vals) != 1:
                reader.fail(lineno, 1, "'point' takes exactly one index")
            p = vals[0]
            if not 0 <= p < v:
                reader.fail(lineno, 1, f"point index {p} outside 0..{v - 1}")
            if p in sections:
                reader.fail(lineno, 1, f"duplicate section for point {p}")
            current = []
            sections[p] = current
        elif word == "class":
            if current is None:
                reader.fail(lineno, 1, "'class' before any 'point' section")
            members = _ints(reader, lineno, raw, expect_word="class")
            if not members:
                reader.fail(lineno, 1, "empty class")
            current.append(members)
        else:
            reader.fail(lineno, 1, f"expected 'point' or 'class', got {word!r}")
    missing = [p for p in range(v) if p not in sections]
    if missing:
        reader.fail(1, 1, f"missing 'point' section for point {missing[0]}")
    try:
        return LocalResolutionSystem([sections[p] for p in range(v)])
    except ValueError as exc:
        raise FormatError(path, 1, 1, str(exc)) from exc


def _write_rows(keyword: str, s: IncidenceStructure) -> str:
    out = [f"{keyword} {s.point_count} {len(s.lines)}"]
    for line in s.lines:
        out.append(" ".join(str(p) for p in line))
    return "\n".join(out) + "\n"


def write_incidence(s: IncidenceStructure) -> str:
    return _write_rows("inc", s)


def write_design(d: Design) -> str:
    return _write_rows("design", d)


def write_ovoid(ovoid) -> str:
    pts = list(ovoid)
    for p in pts:
        if not _is_int(p) or p < 0:
            raise ValueError(f"ovoid point {p!r} is not an int >= 0")
    pts.sort()
    if len(set(pts)) != len(pts):
        raise ValueError("ovoid points repeat")
    return f"ovoid {len(pts)}\n" + " ".join(str(p) for p in pts) + "\n"


def write_lrs(system: LocalResolutionSystem) -> str:
    out = [f"lrs {system.point_count}"]
    for p in range(system.point_count):
        out.append(f"point {p}")
        for cls in system.classes[p]:
            out.append("class " + " ".join(str(i) for i in sorted(cls)))
    return "\n".join(out) + "\n"
