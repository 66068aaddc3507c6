"""Command-line front end.

Every run prints an ordered key/value report to standard output; --report
writes the same document to a file.  Exit codes: 0 success, 1 a verification
or decision came back negative, 2 usage or file-format error, 3 a search ran
out of budget before producing anything.

Each handler imports the library modules it calls, so a short run of gqd
loads and compiles only what its subcommand uses.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING

from .fileformats import FormatError, parse_design, parse_incidence, \
    parse_lrs, parse_ovoid, parse_structure, write_design, write_incidence, \
    write_lrs, write_ovoid
from .structures import Design, detect_replication, dual, verify_bibd, \
    verify_gq, verify_lrs, verify_non_triangular, verify_ovoid

if TYPE_CHECKING:  # names used in annotations only
    from .canon import CanonStats
    from .search import Budget


class UsageError(Exception):
    """Bad invocation beyond what argparse can catch; exits with code 2."""


class Report:
    """Ordered key/value document, printed and optionally saved.  A key is
    printed once, where it was first added.  inputs keeps the bytes of each
    path read in this run, so a path named twice is read and hashed once."""

    def __init__(self):
        self.items: dict[str, str] = {}
        self.inputs: dict[str, bytes] = {}

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.items[key] = str(value)

    def render(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in self.items.items())


def _newlines(text: str) -> str:
    """CRLF and CR to LF, as a file opened in text mode reads."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load(path: str, parse, rep: Report):
    """Read an input file, unless this run has read its path already (a pipe
    such as /dev/stdin reads empty the second time), record the sha256 of its
    bytes in the report and parse it as UTF-8 text with its newlines made LF."""
    data = rep.inputs.get(path)
    if data is None:
        import hashlib  # loads OpenSSL, which a run that reads no file skips
        try:
            with open(path, "rb") as fh:
                data = rep.inputs[path] = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
        rep.add(f"input.{path}.sha256", hashlib.sha256(data).hexdigest())
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = _newlines(data[:exc.start].decode("utf-8"))
        raise FormatError(path, head.count("\n") + 1, len(head) - head.rfind("\n"),
                          f"not UTF-8 text: byte 0x{data[exc.start]:02x}") from None
    return parse(_newlines(text), path)


def _save(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _write_text(path: str, text: str, rep: Report, key: str) -> None:
    _save(path, text)
    rep.add(key, path)


def _count(text: str) -> int:
    """--limit: a whole number, 0 or more; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a whole number >= 0, got {text!r}")
    return value


def _seconds(text: str) -> Budget:
    """--budget: a wall-clock Budget of a finite number of seconds, 0 or more."""
    from .search import Budget
    try:
        return Budget(max_seconds=float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}") from None


def _search_exit(result, rep: Report, out: str | None, write, ext: str) -> int:
    """Write each solution to out<i>.<ext> if out is given, then report."""
    if out is not None:
        for i, solution in enumerate(result.solutions):
            _write_text(f"{out}{i}.{ext}", write(solution), rep, f"output.{ext}.{i}")
    rep.add("found", len(result.solutions))
    rep.add("exhausted", result.exhausted)
    rep.add("nodes", result.nodes)
    if result.budget_exceeded:
        rep.add("budget_exceeded", True)
    if result.solutions:
        return 0
    return 3 if result.budget_exceeded else 1


# --- construct -----------------------------------------------------------

def cmd_construct(args, rep: Report) -> int:
    fam, q, with_lrs = args.family, args.q, args.with_lrs
    rep.add("family", fam)
    rep.add("q", q)
    if fam != "sprott":
        if args.lam is not None:
            raise UsageError("--lambda only applies to --family sprott")
        if with_lrs:
            raise UsageError("--with-lrs only applies to --family sprott")
    if args.lrs_out is not None and not with_lrs:
        raise UsageError("--lrs-out only applies with --with-lrs")
    if with_lrs:
        if args.lam is not None and args.lam != q + 2:
            raise UsageError(f"--with-lrs fixes --lambda at q + 2 = {q + 2}")
        if args.lrs_out is None:
            raise UsageError("--with-lrs requires --lrs-out")
    elif fam == "sprott" and args.lam is None:
        raise UsageError("--family sprott requires --lambda")

    # each builder checks q itself; its ValueError is a usage error
    try:
        if fam in ("W", "Q4", "H3"):
            from .geometry import hermitian_gq, parabolic_gq, symplectic_gq
            maker = {"W": symplectic_gq, "Q4": parabolic_gq, "H3": hermitian_gq}[fam]
            built = maker(q)
        elif fam == "AG":
            from .sprott import affine_plane
            built = affine_plane(q)
        elif with_lrs:
            from .sprott import sprott_lrs
            built, system = sprott_lrs(q)
        else:
            from .field import field_of_order
            from .sprott import sprott_design
            field = field_of_order(q)
            built = sprott_design(field.p, field.a, args.lam)[1]
    except ValueError as exc:
        raise UsageError(f"--with-lrs: {exc}" if with_lrs else str(exc)) from exc

    if fam in ("W", "Q4", "H3"):
        _report_gq(built, rep)
        _write_text(args.out, write_incidence(built), rep, "output.incidence")
        return 0
    if fam == "sprott" and not with_lrs:
        rep.add("lambda", args.lam)
    _report_design(built, rep, allow_degenerate=fam == "AG")
    witness = None
    if with_lrs:
        witness = verify_non_triangular(built, system)
        rep.add("non_triangular", witness is None)
    _write_text(args.out, write_design(built), rep, "output.design")
    if with_lrs:
        _write_text(args.lrs_out, write_lrs(system), rep, "output.lrs")
    return 0 if witness is None else 1


def _report_gq(s, rep: Report) -> None:
    params = verify_gq(s)
    rep.add("params.s", params.s)
    rep.add("params.t", params.t)
    rep.add("points", s.point_count)
    rep.add("lines", len(s.lines))


def _report_design(d, rep: Report, allow_degenerate: bool = False,
                   prefix: str = "params") -> None:
    params = verify_bibd(d, allow_degenerate=allow_degenerate)
    for name, val in zip(("v", "b", "r", "k", "lambda"), params):
        rep.add(f"{prefix}.{name}", val)


# --- verify --------------------------------------------------------------

# each check's parsers, one per file argument in order
_VERIFY_FILES = {
    "gq": (parse_incidence,), "bibd": (parse_design,),
    "ovoid": (parse_incidence, parse_ovoid),
    "lrs": (parse_design, parse_lrs), "ntlrs": (parse_design, parse_lrs)}


def cmd_verify(args, rep: Report) -> int:
    kind = args.kind
    rep.add("check", kind)
    parsers = _VERIFY_FILES[kind]
    n = len(parsers)
    if len(args.files) != n:
        raise UsageError(f"verify {kind} takes {n} file argument{'s' if n > 1 else ''}")
    first, *rest = [_load(path, parse, rep) for path, parse in zip(args.files, parsers)]
    if kind == "gq":
        params = verify_gq(first)
        rep.add("params.s", params.s)
        rep.add("params.t", params.t)
    elif kind == "ovoid":
        verify_ovoid(first, rest[0])
        rep.add("ovoid_size", len(rest[0]))
    else:
        _report_design(first, rep)
    if kind == "lrs":
        verify_lrs(first, rest[0])
    elif kind == "ntlrs":
        witness = verify_non_triangular(first, rest[0])
        rep.add("non_triangular", witness is None)
        if witness is not None:
            rep.add("triangle.blocks", " ".join(map(str, witness.blocks)))
            rep.add("triangle.points", " ".join(map(str, witness.points)))
            rep.add("verified", False)
            return 1
    rep.add("verified", True)
    return 0


# --- searches ------------------------------------------------------------

def cmd_ovoids(args, rep: Report) -> int:
    from .search import find_ovoids
    s = _load(args.incidence, parse_incidence, rep)
    result = find_ovoids(s, limit=args.limit or None, budget=args.budget)
    return _search_exit(result, rep, args.out, write_ovoid, "ovoid")


def cmd_ntlrs(args, rep: Report) -> int:
    from .search import find_ntlrs
    d = _load(args.design, parse_design, rep)
    result = find_ntlrs(d, limit=args.limit or None, budget=args.budget)
    return _search_exit(result, rep, args.out, write_lrs, "lrs")


# --- the correspondence --------------------------------------------------

def cmd_map_n(args, rep: Report) -> int:
    from .correspondence import design_from_ovoid
    s = _load(args.incidence, parse_incidence, rep)
    ovoid = _load(args.ovoid, parse_ovoid, rep)
    d, system = design_from_ovoid(s, ovoid)
    _report_design(d, rep)
    if args.design_out is not None:
        _write_text(args.design_out, write_design(d), rep, "output.design")
    if args.lrs_out is not None:
        _write_text(args.lrs_out, write_lrs(system), rep, "output.lrs")
    return 0


def cmd_map_m(args, rep: Report) -> int:
    from .correspondence import gq_from_design
    d = _load(args.design, parse_design, rep)
    system = _load(args.lrs, parse_lrs, rep)
    labeled = gq_from_design(d, system)
    s = labeled.structure
    _report_gq(s, rep)
    if args.inc_out is not None:
        _write_text(args.inc_out, write_incidence(s), rep, "output.incidence")
    if args.ovoid_out is not None:
        _write_text(args.ovoid_out, write_ovoid(labeled.ovoid), rep,
                    "output.ovoid")
    return 0


def cmd_roundtrip(args, rep: Report) -> int:
    from .correspondence import roundtrip_design, roundtrip_gq
    rep.add("direction", args.direction)
    if args.direction == "design":
        d = _load(args.first, parse_design, rep)
        system = _load(args.second, parse_lrs, rep)
        ok = roundtrip_design(d, system)
    else:
        s = _load(args.first, parse_incidence, rep)
        ovoid = _load(args.second, parse_ovoid, rep)
        ok = roundtrip_gq(s, ovoid)
    rep.add("roundtrip", ok)
    return 0 if ok else 1


def cmd_prop32(args, rep: Report) -> int:
    from .correspondence import check_regular_traces
    s = _load(args.incidence, parse_incidence, rep)
    ovoids = {path: _load(path, parse_ovoid, rep) for path in args.ovoids}
    results = {}  # one check per distinct path, reported under each prefix
    for path, ovoid in ovoids.items():
        try:
            results[path] = check_regular_traces(s, ovoid)
        except ValueError as exc:
            results[path] = exc
    code = 0
    for i, path in enumerate(args.ovoids):
        key = f"ovoid{i}." if len(args.ovoids) > 1 else ""
        report = results[path]
        if isinstance(report, ValueError):
            _report_failure(report, rep, key)
            code = 1
            continue
        rep.add(key + "regular_traces", report.ok)
        rep.add(key + "witnesses", len(report.witnesses))
        if report.failed_point is not None:
            rep.add(key + "failed_point", report.failed_point)
        rep.add(key + "blocks_replicated", report.blocks_replicated)
        rep.add(key + "blocks_are_traces", report.blocks_are_traces)
        if not (report.ok and report.blocks_replicated and report.blocks_are_traces):
            code = 1
    return code


def cmd_replicated(args, rep: Report) -> int:
    d = _load(args.design, parse_design, rep)
    got = detect_replication(d)
    rep.add("replicated", got is not None)
    if got is None:
        return 1
    base, n = got
    rep.add("multiplicity", n)
    _report_design(base, rep, allow_degenerate=True, prefix="base")
    if args.out is not None:
        _write_text(args.out, write_design(base), rep, "output.design")
    return 0


# --- derived structures --------------------------------------------------

def cmd_dual(args, rep: Report) -> int:
    s = _load(args.incidence, parse_incidence, rep)
    t = dual(s)
    rep.add("points", t.point_count)
    rep.add("lines", len(t.lines))
    _write_text(args.out, write_incidence(t), rep, "output.incidence")
    return 0


def cmd_payne(args, rep: Report) -> int:
    from .geometry import payne_derivation
    s = _load(args.incidence, parse_incidence, rep)
    rep.add("point", args.point)
    t = payne_derivation(s, args.point)
    _report_gq(t, rep)
    _write_text(args.out, write_incidence(t), rep, "output.incidence")
    return 0


# --- canonical forms -----------------------------------------------------

def _kind(structure) -> str:
    """The header word of the file a structure was read from."""
    return "design" if isinstance(structure, Design) else "inc"


def _read_marks(kind: str, path: str | None, rep: Report):
    """The ovoid that colours an incidence structure, or None without one."""
    if path is None:
        return None
    if kind != "inc":
        raise UsageError("ovoid colouring applies to incidence files only")
    return _load(path, parse_ovoid, rep)


def _canon_counts(stats: CanonStats, rep: Report) -> None:
    rep.add("nodes", stats.nodes)
    rep.add("leaves", stats.leaves)
    rep.add("generators", stats.generators)
    rep.add("splitters", stats.splitters)
    rep.add("splits", stats.splits)
    rep.add("orbit_prunes", stats.orbit_prunes)
    rep.add("jumps", stats.jumps)


def _canon_cut(stats: CanonStats, rep: Report) -> int:
    _canon_counts(stats, rep)
    rep.add("budget_exceeded", True)
    return 3


def cmd_canon(args, rep: Report) -> int:
    from .canon import BudgetExceeded, canonical_form, design_graph, \
        incidence_graph
    structure = _load(args.file, parse_structure, rep)
    kind = _kind(structure)
    ovoid = _read_marks(kind, args.ovoid, rep)
    graph = (incidence_graph(structure, ovoid) if kind == "inc"
             else design_graph(structure))
    rep.add("kind", kind)
    try:
        form = canonical_form(graph, args.budget)
    except BudgetExceeded as exc:
        return _canon_cut(exc.stats, rep)
    rep.add("digest", form.digest)
    _canon_counts(form.stats, rep)
    return 0


def cmd_iso(args, rep: Report) -> int:
    from .canon import BudgetExceeded, CanonStats, designs_isomorphic, \
        gq_isomorphic
    if (args.ovoid_a is None) != (args.ovoid_b is None):
        raise UsageError("give --ovoid-a and --ovoid-b together or not at all")
    a = _load(args.first, parse_structure, rep)
    b = _load(args.second, parse_structure, rep)
    kind, kind_b = _kind(a), _kind(b)
    if kind != kind_b:
        raise UsageError(f"cannot compare {kind!r} and {kind_b!r} files")
    ov_a = _read_marks(kind, args.ovoid_a, rep)
    ov_b = _read_marks(kind, args.ovoid_b, rep)
    if kind == "inc":
        decide, pair = gq_isomorphic, (a, b, ov_a, ov_b)
    else:
        decide, pair = designs_isomorphic, (a, b)
    stats = CanonStats()
    try:
        ok, mapping = decide(*pair, budget=args.budget, stats=stats)
    except BudgetExceeded:
        return _canon_cut(stats, rep)
    rep.add("isomorphic", ok)
    if ok:
        rep.add("mapping", " ".join(str(mapping[i]) for i in range(len(mapping))))
    _canon_counts(stats, rep)
    return 0 if ok else 1


# --- plumbing ------------------------------------------------------------

def _report_failure(exc: ValueError, rep: Report, prefix: str = "") -> None:
    rep.add(prefix + "verified", False)
    rep.add(prefix + "failure", type(exc).__name__)
    rep.add(prefix + "detail", str(exc))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", metavar="PATH",
                        help="also write the key/value report to this file")
    # only the subcommands whose work a budget can cut take --budget
    bounded = argparse.ArgumentParser(add_help=False, parents=[common])
    bounded.add_argument("--budget", type=_seconds, metavar="SEC",
                         help="wall-clock budget for searches and canonical "
                              "forms, in seconds")

    top = argparse.ArgumentParser(
        prog="gqd",
        description="Generalized quadrangles, ovoids, and the designs "
                    "they correspond to.")
    sub = top.add_subparsers(dest="cmd", required=True, metavar="COMMAND")

    p = sub.add_parser("construct", parents=[common],
                       help="build a classical quadrangle or a named design")
    p.add_argument("--family", required=True,
                   choices=["W", "Q4", "H3", "AG", "sprott"])
    p.add_argument("--q", type=int, required=True, metavar="N",
                   help="field order (for H3: its square is; for sprott "
                        "--with-lrs: the square root of the point count)")
    p.add_argument("--lambda", type=int, dest="lam", metavar="L",
                   help="pair multiplicity, sprott family only")
    p.add_argument("--with-lrs", action="store_true",
                   help="also emit the explicit local resolution system "
                        "(sprott, q a power of 2)")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--lrs-out", metavar="PATH")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", parents=[common],
                       help="check a structure against its axioms")
    p.add_argument("kind", choices=list(_VERIFY_FILES))
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ovoids", parents=[bounded],
                       help="search a quadrangle for ovoids")
    p.add_argument("incidence", metavar="INC")
    p.add_argument("--limit", type=_count, default=0,
                   help="stop after this many (0 = exhaust)")
    p.add_argument("--out", metavar="PREFIX",
                   help="write each ovoid to PREFIX<i>.ovoid")
    p.set_defaults(func=cmd_ovoids)

    p = sub.add_parser("ntlrs", parents=[bounded],
                       help="search a design for non-triangular local "
                            "resolution systems")
    p.add_argument("design", metavar="DESIGN")
    p.add_argument("--limit", type=_count, default=1,
                   help="stop after this many (0 = exhaust, default 1)")
    p.add_argument("--out", metavar="PREFIX",
                   help="write each system to PREFIX<i>.lrs")
    p.set_defaults(func=cmd_ntlrs)

    p = sub.add_parser("map-n", parents=[common],
                       help="quadrangle plus ovoid to design plus system")
    p.add_argument("incidence", metavar="INC")
    p.add_argument("ovoid", metavar="OVOID")
    p.add_argument("--design-out", metavar="PATH")
    p.add_argument("--lrs-out", metavar="PATH")
    p.set_defaults(func=cmd_map_n)

    p = sub.add_parser("map-m", parents=[common],
                       help="design plus system back to a quadrangle")
    p.add_argument("design", metavar="DESIGN")
    p.add_argument("lrs", metavar="LRS")
    p.add_argument("--inc-out", metavar="PATH")
    p.add_argument("--ovoid-out", metavar="PATH")
    p.set_defaults(func=cmd_map_m)

    p = sub.add_parser("roundtrip", parents=[common],
                       help="apply both maps and compare with the input")
    p.add_argument("direction", choices=["gq", "design"])
    p.add_argument("first", metavar="FILE",
                   help="incidence file (gq) or design file (design)")
    p.add_argument("second", metavar="FILE",
                   help="ovoid file (gq) or system file (design)")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("prop32", parents=[common],
                       help="check that blocks of the induced design are "
                            "traces of regular point pairs")
    p.add_argument("incidence", metavar="INC")
    p.add_argument("ovoids", nargs="+", metavar="OVOID",
                   help="one or more ovoid files; with several, each "
                        "ovoid's keys start with ovoid<i>.")
    p.set_defaults(func=cmd_prop32)

    p = sub.add_parser("replicated", parents=[common],
                       help="test whether a design is n copies of a smaller one")
    p.add_argument("design", metavar="DESIGN")
    p.add_argument("--out", metavar="PATH",
                   help="write the deduplicated base design here")
    p.set_defaults(func=cmd_replicated)

    p = sub.add_parser("dual", parents=[common],
                       help="swap the roles of points and lines")
    p.add_argument("incidence", metavar="INC")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("payne", parents=[common],
                       help="derive the quadrangle about a regular point")
    p.add_argument("incidence", metavar="INC")
    p.add_argument("--point", type=int, required=True, metavar="IDX")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_payne)

    p = sub.add_parser("canon", parents=[bounded],
                       help="canonical certificate digest of a structure")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--ovoid", metavar="PATH",
                   help="colour these points as a distinguished set")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("iso", parents=[bounded],
                       help="decide isomorphism of two structures")
    p.add_argument("first", metavar="FILE")
    p.add_argument("second", metavar="FILE")
    p.add_argument("--ovoid-a", metavar="PATH")
    p.add_argument("--ovoid-b", metavar="PATH")
    p.set_defaults(func=cmd_iso)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rep = Report()
    rep.add("command", args.cmd)
    start = time.monotonic()
    try:
        code = args.func(args, rep)
    except (UsageError, FormatError) as exc:
        print(f"gqd {args.cmd}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # a VerificationError, or a precondition on well-formed input data
        _report_failure(exc, rep)
        code = 1
    rep.add("elapsed_seconds", f"{time.monotonic() - start:.3f}")
    rep.add("exit_code", code)
    doc = rep.render()
    if args.report is not None:  # before stdout, so a failed write prints no report
        try:
            _save(args.report, doc)
        except UsageError as exc:
            print(f"gqd {args.cmd}: {exc}", file=sys.stderr)
            return 2
    sys.stdout.write(doc)
    return code


if __name__ == "__main__":
    sys.exit(main())
