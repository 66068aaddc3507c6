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
import hashlib
import math
import sys
import time
from typing import TYPE_CHECKING

from .fileformats import FormatError, parse_design, parse_incidence, \
    parse_lrs, parse_ovoid, write_design, write_incidence, write_lrs, \
    write_ovoid
from .structures import dual, verify_bibd, verify_gq, verify_lrs, \
    verify_non_triangular, verify_ovoid

if TYPE_CHECKING:  # names used in annotations only
    from .canon import CanonStats
    from .search import Budget


class UsageError(Exception):
    """Bad invocation beyond what argparse can catch; exits with code 2."""


class Report:
    """Ordered key/value document, printed and optionally saved."""

    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def add(self, key: str, value) -> None:
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.items.append((key, str(value)))

    def render(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in self.items)


def _read_input(path: str, rep: Report) -> str:
    """Read an input file and record its sha256 in the report."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from exc
    rep.add(f"input.{path}.sha256", hashlib.sha256(text.encode()).hexdigest())
    return text


def _save(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _write_text(path: str, text: str, rep: Report, key: str) -> None:
    _save(path, text)
    rep.add(key, path)


def _load(path: str, parser_fn, rep: Report):
    return parser_fn(_read_input(path, rep), path)


def _sniff(path: str, text: str) -> str:
    for raw in text.splitlines():
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            return stripped.split()[0]
    raise FormatError(path, 1, 1, "empty file")


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


def _seconds(text: str) -> float:
    """--budget: a finite number of seconds, 0 or more."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds >= 0, got {text!r}")
    return value


def _budget(args) -> Budget | None:
    from .search import Budget
    if getattr(args, "budget", None) is None:
        return None
    return Budget(max_seconds=args.budget)


def _search_exit(result, rep: Report) -> int:
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
    from .field import field_of_order
    fam = args.family
    q = args.q
    rep.add("family", fam)
    rep.add("q", q)
    if fam != "sprott":
        if args.lam is not None:
            raise UsageError("--lambda only applies to --family sprott")
        if args.with_lrs:
            raise UsageError("--with-lrs only applies to --family sprott")
    if args.out is None:
        raise UsageError("construct requires --out")
    try:
        field = field_of_order(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    if fam in ("W", "Q4", "H3"):
        from .geometry import hermitian_gq, parabolic_gq, symplectic_gq
        maker = {"W": symplectic_gq, "Q4": parabolic_gq, "H3": hermitian_gq}[fam]
        s = maker(q)
        _report_gq(s, rep)
        _write_text(args.out, write_incidence(s), rep, "output.incidence")
        return 0

    from .sprott import affine_plane, sprott_design, sprott_lrs
    if fam == "AG":
        d = affine_plane(q)
        _report_design(d, rep, allow_degenerate=True)
        _write_text(args.out, write_design(d), rep, "output.design")
        return 0

    # sprott
    if args.with_lrs:
        if field.p != 2 or field.a < 2:
            raise UsageError("--with-lrs needs q a power of 2, q >= 4")
        if args.lam is not None and args.lam != q + 2:
            raise UsageError(f"--with-lrs fixes --lambda at q + 2 = {q + 2}")
        if args.lrs_out is None:
            raise UsageError("--with-lrs requires --lrs-out")
        d, system = sprott_lrs(q)
        _report_design(d, rep)
        verify_lrs(d, system)
        witness = verify_non_triangular(d, system)
        rep.add("non_triangular", witness is None)
        _write_text(args.out, write_design(d), rep, "output.design")
        _write_text(args.lrs_out, write_lrs(system), rep, "output.lrs")
        return 0 if witness is None else 1

    if args.lam is None:
        raise UsageError("--family sprott requires --lambda")
    _, d = sprott_design(field.p, field.a, args.lam)
    rep.add("lambda", args.lam)
    _report_design(d, rep)
    _write_text(args.out, write_design(d), rep, "output.design")
    return 0


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

def _want(args, n: int) -> list[str]:
    if len(args.files) != n:
        raise UsageError(
            f"verify {args.kind} takes {n} file argument{'s' if n > 1 else ''}")
    return args.files


def cmd_verify(args, rep: Report) -> int:
    kind = args.kind
    rep.add("check", kind)
    if kind == "gq":
        (path,) = _want(args, 1)
        s = _load(path, parse_incidence, rep)
        params = verify_gq(s)
        rep.add("params.s", params.s)
        rep.add("params.t", params.t)
    elif kind == "bibd":
        (path,) = _want(args, 1)
        d = _load(path, parse_design, rep)
        _report_design(d, rep)
    elif kind == "ovoid":
        inc_path, ov_path = _want(args, 2)
        s = _load(inc_path, parse_incidence, rep)
        ovoid = _load(ov_path, parse_ovoid, rep)
        verify_ovoid(s, ovoid)
        rep.add("ovoid_size", len(ovoid))
    elif kind in ("lrs", "ntlrs"):
        d_path, l_path = _want(args, 2)
        d = _load(d_path, parse_design, rep)
        system = _load(l_path, parse_lrs, rep)
        _report_design(d, rep)
        verify_lrs(d, system)
        if kind == "ntlrs":
            witness = verify_non_triangular(d, system)
            rep.add("non_triangular", witness is None)
            if witness is not None:
                rep.add("triangle.blocks", " ".join(map(str, witness.blocks)))
                rep.add("triangle.points", " ".join(map(str, witness.points)))
                rep.add("verified", False)
                return 1
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown check {kind!r}")
    rep.add("verified", True)
    return 0


# --- searches ------------------------------------------------------------

def cmd_ovoids(args, rep: Report) -> int:
    from .search import find_ovoids
    s = _load(args.incidence, parse_incidence, rep)
    limit = args.limit if args.limit else None
    result = find_ovoids(s, limit=limit, budget=_budget(args))
    if args.out is not None:
        for i, ovoid in enumerate(result.solutions):
            _write_text(f"{args.out}{i}.ovoid", write_ovoid(ovoid), rep,
                        f"output.ovoid.{i}")
    return _search_exit(result, rep)


def cmd_ntlrs(args, rep: Report) -> int:
    from .search import find_ntlrs
    d = _load(args.design, parse_design, rep)
    limit = args.limit if args.limit else None
    result = find_ntlrs(d, limit=limit, budget=_budget(args))
    if args.out is not None:
        for i, system in enumerate(result.solutions):
            _write_text(f"{args.out}{i}.lrs", write_lrs(system), rep,
                        f"output.lrs.{i}")
    return _search_exit(result, rep)


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
    ovoids = [_load(path, parse_ovoid, rep) for path in args.ovoids]
    code = 0
    for i, ovoid in enumerate(ovoids):
        key = f"ovoid{i}." if len(ovoids) > 1 else ""
        try:
            report = check_regular_traces(s, ovoid)
        except ValueError as exc:
            _report_failure(exc, rep, key)
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
    from .correspondence import detect_replication
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
    if args.out is None:
        raise UsageError("dual requires --out")
    t = dual(s)
    rep.add("points", t.point_count)
    rep.add("lines", len(t.lines))
    _write_text(args.out, write_incidence(t), rep, "output.incidence")
    return 0


def cmd_payne(args, rep: Report) -> int:
    from .geometry import payne_derivation
    s = _load(args.incidence, parse_incidence, rep)
    if args.out is None:
        raise UsageError("payne requires --out")
    rep.add("point", args.point)
    t = payne_derivation(s, args.point)
    _report_gq(t, rep)
    _write_text(args.out, write_incidence(t), rep, "output.incidence")
    return 0


# --- canonical forms -----------------------------------------------------

def _graph_for(path: str, rep: Report, ovoid_path: str | None):
    from .canon import design_graph, incidence_graph
    text = _read_input(path, rep)
    head = _sniff(path, text)
    if head == "inc":
        s = parse_incidence(text, path)
        ovoid = None
        if ovoid_path is not None:
            ovoid = _load(ovoid_path, parse_ovoid, rep)
        return "inc", incidence_graph(s, ovoid)
    if head == "design":
        if ovoid_path is not None:
            raise UsageError("ovoid colouring applies to incidence files only")
        return "design", design_graph(parse_design(text, path))
    raise FormatError(path, 1, 1, f"unrecognised header {head!r}")


def _canon_counts(stats: CanonStats, rep: Report) -> None:
    rep.add("nodes", stats.nodes)
    rep.add("leaves", stats.leaves)
    rep.add("generators", stats.generators)


def _canon_cut(stats: CanonStats, rep: Report) -> int:
    _canon_counts(stats, rep)
    rep.add("budget_exceeded", True)
    return 3


def cmd_canon(args, rep: Report) -> int:
    from .canon import BudgetExceeded, canonical_form
    kind, graph = _graph_for(args.file, rep, args.ovoid)
    rep.add("kind", kind)
    try:
        form = canonical_form(graph, _budget(args))
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
    text_a = _read_input(args.first, rep)
    text_b = _read_input(args.second, rep)
    kind_a = _sniff(args.first, text_a)
    kind_b = _sniff(args.second, text_b)
    if kind_a != kind_b:
        raise UsageError(f"cannot compare a {kind_a!r} file with a {kind_b!r} file")
    if kind_a == "inc":
        a = parse_incidence(text_a, args.first)
        b = parse_incidence(text_b, args.second)
        ov_a = ov_b = None
        if args.ovoid_a is not None:
            ov_a = _load(args.ovoid_a, parse_ovoid, rep)
            ov_b = _load(args.ovoid_b, parse_ovoid, rep)
        decide, pair = gq_isomorphic, (a, b, ov_a, ov_b)
    elif kind_a == "design":
        if args.ovoid_a is not None:
            raise UsageError("ovoid colouring applies to incidence files only")
        decide, pair = designs_isomorphic, (parse_design(text_a, args.first),
                                            parse_design(text_b, args.second))
    else:
        raise FormatError(args.first, 1, 1, f"unrecognised header {kind_a!r}")
    stats = CanonStats()
    try:
        ok, mapping = decide(*pair, budget=_budget(args), stats=stats)
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
    common.add_argument("--budget", type=_seconds, metavar="SEC",
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
                   help="field order (for sprott --with-lrs: the square root "
                        "of the point count)")
    p.add_argument("--lambda", type=int, dest="lam", metavar="L",
                   help="pair multiplicity, sprott family only")
    p.add_argument("--with-lrs", action="store_true",
                   help="also emit the explicit local resolution system "
                        "(sprott, q a power of 2)")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--lrs-out", metavar="PATH")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", parents=[common],
                       help="check a structure against its axioms")
    p.add_argument("kind", choices=["gq", "bibd", "ovoid", "lrs", "ntlrs"])
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ovoids", parents=[common],
                       help="search a quadrangle for ovoids")
    p.add_argument("incidence", metavar="INC")
    p.add_argument("--limit", type=_count, default=0,
                   help="stop after this many (0 = exhaust)")
    p.add_argument("--out", metavar="PREFIX",
                   help="write each ovoid to PREFIX<i>.ovoid")
    p.set_defaults(func=cmd_ovoids)

    p = sub.add_parser("ntlrs", parents=[common],
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
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("payne", parents=[common],
                       help="derive the quadrangle about a regular point")
    p.add_argument("incidence", metavar="INC")
    p.add_argument("--point", type=int, required=True, metavar="IDX")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_payne)

    p = sub.add_parser("canon", parents=[common],
                       help="canonical certificate digest of a structure")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--ovoid", metavar="PATH",
                   help="colour these points as a distinguished set")
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("iso", parents=[common],
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
