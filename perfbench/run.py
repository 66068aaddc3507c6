"""Benchmark of the gqdesigns library and its gqd command.

Run from the repository root:

    python3 perfbench/run.py --workload forward --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

One run is one workload in this fresh process, pinned to one CPU: one
client, closed loop, one task at a time.  Set-up (importing the package,
building the seeded inputs, writing input files) is repeated and timed each
time: at least three times, and up to fifteen while the repetitions take
under a second in all.  Then the pass, the workload's whole task list,
repeats until the next one would end after --seconds; every task is timed
from outside, and every pass is checked against oracles before the next
starts.  Times are scaled to reference speed by the reference blocks timed
before and during every task and set-up (see workloads.sampled and
README.md).  With
--trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 an untraced warm-up pass comes first, then traced passes
alternate with untraced ones, every task of a traced pass becomes a span,
and the last line carries the per-layer metrics.  The
metric names and units come from BENCHMARK.json.  Spans go to
.perfbench_out/spans-<workload>-seed<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from workloads import (MODULES, WORKLOADS, Recorder, reference_block, sampled,
                       speed_of)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = (3, 15)  # at least 3, more while under SETUP_SECONDS in all
SETUP_SECONDS = 1.0
# reference blocks timed before and after each set-up; more are timed during
# it (see workloads.sampled)
SETUP_REFERENCE_BLOCKS = 4
MAX_PASSES = 500
LIBRARY = ("field", "structures", "geometry", "sprott", "search", "canon",
           "correspondence", "fileformats")


def load_library() -> SimpleNamespace:
    """Import gqdesigns afresh, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n.partition(".")[0] == "gqdesigns"]:
        del sys.modules[name]
    gc.collect()  # free the last import's modules before building the next
    mods = {name: importlib.import_module(f"gqdesigns.{name}") for name in LIBRARY}
    return SimpleNamespace(src=str(SRC), **mods)


def commit() -> str:
    """The checked-out commit, or 'unknown' outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def meta(workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "nproc": os.cpu_count(), "commit": commit()}


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rec: Recorder, outcomes, cpu: float) -> dict:
    """The per-layer figures of one traced pass, at reference speed."""
    speed = speed_of(rec.refs)
    m: dict = {"process.cpu_s": cpu * speed}
    for mod in MODULES:
        m[f"{mod}.calls"] = 0
        m[f"{mod}.busy_s"] = 0.0
        m[f"{mod}.failed"] = 0
    sums: Counter = Counter()
    canon_max = 0.0
    cli_overheads = []
    for (module, _, counts, error), (_, _, took) in zip(outcomes, rec.times):
        took *= speed
        m[f"{module}.calls"] += 1
        m[f"{module}.busy_s"] += took
        m[f"{module}.failed"] += error is not None
        for key, value in counts.items():
            sums[f"{module}.{key}"] += value
        if module == "canon":
            canon_max = max(canon_max, took)
        if module == "cli":
            cli_overheads.append(took - counts.get("inner_s", 0.0) * speed)
    m["geometry.points_per_s"] = rate(sums["geometry.points"], m["geometry.busy_s"])
    for key in ("nodes", "solutions", "budget_cut"):
        m[f"search.{key}"] = sums[f"search.{key}"]
    m["search.nodes_per_s"] = rate(m["search.nodes"], m["search.busy_s"])
    m["search.solutions_per_knode"] = rate(1000 * m["search.solutions"], m["search.nodes"])
    m["canon.vertices"] = sums["canon.vertices"]
    m["canon.max_call_s"] = canon_max
    m["fileformats.bytes"] = sums["fileformats.bytes"]
    m["cli.inner_s"] = sums["cli.inner_s"] * speed
    m["cli.overhead_s"] = m["cli.busy_s"] - m["cli.inner_s"]
    m["cli.overhead_p50_ms"] = 1000 * statistics.median(cli_overheads) if cli_overheads else 0.0
    return m


def measure(args, work: Path) -> tuple[dict, list[str], dict]:
    setup_times: list[float] = []  # each at reference speed
    spent = 0.0
    run_pass = None
    while len(setup_times) < SETUP_REPEATS[0] or (
            len(setup_times) < SETUP_REPEATS[1] and spent < SETUP_SECONDS):
        rep_dir = work / f"setup{len(setup_times)}"
        rep_dir.mkdir()
        run_pass = None  # the last set-up's inputs go before the next is built
        refs = [reference_block() for _ in range(SETUP_REFERENCE_BLOCKS)]
        run_pass, start, end, during = sampled(
            lambda: WORKLOADS[args.workload](load_library(), random.Random(args.seed),
                                             args.small, str(rep_dir)))
        refs += during + [reference_block() for _ in range(SETUP_REFERENCE_BLOCKS)]
        took = end - start - sum(during)
        spent += took
        setup_times.append(took * speed_of(refs))

    traced_on = args.trace == 1
    # per pass: traced or not, task time as measured, and its speed factor
    passes: list[tuple[bool, float, float]] = []
    layers: list[dict] = []
    spans: list[dict] = []
    errors: list[str] = []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        # with tracing, an untraced warm-up pass comes first; after it
        # traced and untraced passes alternate
        traced = traced_on and len(passes) % 2 == 1
        rec = None
        gc.collect()  # garbage of the last pass must not raise this one's peak
        rec = Recorder()
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        run_pass(rec)
        rec.refs.append(reference_block())
        end = time.perf_counter()
        cpu = cpu_seconds() - cpu0
        outcomes = rec.outcomes()
        passes.append((traced, rec.raw_s(), speed_of(rec.refs)))
        attempted += len(outcomes)
        for module, name, _, error in outcomes:
            if error is not None:
                failed += 1
                errors.append(f"{module}.{name}: {error}")
        if traced:
            layers.append(layer_metrics(rec, outcomes, cpu))
            pass_id = f"pass{len(passes) - 1}"
            spans.append({"id": pass_id, "name": "pass", "start": start - begin,
                          "end": end - begin})
            for (module, name, counts, error), (t0, t1, _) in zip(outcomes, rec.times):
                spans.append({"name": f"{module}.{name}", "start": t0 - begin,
                              "end": t1 - begin, "parent": pass_id, "counts": counts,
                              "failed": error is not None})
        elapsed = time.perf_counter() - begin
        if traced_on and len(passes) < 3:
            continue
        if elapsed + elapsed / len(passes) > args.seconds or len(passes) >= MAX_PASSES:
            break

    untraced = [(raw, speed) for traced, raw, speed in passes if not traced]
    info = meta(args.workload, args.seed)
    info.update(passes=len(untraced), traced_passes=len(passes) - len(untraced),
                setups=len(setup_times), attempted=attempted, failed=failed,
                raw_pass_s=round(statistics.median(raw for raw, _ in untraced), 4),
                speed=round(statistics.median(speed for _, speed in untraced), 4))
    if traced_on:
        for span in spans:
            span.update(workload=args.workload, seed=args.seed)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": info}) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
        traced_s = [raw * speed for traced, raw, speed in passes if traced]
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced_s)
            / statistics.median(raw * speed for raw, speed in untraced[1:]))
    else:
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {"pass_s": statistics.median(raw * speed for raw, speed in untraced),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    return metrics, errors, info


def emit(spec: dict, traced: bool, metrics: dict, errors: list[str], info: dict) -> None:
    kind = "per_layer" if traced else "end_to_end"
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    for error in errors[:5]:
        print(error, file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in info.items()))
    if not traced:
        print(f"  pass_s       {metrics['pass_s']:.4f} s   (median of {info['passes']} passes; "
              f"raw {info['raw_pass_s']:.4f} s, speed factor {info['speed']:.4f})")
        print(f"  setup_s      {metrics['setup_s']:.4f} s   (median of {info['setups']} set-ups)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MiB")
    print(f"  fail_ratio   {rate(info['failed'], info['attempted']):.4f} ratio "
          f"({info['failed']} of {info['attempted']} tasks)")
    print(json.dumps({"correct": info["failed"] == 0, "attempted": info["attempted"],
                      "failed": info["failed"], "metrics": out}))


def self_check() -> int:
    """Every workload at its smallest sizes, both trace modes: each metric of
    BENCHMARK.json is emitted with its unit and no task fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--small"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                kind = "per_layer" if trace else "end_to_end"
                want = {m["name"]: m["unit"] for m in spec[kind]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
                if result["failed"] or not result["correct"]:
                    problems.append(f"fail_ratio is {result['failed']}/{result['attempted']}: "
                                    f"{proc.stderr.strip()[-500:]}")
                if not trace:
                    shown = "  ".join(f"{k} {v['value']:.4g} {v['unit']}"
                                      for k, v in result["metrics"].items())
                    print(f"{name:8s} {shown}  fail_ratio "
                          f"{result['failed'] / result['attempted']:.4g} ratio")
            for problem in problems:
                print(f"{name} --trace {trace}: {problem}")
            bad += bool(problems)
    print("self-check " + ("failed" if bad else "passed"))
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest sizes of each task list, for the self-check")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload small and check the output")
    args = parser.parse_args()
    # a terminated run still removes its files and waits for its gqd child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "gqdesigns" / "__init__.py").is_file():
        print(f"perfbench: no gqdesigns package under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    # one CPU for this process and its gqd children, so that the reference
    # blocks time the CPU the tasks run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        metrics, errors, info = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    emit(spec, args.trace == 1, metrics, errors, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
