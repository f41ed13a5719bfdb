"""Benchmark for convexloc: three workloads, end-to-end and per-module metrics.

Run from the repository root; convexloc is imported from ./src, no install:

    python3 perfbench/run.py --workload polar-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --smoke                     # tiny sizes, checks names

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json; with --trace 1 they are its per_layer
metrics, from a traced run.  The lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench"          # scratch files and span dumps
NAMES = ("polar-batch", "cli-locate", "small-shapes")


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_program() -> None:
    """Put ./src first on sys.path and insist that convexloc comes from it."""
    src = ROOT / "src" / "convexloc"
    if not (src / "__init__.py").is_file():
        fail(f"no convexloc sources at {src}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import convexloc
    if Path(convexloc.__file__).resolve().parent != src:
        fail(f"convexloc imported from {convexloc.__file__}, not from {src}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, sz,
                 workdir: str) -> dict:
    """One run: metrics as name -> (value, unit), query counts and notes."""
    from perfbench.probe import probe
    from perfbench.spans import NullTracer, Tracer
    from perfbench.workloads import WORKLOADS, measure

    w = WORKLOADS[name](seed, sz, workdir)
    if not trace:
        m = measure(w, seconds, sz.min_calls, NullTracer())
        rounds = m.describe_fastest()
        return {"workload": w, "metrics": m.metrics(), "attempted": m.attempted,
                "failed": m.failed, "errors": m.errors,
                "notes": {"setup_s": f"median of {len(m.setup_s)} set-ups",
                          "index_mb": f"median of {len(m.index_bytes)} set-ups",
                          "call_us_p50": rounds, "call_us_p90": rounds,
                          "query_mpts_per_s": rounds,
                          "failed_frac": f"{m.failed} of {m.attempted} queries"}}

    # Traced pass first, so that its spans include the correctness check;
    # the untraced pass after it gives the baseline for the overhead.
    tr = Tracer(name)
    traced = measure(w, seconds / 2, sz.min_calls_traced, tr)
    compare_s = tr.total_s("generators.compare_methods")
    plain = measure(w, seconds / 2, sz.min_calls_traced, NullTracer(), setups=1)
    tr.workload = "probe"
    metrics = probe(seed, sz, workdir, tr, {name: w})
    metrics["generators.compare_s"] = (compare_s, "s")
    for module, seconds_self in tr.self_times().items():
        metrics[f"self.{module}_s"] = (seconds_self, "s")
    metrics["trace.overhead_ratio"] = (traced.call_us(50) / plain.call_us(50), "x")
    metrics["trace.spans"] = (len(tr.spans), "count")
    spans_file = WORK / f"spans-{name}-seed{seed}.jsonl.gz"
    tr.write(spans_file)
    return {"workload": w, "metrics": metrics,
            "attempted": traced.attempted + plain.attempted,
            "failed": traced.failed + plain.failed,
            "errors": traced.errors + plain.errors,
            "notes": {"trace.overhead_ratio":
                      f"traced p50 {traced.call_us(50):.1f} us ({traced.describe_fastest()})"
                      f" / untraced p50 {plain.call_us(50):.1f} us ({plain.describe_fastest()})",
                      "trace.spans": f"written to {spans_file.relative_to(ROOT)}"}}


def select(metrics: dict, wanted: list) -> dict:
    """The metrics BENCHMARK.json lists, each checked against its unit."""
    out = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit!r}, BENCHMARK.json "
                             f"says {entry['unit']!r}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def print_report(result: dict, names: list) -> None:
    metrics, notes = result["metrics"], result["notes"]
    for name in names:
        value, unit = metrics[name]
        print(f"  {name:38s} {value:>16.6g} {unit:7s} {notes.get(name, '')}")
    m = metrics
    if "polar.batch_ns_per_point.b1" in m:
        print("  chunked vs whole-batch polar queries, ns per point:")
        print("    scalar {:.0f} | b1 {:.0f} | b1024 (CSV chunk) {:.0f} | "
              "b65536 {:.0f} | b1048576 (whole batch) {:.0f}".format(
                  m["polar.scalar_us"][0] * 1e3,
                  *(m[f"polar.batch_ns_per_point.b{b}"][0]
                    for b in (1, 1024, 65536, 1048576))))
    for tb in result["errors"][:3]:
        print("  lost call:\n" + tb)


def run_and_report(name, seed, seconds, trace, sz, workdir, spec, env) -> dict:
    result = run_workload(name, seed, seconds, trace, sz, workdir)
    kind = "per_layer" if trace else "end_to_end"
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={int(trace)}")
    print(f"inputs: {result['workload'].describe()}; closed loop, one caller")
    print("env: " + json.dumps(env))
    names = [e["name"] for e in spec[kind]]
    if not trace:
        names.append("failed_frac")
    print_report(result, names)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": select(result["metrics"], spec[kind])}))
    return result


def smoke(spec: dict, seed: int, workdir: str, env: dict) -> int:
    """Every workload at tiny size, untraced and traced; checks every metric
    of BENCHMARK.json appears with its unit and that no query failed."""
    from perfbench.workloads import SMOKE, WORKLOADS

    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for name in NAMES:
        for trace in (False, True):
            try:
                r = run_and_report(name, seed, 0.2, trace, SMOKE, workdir, spec, env)
            except (KeyError, ValueError) as exc:
                problems.append(f"{name} trace={int(trace)}: {exc!r}")
                continue
            if not trace and r["metrics"].get("failed_frac") != (0.0, "frac"):
                problems.append(f"{name}: failed_frac {r['metrics'].get('failed_frac')}")
            if r["failed"]:
                problems.append(f"{name} trace={int(trace)}: {r['failed']} failed queries")
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[*NAMES, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="closed-loop time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at tiny size and check the metric names")
    args = ap.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")
    try:
        spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        fail(f"cannot read {SPEC_FILE}: {exc}")
    load_program()
    from perfbench.envinfo import environment
    from perfbench.workloads import FULL

    env = environment()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.smoke:
            return smoke(spec, args.seed, workdir, env)
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        names = NAMES if args.workload == "all" else (args.workload,)
        for name in names:
            run_and_report(name, args.seed, seconds, bool(args.trace), FULL,
                           workdir, spec, env)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
