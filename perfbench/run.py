"""Fixed-work benchmark of weilpoly: one workload, one seed, run to its end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; weilpoly is imported from its src/
directory.  The seed fixes the input list (inputs.py); the run goes
through every input once, one op at a time in a closed loop, and is never
cut by a clock.  --seconds is the nominal run length recorded in
BENCHMARK.json; each list is sized to take about that long on the
reference machine (README.md), so the work does not depend on it.

Times are reported in reference milliseconds: each op's wall time scaled
by the host speed that fixed calibration work, timed right before every
op and after the last, reads around it (hostspeed.py).  The unscaled
figures go to the details file.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 a separate run with every listed layer
wrapped reports the per-layer metrics instead.  Both give the ops
attempted and failed (raised, undecided, or wrong) and whether the output
checks passed.  Details go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import hostspeed
import inputs
import procs
from tracing import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("necessity12", "prune12", "scan14", "cli")
SETUP_PROBES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be within 1..60")
    return args


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU.

    A calibration sample speaks for the op next to it only if both ran on
    the same CPU.  Where the affinity cannot be set the run goes on
    unpinned.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def setup_probes(env: dict) -> tuple[list[float], list[float]]:
    """SETUP_PROBES fresh set-ups between calibration interpreters:
    (wall seconds, reference seconds) of each."""
    cal = [hostspeed.child_sample(env, ROOT)]
    wall = []
    for _ in range(SETUP_PROBES):
        wall.append(procs.setup_seconds(env, ROOT))
        cal.append(hostspeed.child_sample(env, ROOT))
    scale = hostspeed.scales(cal, len(wall), hostspeed.REFERENCE_CHILD_S)
    return wall, [w * s for w, s in zip(wall, scale)]


def child_trace_path(i: int) -> Path:
    return OUT_DIR / f"cli-child-{i}.json"


def run_ops(workload: str, items: list[dict], env: dict, tracer=None, trace_children: bool = False) -> dict:
    """Every op once, in order, with a calibration sample before each and
    after the last.  In-process ops are traced by `tracer`; with
    `trace_children`, each cli child traces itself into child_trace_path."""
    op = None
    if workload == "cli":
        calibrate = lambda: hostspeed.child_sample(env, ROOT)  # noqa: E731
    else:
        import ops

        op = getattr(ops, workload)
        calibrate = hostspeed.sample
    samples = [calibrate() for _ in range(3)][-1:]  # the first calls warm up
    times, outcomes, child_rss = [], [], []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.op = i
        trace_file = child_trace_path(i) if trace_children else None
        if trace_file is not None:
            trace_file.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            if op is None:
                out, rss = procs.cli_command(item, env, ROOT, trace_file)
                child_rss.append(rss)
            else:
                out = op(item)
        except Exception as exc:  # the op failed; the run goes on and counts it
            out = {"error": "".join(traceback.format_exception_only(exc)).strip()}
        times.append(time.perf_counter() - t0)
        outcomes.append(out)
        samples.append(calibrate())
    if op is None:
        peak_rss_mb = max(child_rss, default=0.0)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"times": times, "outcomes": outcomes, "samples": samples, "peak_rss_mb": peak_rss_mb}


def cli_child_spans(n_ops: int) -> tuple[list, list[tuple[int, float]]]:
    """The traced children's spans, re-indexed, and (op, import seconds)."""
    spans, imports = [], []
    for i in range(n_ops):
        path = child_trace_path(i)
        if not path.exists():  # the child died before writing its trace
            continue
        doc = json.loads(path.read_text())
        path.unlink()
        base = len(spans)
        spans += [[layer, s, e, p + base if p >= 0 else -1, i] for layer, s, e, p, _ in doc["spans"]]
        imports.append((i, doc["import_s"]))
    return spans, imports


def timing_metrics(times: list[float], setup: list[float], peak_rss_mb: float) -> dict:
    return {
        "ops_per_s": len(times) / sum(times),
        "op_ms_p50": statistics.median(times) * 1000,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans: list, scale: list[float], imports: list[tuple[int, float]], rejected: int) -> dict:
    n_ops = len(scale)
    values = {
        "bounds12.rejected_share": 100.0 * rejected / n_ops,
        "cli.import_ms": 1000 * statistics.median(s * scale[i] for i, s in imports),
    }
    for layer, tot in layer_totals(spans, scale).items():
        values[f"{layer}.calls"] = tot["calls"] / n_ops
        values[f"{layer}.ms"] = 1000 * tot["self_s"] / n_ops
    return values


def bounds_rejected(workload: str, outcomes: list[dict]) -> int:
    if workload == "prune12":
        return sum(1 for o in outcomes if o.get("bounds") == "fail")
    if workload == "necessity12":
        return sum(1 for o in outcomes if "fail" in {*o.get("corollary", {}).values(), *o.get("trivial", {}).values()})
    return 0


def summary(workload: str, outcomes: list[dict]) -> dict:
    """A histogram of what the ops answered, for the details file."""
    hist: dict[str, int] = {}
    for o in outcomes:
        if "error" in o:
            key = "error"
        elif workload == "necessity12":
            key = "all pass" if {*o["corollary"].values(), *o["trivial"].values()} == {"pass"} else "not all pass"
        elif workload == "prune12":
            key = f"bounds {o['bounds']}" + ("" if o["weil"] is None else f", weil {o['weil']}")
        elif workload == "scan14":
            key = o["verdict"] or "not weil"
        else:
            key = f"exit {o['exit']}"
        hist[key] = hist.get(key, 0) + 1
    return hist


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "weilpoly" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no weilpoly sources (src/weilpoly) or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    env = procs.child_env(ROOT)
    pin_to_one_cpu()
    traced = args.trace == 1
    setup_wall, setup_ref = ([], []) if traced else setup_probes(env)
    if args.workload == "cli":
        items = inputs.cli(args.seed, ROOT, OUT_DIR)
    else:
        items = getattr(inputs, args.workload)(args.seed)

    tracer = None
    in_process_import = []
    if args.workload != "cli":
        t0 = time.perf_counter()
        import ops  # imports weilpoly

        import weilpoly.cli  # noqa: F401  (the rest of a fresh interpreter's set-up)

        ops.prepare()
        in_process_import.append((0, time.perf_counter() - t0))
    if traced and args.workload != "cli":
        tracer = Tracer()
        tracer.install()
    run = run_ops(args.workload, items, env, tracer, trace_children=traced and args.workload == "cli")
    if tracer is not None:
        tracer.uninstall()
    reference = hostspeed.REFERENCE_CHILD_S if args.workload == "cli" else hostspeed.REFERENCE_S
    scale = hostspeed.scales(run["samples"], len(items), reference)

    outcomes = run["outcomes"]
    problems = checks.CHECKS[args.workload](items, outcomes)
    failed = checks.failed_ops(args.workload, outcomes, problems)

    raw = timing_metrics(run["times"], setup_wall or [0.0], run["peak_rss_mb"])
    if traced:
        if args.workload == "cli":
            spans, imports = cli_child_spans(len(items))
        else:
            spans, imports = tracer.spans, in_process_import
        values = per_layer(spans, scale, imports, bounds_rejected(args.workload, outcomes))
        wanted = spec["per_layer"]
    else:
        ref_times = [t * s for t, s in zip(run["times"], scale)]
        values = timing_metrics(ref_times, setup_ref, run["peak_rss_mb"])
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not problems, "attempted": len(items), "failed": len(failed), "metrics": metrics}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "args": vars(args),
        "result": result,
        "reference_ops_per_s": len(items) / sum(t * s for t, s in zip(run["times"], scale)),
        "unscaled": raw,
        "calibration_ms_median": 1000 * statistics.median(run["samples"]),
        "answers": summary(args.workload, outcomes),
        "op_wall_ms": [round(1000 * t, 3) for t in run["times"]],
        "calibration_us": [round(1e6 * k, 1) for k in run["samples"]],
        "problems": problems[:50],
        "failed_ops": [{"op": i, **{k: v for k, v in outcomes[i].items() if k != "stdout"}} for i in sorted(failed)][:50],
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(details, indent=1, default=str) + "\n")
    if traced:
        (OUT_DIR / f"{tag}-spans.json").write_text(json.dumps(spans))
    for i, message in problems[:10]:
        print(f"check failed (op {i}): {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
