"""syncword benchmark: drives `syncword.cli.main(argv)` in-process.

    python3 bench/run.py --workload {reset,verify,scan} --seed N \\
        --seconds S --trace {0,1}

Inputs come from the seed (see workloads.py).  The benchmark runs whole
passes over the workload's op list, closed loop, one op at a time, until the
next pass would end after `--seconds`; there is always at least one pass.
Every output of every pass is checked.  Times are scaled to a reference host
speed (hostspeed.py); the raw times are kept in the record.

With --trace 0 it prints the end-to-end metrics, measured untraced.  With
--trace 1 it runs untraced passes for half the time, then one pass with every
layer wrapped in spans (spans.py), and prints the per-layer metrics and the
trace overhead.  A record with metadata goes to bench/out/, and the last
line of stdout is the result as one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
OUT = BENCH / "out"
WORKLOADS = ("reset", "verify", "scan")
DEFAULT_SEED = 1
SETUP_IMPORTS = 30

# Times the import, then runs the host-speed kernel (which imports fractions,
# so it must come second).
IMPORT_PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; "
                "t = time.perf_counter(); import syncword.cli; "
                "t = time.perf_counter() - t; import hostspeed; "
                "print(t, min(hostspeed.probe() for _ in range(5)))")


def measure_setup_s() -> tuple[float, float]:
    """Median time to import syncword.cli in a fresh interpreter, scaled
    and raw.  Each interpreter runs the host-speed kernel five times right
    after the import, and its import time is scaled by the fastest run.

    The first import writes the bytecode cache and is not counted."""
    cmd = [sys.executable, "-E", "-s", "-c", IMPORT_PROBE, str(SRC), str(BENCH)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    raw, scaled = [], []
    for _ in range(SETUP_IMPORTS):
        t, kernel = map(float, subprocess.run(cmd, check=True, capture_output=True,
                                              text=True, timeout=120).stdout.split())
        raw.append(t)
        scaled.append(t * hostspeed.scale(kernel))
    return statistics.median(scaled), statistics.median(raw)


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib() -> float:
    """Peak RSS of this process or its largest child (fork workers), MiB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


class Pass:
    """One run over the op list: per-op latency, outputs and pass totals.

    A hostspeed.Sampler runs while the ops do; each op's latency is net of
    the sampler's own time, and its scaled latency uses the kernel runs
    around it (see hostspeed.py)."""

    def __init__(self, cli, ops, recorder: spans.Recorder | None = None):
        self.outputs: list[tuple[object, str]] = []
        spans_at: list[tuple[float, float]] = []
        with hostspeed.Sampler() as sampler:
            start = perf_counter()
            cpu0 = cpu_seconds()
            for i, op in enumerate(ops):
                if recorder is not None:
                    recorder.op_id = i
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = perf_counter()
                    try:
                        rc = cli.main(list(op.argv))
                    except Exception as e:  # an op that raises is a failed op
                        rc = f"{type(e).__name__}: {e}"
                    t1 = perf_counter()
                spans_at.append((t0, t1))
                self.outputs.append((rc, out.getvalue()))
            cpu1 = cpu_seconds()
            end = perf_counter()
        self.wall_s = end - start
        self.latencies = [t1 - t0 - sampler.kernel_time(t0, t1) for t0, t1 in spans_at]
        self.scaled = [t * sampler.factor(t0, t1)
                       for t, (t0, t1) in zip(self.latencies, spans_at)]
        self.raw_cpu_s = cpu1 - cpu0 - sampler.kernel_time(start, end)
        self.cpu_s = self.raw_cpu_s * sum(self.scaled) / sum(self.latencies)
        self.kernel_ms = [1e3 * d for d in sampler.durations]


def check_pass(workload: str, ops, p: Pass, golden: dict):
    """(failures, work units) of one pass; a failure is (op index, message)."""
    failures, work = [], 0
    for i, (op, (rc, out)) in enumerate(zip(ops, p.outputs)):
        try:
            workloads.check_output(workload, op, rc, out, golden)
            work += workloads.work_units(workload, out)
        except (workloads.CheckError, KeyError, TypeError, ValueError) as e:
            failures.append((i, f"{' '.join(op.argv)}: {type(e).__name__}: {e}"))
    return failures, work


def run_passes(cli, ops, seconds: float, until: float) -> list[Pass]:
    """Untraced passes while the next one is expected to end by `until`."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(Pass(cli, ops))
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds * until:
            return passes


def percentile(values, q: int) -> float:
    """q-th percentile of at least two values, interpolated between the
    order statistics (never beyond the largest)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metadata(args, digest: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "syncword").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "input_digest": digest,
        "cpu_count": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version, "platform": platform.platform(),
        "commit": commit, "src_sha256": src.hexdigest(),
        "why": workloads.WHY[args.workload],
        "work_unit": workloads.WORK_UNIT[args.workload],
        "layer_map": workloads.LAYER_MAP,
        "out_of_scope": workloads.OUT_OF_SCOPE,
        "spread": "see bench/README.md",
    }


def op_latencies(passes: list[Pass], scaled: bool = True) -> list[float]:
    """Each op's median latency over the passes: one sample per op."""
    return [statistics.median(ts) for ts in zip(*(p.scaled if scaled else p.latencies
                                                  for p in passes))]


def end_to_end(passes: list[Pass], work: int, failed: int,
               attempted: int) -> tuple[dict, dict]:
    per_op = op_latencies(passes)
    wall_s = statistics.median(sum(p.scaled) for p in passes)
    setup_s, raw_setup_s = measure_setup_s()
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1e3 * percentile(per_op, 90), "ms"),
        "work_per_s": (work / wall_s, "1/s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "ok_frac": (1 - failed / attempted, "ratio"),
    }
    raw_per_op = op_latencies(passes, scaled=False)
    extra = {"passes": len(passes), "latency_samples": len(per_op),
             "failed_frac": failed / attempted,
             "raw": {"setup_s": raw_setup_s,
                     "wall_s": statistics.median(sum(p.latencies) for p in passes),
                     "op_p50_ms": 1e3 * statistics.median(raw_per_op),
                     "op_p90_ms": 1e3 * percentile(raw_per_op, 90),
                     "cpu_s": statistics.median(p.raw_cpu_s for p in passes)},
             "pass_wall_s": [p.wall_s for p in passes],
             "pass_kernel_ms": [p.kernel_ms for p in passes],
             "op_ms": [1e3 * t for t in per_op]}
    return metrics, extra


def per_layer(workload: str, cli, ops, seconds: float):
    """Untraced passes for half the time, then one traced pass."""
    passes = run_passes(cli, ops, seconds, until=0.5)
    recorder = spans.Recorder()
    recorder.install()
    try:
        traced = Pass(cli, ops, recorder)
    finally:
        recorder.uninstall()
    untraced_wall = statistics.median(sum(p.scaled) for p in passes)
    summary = recorder.summarize()
    values = spans.layer_metrics(summary, recorder.counters)
    values["trace.overhead"] = sum(traced.scaled) / untraced_wall
    values["trace.spans"] = len(recorder.name)
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    layer_self = {layer: values[f"{layer}.self_s"] for layer in spans.LAYERS[:-1]}
    layer_self["cli"] = values["cli.main.self_s"]
    extra = {"passes": len(passes), "traced_wall_s": traced.wall_s,
             "untraced_wall_s": untraced_wall,
             "self_share": {k: v / summary["cli.main"]["incl_s"]
                            for k, v in layer_self.items()},
             "spans_file": str(OUT / f"spans-{workload}.bin.gz"),
             "by_span": summary}
    recorder.write(OUT / f"spans-{workload}.bin.gz")
    return passes + [traced], metrics, extra


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("sync.us_") or name.endswith("us_per_table"):
        return "us"
    if name.endswith(("ratio", "overhead")):
        return "ratio"
    return "count"


def record_golden(workload: str, ops, p: Pass):
    golden = workloads.load_golden(workload)
    for op, (rc, out) in zip(ops, p.outputs):
        golden[op.key] = workloads.summarize_output(workload, rc, out)
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    path = workloads.GOLDEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this seed's outputs as golden (seed commit only)")
    args = parser.parse_args(argv)

    if not (SRC / "syncword" / "cli.py").is_file():
        print(f"error: no syncword sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from syncword import cli

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build_ops(args.workload, args.seed, workdir)
        digest = workloads.input_digest(ops)
        golden = workloads.load_golden(args.workload)
        if args.record_golden:
            record_golden(args.workload, ops, Pass(cli, ops))
            golden = workloads.load_golden(args.workload)
        if args.trace:
            passes, metrics, extra = per_layer(args.workload, cli, ops, args.seconds)
        else:
            passes = run_passes(cli, ops, args.seconds, until=1.0)
        failures, works = [], []
        for p in passes:
            fails, work = check_pass(args.workload, ops, p, golden)
            failures += fails
            works.append(work)
        attempted = len(ops) * len(passes)
        if not args.trace:
            metrics, extra = end_to_end(passes, works[0], len(failures), attempted)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"meta": metadata(args, digest), "ops": len(ops),
              "attempted": attempted, "failed": len(failures),
              "failures": failures[:20], **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for i, message in failures[:5]:
        print(f"FAILED op {i}: {message}", file=sys.stderr)
    print(f"{args.workload}: {len(ops)} ops x {len(passes)} passes, "
          f"inputs sha256 {digest[:16]}, record {OUT / name}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
