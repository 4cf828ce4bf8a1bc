"""Benchmark runner: one workload, one fresh process, one closed-loop client.

    python3 bench/run.py --workload window --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

The client replays the workload's request list in rounds while the next
round is expected to end within --seconds (at least three rounds, four
when traced).  Every round starts from cold library caches, as a fresh
CLI invocation does, and every output of every round is checked against
the references.

--trace 0 reports the end-to-end metrics: setup_s (median of fresh
interpreters, two after each round, timed from launch to
`import hamming_cutoff.cli` done), wall_s and cpu_s (medians over rounds
of one pass through the request list; CPU counts every thread of the
process), peak_rss_mb (ru_maxrss), ok_frac (1 - failed / attempted
requests) and float_err_max (max |float output - exact reference| over
the fixed reference rows).  The times are the program's own, unscaled.

--trace 1 alternates untraced and traced rounds and reports the
per-layer metrics of `layers.py`, medians over traced rounds, plus
trace.overhead_ratio = traced wall_s / untraced wall_s.

The last line of stdout is the JSON result; the lines before it carry
the environment, each metric with its unit and sample count, and any
failed check.  A full report, with the spans of the last traced round,
is written to .bench_out/ in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

import layers
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "hamming_cutoff"
SETUP_PROBES_PER_ROUND = 2
MIN_ROUNDS = 3  # untraced; a traced run alternates and needs MIN_TRACED_ROUNDS
MIN_TRACED_ROUNDS = 4
END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ok_frac", "float_err_max")
PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
         "import hamming_cutoff.cli; print(time.monotonic())")


def load_library():
    """Import the package from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import hamming_cutoff.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"cannot import {PACKAGE} from {SRC}: {exc}")
    if not Path(sys.modules[PACKAGE].__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"{PACKAGE} was imported from outside {SRC}")
    return types.SimpleNamespace(
        **{m: sys.modules[f"{PACKAGE}.{m}"] for m in layers.MODULES})


def probe_setup():
    """Seconds from launching a fresh interpreter to the library imported."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, "-c", PROBE, str(SRC)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout) - start


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha, dirty = "unknown", None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=60).stdout.strip()
        try:
            sha = git("rev-parse", "HEAD") or "unknown"
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except OSError:
            pass
    import numpy
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha, "git_dirty": dirty, "seed": seed}


def clear_caches(lib):
    """Empty every lru_cache of the package, as a fresh process starts."""
    for module in vars(lib).values():
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == module.__name__:
                obj.cache_clear()


def run_round(requests, lib, tracer, log):
    clear_caches(lib)
    if tracer:
        tracer.reset()
        tracer.install()
    results, walls, cpus = [], [], []
    try:
        for req in requests:
            if tracer:
                tracer.request_id = req.label
            cpu0, start = time.process_time(), time.perf_counter()
            try:
                results.append((req, req.run(lib), None))
            except Exception:
                results.append((req, None, traceback.format_exc()))
            walls.append(time.perf_counter() - start)
            cpus.append(time.process_time() - cpu0)
    finally:
        if tracer:
            tracer.uninstall()
    out = {"traced": tracer is not None, "wall_s": sum(walls), "cpu_s": sum(cpus),
           "request_wall_s": walls, "request_cpu_s": cpus, "failed": 0, "errors": []}
    if tracer:
        snap = tracer.snapshot()
        infos = {name: tracer.originals[name].cache_info() for name in layers.CACHED}
        out["layers"] = layers.layer_metrics(snap, infos)
        out["spans"] = snap["spans"]
    for req, output, exc in results:
        problems, errors = [exc], []
        if exc is None:
            try:
                problems, errors = req.check(output)
            except Exception:
                problems = [traceback.format_exc()]
        out["errors"].extend(errors)
        if problems:
            out["failed"] += 1
            log(f"FAILED {req.label}: {'; '.join(problems[:3])}")
    return out


def summarize(name, unit, samples, lines):
    value = statistics.median(samples)
    lines.append(f"{name:40s} {value:<14.6g} {unit:6s} median of {len(samples)}, "
                 f"min {min(samples):.6g}, max {max(samples):.6g}")
    return {"value": value, "unit": unit}


def measure(args):
    lib = load_library()
    specs = workloads.plan(args.workload, args.seed)
    start = time.perf_counter()
    requests = workloads.prepare(specs)
    prepare_s = time.perf_counter() - start
    env = environment(args.seed)
    print("# env " + json.dumps(env), flush=True)

    def log(msg):
        print("# " + msg, flush=True)

    tracer = Tracer(PACKAGE, layers.MODULES, layers.COUNTERS) if args.trace else None
    setup, rounds, spans = [], [], []
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < min_rounds or time.perf_counter() + rounds[-1]["wall_s"] <= deadline:
        traced = tracer if len(rounds) % 2 else None
        r = run_round(requests, lib, traced, log)
        spans = r.pop("spans", spans)
        rounds.append(r)
        if not args.trace:  # spread over the run, outside the timed rounds
            setup += [probe_setup() for _ in range(SETUP_PROBES_PER_ROUND)]

    attempted = len(rounds) * len(requests)
    failed = sum(r["failed"] for r in rounds)
    lines, metrics = [], {}
    if args.trace:
        plain = [r for r in rounds if not r["traced"]]
        traced = [r for r in rounds if r["traced"]]
        for name in layers.PER_LAYER:
            if name == "trace.overhead_ratio":
                samples = [statistics.median(r["wall_s"] for r in traced)
                           / statistics.median(r["wall_s"] for r in plain)]
            else:
                samples = [r["layers"][name] for r in traced]
            metrics[name] = summarize(name, layers.unit(name), samples, lines)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = {
            "setup_s": ("s", setup),
            "wall_s": ("s", [r["wall_s"] for r in rounds]),
            "cpu_s": ("s", [r["cpu_s"] for r in rounds]),
            "peak_rss_mb": ("MB", [rss]),
            "ok_frac": ("ratio", [1 - failed / attempted]),
            # 1.0, the largest possible TV error, when no reference row came back
            "float_err_max": ("1", [max((e for r in rounds for e in r["errors"]), default=1.0)]),
        }
        for name in END_TO_END:
            metrics[name] = summarize(name, *samples[name], lines)
        lines.append(f"{'failed_frac':40s} {failed / attempted:<14.6g} ratio  "
                     f"{failed} of {attempted} requests")
    for line in lines:
        print("# " + line)

    report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "env": env, "prepare_s": prepare_s,
              "requests": [r.label for r in requests], "setup_s": setup,
              "rounds": rounds, "spans": spans,
              "metrics": metrics}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def measure_all(args):
    """Run every workload in its own process and pass its output through."""
    rc = 0
    for name in workloads.NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc = max(rc, subprocess.run(cmd).returncode)
    return rc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
