"""dyadbloom benchmark.

    python3 perfbench/run.py --workload verify-d8 --seed 2026 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2026 --seconds 20 --trace 0

Run from the root of a checkout; dyadbloom is imported from its src/.  The
workload's inputs come from --seed.  A run first times SETUP_REPEATS fresh
processes that import dyadbloom and build the inputs (setup_s is their
median), then repeats a pass over the workload's operations until --seconds
would be exceeded (wall_s is the median pass time; at least one pass).  Every
operation's output is checked; one that raises, exits non-zero, fails its
suite, writes a non-finite value or misses its reference counts as failed.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (medians over traced passes; a traced pass also
covers one in-process run of the set-up commands, untimed), with the tracing
overhead as the traced minus the untraced median pass time.  Counts
(*_calls, normest.power_iterations, normest.dense_bytes,
weights.generate_attempts, stopping.scan_calls) repeat exactly for a given
seed.  Spans go to .perfbench_work/trace-<workload>-seed<seed>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  A per-run record with the machine, the pass times and any
failures goes to .perfbench_work/result-<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 2026
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

from tracing import Tracer, write_jsonl  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_cli():
    """Import dyadbloom.cli from this checkout's src/, or exit non-zero."""
    if not (SRC / "dyadbloom" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dyadbloom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from dyadbloom import cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"perfbench: imported dyadbloom from {cli.__file__}, not {SRC}")
    return cli


def peak_rss_mb() -> float:
    """This process's resident high-water mark in MiB.  VmHWM belongs to the
    process's own address space; ru_maxrss can carry over the parent's peak
    across exec, so it is only the fallback."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_record() -> list[dict]:
    """Each loaded OpenBLAS library with its configuration and thread count
    (read, never set)."""
    libs = []
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return libs
    paths = sorted({ln.split()[-1] for ln in maps.splitlines()
                    if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for path in paths:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            libs.append(entry)
            continue
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        libs.append(entry)
    return libs


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dyadbloom").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def machine_record() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_record(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def time_setups(commands: list[list[str]]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), str(SRC), json.dumps(commands)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    return times


def run_operation(cli, op) -> tuple[float, str | None]:
    """Time one CLI operation, then check its output."""
    if op.output.exists():
        op.output.unlink()
    captured = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(op.argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:
        dt = perf_counter() - t0
        return dt, "raised: " + traceback.format_exc(limit=3)[-1500:]
    dt = perf_counter() - t0
    try:
        reason = op.check(code, op.output)
    except (KeyError, TypeError, ValueError) as e:
        reason = f"bad output: {e}"
    if reason is not None and code != 0:
        reason += ": " + captured.getvalue()[-500:]
    return dt, reason


def run_setup_in_process(cli, commands: list[list[str]]) -> None:
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            sys.exit(f"perfbench: set-up command failed (exit {code}): {argv}")


def run_passes(cli, ops, setup_commands, seconds: float, trace: bool):
    """Repeat passes over ops while the next one is predicted to fit in
    `seconds`.  With trace, passes alternate untraced and traced; a traced
    pass first reruns the set-up commands in this process, untimed, so that
    their layers are traced too."""
    tracer = Tracer() if trace else None
    passes = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            if traced:
                run_setup_in_process(cli, setup_commands)
            results = [run_operation(cli, op) for op in ops]
        finally:
            if traced:
                tracer.uninstall()
        passes.append({
            "traced": traced,
            "wall_s": sum(dt for dt, _ in results),
            "ops": [{"label": op.label, "s": dt, "failure": why}
                    for op, (dt, why) in zip(ops, results)],
            "layers": tracer.layer_metrics() if traced else None,
            "spans": tracer.spans if traced else None,
        })
        print(f"pass {len(passes)}{' (traced)' if traced else ''}: "
              f"{passes[-1]['wall_s']:.4f} s, "
              f"{sum(why is not None for _, why in results)}/{len(ops)} failed", flush=True)
        elapsed = perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + passes[-1]["wall_s"] > seconds:
            return passes, tracer


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(args) -> int:
    cli = import_cli()
    workload = WORKLOADS[args.workload]()
    tag = f"{workload.name}-seed{args.seed}"
    work = WORK / f"{tag}-trace{args.trace}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}", flush=True)
        machine = machine_record()
        print("machine " + json.dumps(machine, sort_keys=True), flush=True)
        setup_commands = workload.setup_commands(args.seed, work)
        setups = time_setups(setup_commands)
        ops = workload.operations(args.seed, work, cli)
        passes, tracer = run_passes(cli, ops, setup_commands, args.seconds, bool(args.trace))
        peak = peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(o["label"], o["failure"]) for p in passes
                for o in p["ops"] if o["failure"] is not None]
    attempted = sum(len(p["ops"]) for p in passes)
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    if not args.trace:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": peak,
        }
    else:
        traced = [p for p in passes if p["traced"]]
        layers = [p["layers"] for p in traced]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
        values["trace.untraced_wall_s"] = statistics.median(untraced)
        values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
        trace_path = WORK / f"trace-{tag}.jsonl"
        n_spans = write_jsonl(trace_path, [p["spans"] for p in traced])
        print(f"wrote {n_spans} spans to {trace_path.relative_to(ROOT)}")
        if tracer.skipped:
            print("skipped (absent from dyadbloom, zero calls): " + ", ".join(tracer.skipped))

    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        sys.exit(f"perfbench: BENCHMARK.json names metrics this run cannot compute: {missing}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for label, why in failures:
        print(f"FAILED {label}: {why}")
    print(f"setup_s       {statistics.median(setups):.4f} s  "
          f"(median of {len(setups)} set-ups: {', '.join(f'{t:.3f}' for t in setups)})")
    print(f"wall_s        {statistics.median(untraced):.4f} s  "
          f"(median of {len(untraced)} untraced passes: "
          f"{', '.join(f'{t:.3f}' for t in untraced)})")
    print(f"peak_rss_mb   {peak:.1f} MB")
    print(f"failed_frac   {len(failures) / attempted:.4g} ({len(failures)} of {attempted} operations)")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:<30} {m['value']:.6g} {m['unit']}")

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "source": source_record(),
        "setup_s": setups,
        "passes": [{k: p[k] for k in ("traced", "wall_s", "ops")} for p in passes],
        "failed_frac": {"failed": len(failures), "attempted": attempted},
        "metrics": metrics,
    }
    (WORK / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process so that peak_rss_mb is
    that workload's own, and print one summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"perfbench: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description="dyadbloom benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
