"""absmeter benchmark: CLI and in-process latency, plus a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke          # every workload, short, all metrics

One client drives absmeter in a closed loop: it sends the next operation
only after the previous one finished, as a command-line caller waiting for
its report does. Each operation runs twice, in alternating order: as a whole
``python -m absmeter`` subprocess (interpreter start, import, parse,
evaluation, rendering) and as the equivalent library call in this warm
interpreter. Workloads (see BENCHMARK.json for why each exists):

    barchart         analyze --format json on the exported barchart exemplar
    small-scenarios  every subcommand over the repository's small inputs
    stochastic-4096  analyze --format json on a seeded generated scenario

BENCHMARK.json gates only the first two. stochastic-4096 (the loader and
the CSR channel branch) is here for traced and manual runs: its parse-heavy
ops swing with the load of the machine's other tenants far more than the
others, and on a shared 2-core VM its ten-run spread reached 0.2-0.3 of the
median, beyond any usable regression bound.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` is a separate
run that times the public calls of each layer (see tracing.py) and writes
every span to ``perfbench/out/trace-<workload>-seed<N>.json`` when it ends.

Each operation is checked: exit code 0, CLI stdout equal to the library's
output and to its own earlier repeats, and the report's numbers (AC equals
H_in - H_out, PD bounds, closed forms on barchart, +inf PD on the
stochastic direct route). A failed check counts against ``ok_ratio``
(passed over attempted operations, CLI and library together; 1 - fail_ratio)
and does not stop the run.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics. The lines before it record the environment and print
every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("barchart", "stochastic-4096", "small-scenarios")

# setup_s times a fresh interpreter before every fourth op, so its samples
# spread over the run like the others; the traced run makes this many CLI
# probes (import time, floor). Each metric is the median of its samples.
SETUP_EVERY = 4
PROBE_REPEATS = 5

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60

SETUP_CODE = "import sys, absmeter\nfor p in sys.argv[1:]:\n    open(p, 'rb').read()\n"
THREADS_CODE = (
    "import absmeter, re\n"
    "print(re.search(r'Threads:\\s+(\\d+)', open('/proc/self/status').read()).group(1))\n"
)
FLOOR_ARGS = ["score", "--condition-a", "yes", "--condition-b", "satisfied"]


class Run:
    """Counts and failure messages for one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, bytes] = {}

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 20:
                print(f"FAIL {label}: {'; '.join(problems)}", file=sys.stderr)

    def repeat_problem(self, key: str, out: bytes) -> list[str]:
        first = self.outputs.setdefault(key, out)
        return [] if first == out else ["output differs from an earlier repeat"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], env: dict, stderr_path: Path):
    """Run a child to exit; returns wall seconds, peak RSS MB, stdout, code."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, out, proc.returncode


def run_cli(args: list[str], env: dict):
    stderr_path = OUT / "cli-stderr.txt"
    wall, rss, out, code = spawn([sys.executable, "-m", "absmeter", *args], env, stderr_path)
    problems = []
    if code != 0:
        message = stderr_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
        problems.append(f"exit code {code}: {message}")
    return wall, rss, out, problems


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value. With ten samples or fewer there is none; the maximum is given."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1] if ordered else 0.0
    k = n - 11
    return 100.0 * (k + 1) / n, ordered[k]


def environment(workload: str, seed: int, seconds: int, env: dict) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    threads = None
    probe = subprocess.run(
        [sys.executable, "-c", THREADS_CODE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if probe.returncode == 0:
        threads = int(probe.stdout.strip())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cli_threads_after_import": threads,
        "loadavg_start": list(os.getloadavg()),
        "loop": "closed loop, one client",
    }


def measure_setup(files: list[Path], env: dict, run: Run, samples: list[float]) -> None:
    """Time a fresh interpreter to absmeter imported and the input files read."""
    wall, _, _, code = spawn(
        [sys.executable, "-c", SETUP_CODE, *map(str, files)], env, OUT / "setup-stderr.txt"
    )
    run.record("setup", [] if code == 0 else [f"set-up child exit code {code}"])
    if code == 0:
        samples.append(wall)


def inprocess(op, workloads, workload_name: str):
    """Timed library call plus its numeric checks; returns ms, text, problems."""
    start = time.perf_counter()
    text, scenario, report = workloads.run_inprocess(op)
    ms = (time.perf_counter() - start) * 1e3
    problems = workloads.check_report(workload_name, scenario, report) if report else []
    return ms, text, problems


def paced(ops: list, seconds: float):
    """Yield (index, op) over whole cycles of ``ops`` for about ``seconds``.

    Whole cycles keep the op mix the same in every run; a further cycle
    starts if at least half of one, as long as the last, still fits.
    """
    start = time.perf_counter()
    i = 0
    while True:
        cycle_start = time.perf_counter()
        for op in ops:
            yield i, op
            i += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 > seconds:
            return


def end_to_end(wl, workloads, seconds: int, env: dict, run: Run):
    setup, cli_ms, lib_ms, rss = [], [], [], []
    ops = 0
    for i, op in paced(wl.ops, seconds):
        if i % SETUP_EVERY == 0:
            measure_setup(wl.input_files, env, run, setup)
        results = {}
        for side in (("cli", "lib") if i % 2 == 0 else ("lib", "cli")):
            if side == "cli":
                wall, mb, out, problems = run_cli(op.args, env)
                if not problems:
                    cli_ms.append(wall * 1e3)
                    rss.append(mb)
                results["cli"] = (out, problems)
            else:
                try:
                    problems = []
                    gc.collect()  # garbage of earlier ops is not this op's cost
                    for _ in range(wl.lib_repeats):
                        ms, text, found = inprocess(op, workloads, wl.name)
                        lib_ms.append(ms)
                        problems += found
                        problems += run.repeat_problem(f"lib {op.label}", text.encode("utf-8"))
                    results["lib"] = (text.encode("utf-8"), problems)
                except Exception as err:  # noqa: BLE001 - count it and go on
                    results["lib"] = (None, [f"library call raised {err!r}"])
        cli_out, cli_problems = results["cli"]
        lib_out, lib_problems = results["lib"]
        if not cli_problems:
            if lib_out is not None and cli_out != lib_out:
                cli_problems.append("CLI stdout differs from the library's output")
            cli_problems += run.repeat_problem(f"cli {op.label}", cli_out)
        run.record(f"cli {op.label}", cli_problems)
        run.record(f"lib {op.label}", lib_problems)
        ops += 1
    cli_pct, cli_tail = tail(cli_ms)
    lib_pct, lib_tail = tail(lib_ms)
    metrics = {
        "cli_wall_ms.p50": (median(cli_ms), "ms", f"n={len(cli_ms)}"),
        "cli_wall_ms.tail": (cli_tail, "ms", f"p{cli_pct:.1f} of n={len(cli_ms)}"),
        "analyze_ms.p50": (median(lib_ms), "ms", f"n={len(lib_ms)}"),
        "analyze_ms.tail": (lib_tail, "ms", f"p{lib_pct:.1f} of n={len(lib_ms)}"),
        "peak_rss_mb": (median(rss), "MB", f"median of n={len(rss)} CLI children"),
        "setup_s": (median(setup), "s", f"median of n={len(setup)} fresh interpreters"),
        "ok_ratio": (
            1.0 - run.failed / max(run.attempted, 1),
            "ratio",
            f"{run.attempted - run.failed} of {run.attempted} operations passed",
        ),
    }
    return metrics, {"cli": len(cli_ms), "in_process": len(lib_ms), "ops": ops}


def import_times(stderr: str) -> tuple[float, float]:
    """Cumulative ms of `import absmeter` and of the scipy modules it pulls
    in, from ``python -X importtime`` output (children print before parents,
    nesting shown by indentation)."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    absmeter_us = next((cum for _, name, cum in rows if name == "absmeter"), 0)
    scipy_us = 0
    # walk parents before children: a scipy module counts unless a scipy
    # module encloses it
    stack: list[tuple[int, bool]] = []
    for depth, name, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cum
        stack.append((depth, inside or is_scipy))
    return absmeter_us / 1e3, scipy_us / 1e3


def traced(wl, workloads, tracing, seconds: int, env: dict, probes: int, run: Run):
    import_ms, scipy_ms, floor_ms = [], [], []
    for _ in range(probes):
        probe = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import absmeter"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        run.record("import probe", [] if probe.returncode == 0 else ["import failed"])
        total, scipy = import_times(probe.stderr)
        import_ms.append(total)
        scipy_ms.append(scipy)
        wall, _, out, problems = run_cli(FLOOR_ARGS, env)
        if not problems and out != b"3\n":
            problems.append(f"score printed {out!r}, expected b'3\\n'")
        run.record("floor probe", problems)
        if not problems:
            floor_ms.append(wall * 1e3)

    reports = {}
    for op in wl.ops:
        if op.kind == "analyze":
            reports[op.label] = workloads.run_inprocess(op)[2]
    counters = {
        k: 0 for k in ("costbenefit.calls", "costbenefit.evaluations",
                       "costbenefit.distinct_pairs", "channel.letters", "channel.bytes_computed")
    }
    sizes = {"scenario.input_bytes": 0, "scenario.letters": 0, "scenario.entries": 0}
    tracer = tracing.Tracer()
    plain_ms, traced_ms = [], []
    ops = 0
    for _, op in paced(wl.ops, seconds):
        for side in (("plain", "traced") if ops % 2 == 0 else ("traced", "plain")):
            try:
                gc.collect()
                if side == "plain":
                    ms, text, problems = inprocess(op, workloads, wl.name)
                    plain_ms.append(ms)
                else:
                    tracer.op = ops
                    text = tracing.traced_op(tracer, op, reports.get(op.label), counters)
                    root = next(s for s in reversed(tracer.spans) if s.name == "op")
                    traced_ms.append(root.ns / 1e6)
                    problems = []
                problems += run.repeat_problem(f"lib {op.label}", text.encode("utf-8"))
            except Exception as err:  # noqa: BLE001 - count it and go on
                problems = [f"{side} call raised {err!r}"]
            run.record(f"{side} {op.label}", problems)
        for key in ("input_bytes", "letters", "entries"):
            sizes[f"scenario.{key}"] += op.declaration_stats.get(key, 0)
        ops += 1

    table = tracing.per_op(tracer, ops)
    combined = lambda name, key="total_ms": tracing.combined(table, name, key)  # noqa: E731
    coverage = tracer.coverage("report.analyze")
    overhead = median(traced_ms) / median(plain_ms) - 1.0 if plain_ms and traced_ms else 0.0
    n = f"per op, {ops} traced ops"
    importtime = f"median of n={len(import_ms)} -X importtime"
    metrics = {
        "cli.import_ms": (median(import_ms), "ms", importtime),
        "cli.import_scipy_ms": (median(scipy_ms), "ms", importtime),
        "cli.floor_ms": (median(floor_ms), "ms", f"median of n={len(floor_ms)} `absmeter score`"),
        "scenario.json_parse_ms": (combined("scenario.json_parse"), "ms", n),
        "scenario.build_ms": (combined("scenario.build"), "ms", n),
    }
    for key, total in sizes.items():
        metrics[key] = (total / ops, "bytes" if key.endswith("bytes") else "count", n)
    for name in ("channel.push_forward", "channel.bayes_inverse", "channel.reconstructed_pmf"):
        metrics[f"{name}_ms"] = (combined(name), "ms", n)
    metrics["channel.letters"] = (counters["channel.letters"] / ops, "count", n)
    metrics["channel.bytes_computed"] = (
        counters["channel.bytes_computed"] / ops, "bytes", f"{n}; computed from vector sizes"
    )
    metrics["alphabet.entropy_ms"] = (combined("alphabet.entropy"), "ms", n)
    metrics["alphabet.kl_ms"] = (combined("alphabet.kl"), "ms", n)
    for name in ("stage", "pipeline", "routes"):
        metrics[f"costbenefit.{name}_ms"] = (combined(f"costbenefit.{name}"), "ms", n)
    metrics["costbenefit.calls"] = (counters["costbenefit.calls"] / ops, "count", n)
    metrics["report.analyze_ms"] = (combined("report.analyze"), "ms", n)
    metrics["report.analyze_self_ms"] = (combined("report.analyze", "self_ms"), "ms", n)
    for fmt in tracing.FORMATS:
        metrics[f"report.render_{fmt}_ms"] = (combined(f"report.render_{fmt}"), "ms", n)
    metrics["axis.classify_ms"] = (combined("axis.classify"), "ms", n)
    metrics["exemplars.build_ms"] = (combined("exemplars.build"), "ms", n)
    metrics["trace.coverage"] = (
        median(coverage), "ratio", f"median over n={len(coverage)} report.analyze spans"
    )
    metrics["trace.overhead"] = (
        overhead, "ratio",
        f"median traced op {median(traced_ms):.3f} ms (n={len(traced_ms)}) vs "
        f"untraced {median(plain_ms):.3f} ms (n={len(plain_ms)}), minus 1",
    )
    shares = tracing.layer_shares(table, median(import_ms))
    summary = {
        "ops": ops,
        "per_op_ms": table,
        "layer_shares": shares,
        "counters_per_op": {k: v / ops for k, v in counters.items()},
        "coverage": {
            name: median(tracer.coverage(name))
            for name in sorted({s.name for s in tracer.spans})
            if tracer.coverage(name)
        },
    }
    return metrics, {"in_process": len(plain_ms), "traced": len(traced_ms), "ops": ops}, (
        tracer, summary
    )


def print_metrics(title: str, metrics: dict) -> None:
    print(f"{title}")
    width = max(len(k) for k in metrics)
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<6} {samples}")


def run_one(name: str, seed: int, seconds: int, trace: bool, smoke: bool, env: dict):
    # both import absmeter, so they load only once main() has put src/ first
    import tracing
    import workloads
    wl = workloads.build(name, seed, ROOT, OUT)
    record = environment(name, seed, seconds, env)
    run = Run()
    # warm-up: byte-compile, fill the page cache, finish lazy imports. A
    # failure here shows again, and is counted, in the measured ops.
    run_cli(wl.ops[0].args, env)
    try:
        workloads.run_inprocess(wl.ops[0])
    except Exception:  # noqa: BLE001
        pass
    if trace:
        metrics, counts, (tracer, summary) = traced(
            wl, workloads, tracing, seconds, env, 1 if smoke else PROBE_REPEATS, run
        )
    else:
        metrics, counts = end_to_end(wl, workloads, seconds, env, run)
    record["loadavg_end"] = list(os.getloadavg())
    record["operations"] = counts
    record["trace"] = int(trace)
    if trace:
        path = OUT / f"trace-{name}-seed{seed}.json"
        tracer.dump(path, {"environment": record, "summary": summary})
        record["trace_file"] = str(path.relative_to(ROOT))
        shares = summary["layer_shares"]
        print("layer shares (in process):", json.dumps(_rounded(shares["in_process"])))
        print("layer shares (CLI):", json.dumps(_rounded(shares["cli"])))
    print("environment:", json.dumps(record, sort_keys=True))
    print_metrics(f"{name} seed={seed} trace={int(trace)}", metrics)
    return metrics, run


def _rounded(d: dict) -> dict:
    return {k: round(v, 4) for k, v in sorted(d.items(), key=lambda kv: -kv[1])}


def result_line(metrics: dict, run: Run) -> str:
    return json.dumps(
        {
            "correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload (or --workload) briefly, untraced and traced",
    )
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    missing = [
        str(p.relative_to(ROOT))
        for p in (SRC / "absmeter" / "__init__.py", ROOT / "tests" / "fixtures")
        if not p.exists()
    ]
    if missing:
        print(f"error: not an absmeter checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    env = child_env()

    if not args.smoke:
        metrics, run = run_one(args.workload, args.seed, args.seconds, bool(args.trace), False, env)
        print(result_line(metrics, run))
        return 0

    every, total = {}, Run()
    for name in [args.workload] if args.workload else WORKLOADS:
        for trace in (False, True):
            metrics, run = run_one(name, args.seed, 1, trace, True, env)
            every.update({f"{name}/{k}": v for k, v in metrics.items()})
            total.attempted += run.attempted
            total.failed += run.failed
    print(result_line(every, total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
