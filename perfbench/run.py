"""Benchmark of gammaprod: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey-sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload big-moduli --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --smoke

--trace 0 prints the end-to-end metrics of the workload, --trace 1 the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  --smoke runs
every workload at a tiny size, both ways, and checks that each metric named
in BENCHMARK.json is present with its unit and that no op failed.

The program runs in this process (one thread) except for set-up probes and
the cold interpreters of the cli layer, which are child processes started
one at a time.  The program is imported from src/ of the checkout; without
it the runner exits with an error and prints no result.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

MIN_DISTINCT_OPS = 100   # op_p90_ms is taken over at least this many distinct ops
MIN_PASSES = 5           # every op runs at least this often in a run
SETUP_ROUNDS = 3         # setup_s is the median over rounds ...
SETUP_PER_ROUND = 16     # ... of the fastest set-up in each round
CLI_PROBES = 7           # cold interpreter and import runs for the cli layer
CLI_REPEATS = 3          # in-process run_cli runs for cli.run_cli_ms
TRACED_PASSES = 2        # computed counts must repeat exactly between these

UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.run_cli_ms": "ms",
    "cli.stdout_bytes": "bytes", "render.bytes_out": "bytes",
    "verification.min_headroom": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith(".self_s") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def import_program():
    package = SRC / "gammaprod"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: gammaprod sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import gammaprod
    if Path(gammaprod.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported gammaprod from {gammaprod.__file__}, not {package}")
    return gammaprod


def set_up(args):
    """Everything before the first timed op: import, inputs, warm-up."""
    gp = import_program()
    workload = WORKLOADS[args.workload](gp, args.seed, args.tiny)
    if not args.tiny and len(workload.ops) < MIN_DISTINCT_OPS:
        sys.exit(f"error: {args.workload} has {len(workload.ops)} distinct ops, "
                 f"fewer than {MIN_DISTINCT_OPS}")
    workload.warm_up()
    return workload


def setup_once(args) -> float:
    """Time from starting a fresh runner process to its first timed op."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    rest, _ = proc.communicate()
    if line.strip() != b"ready" or proc.returncode != 0:
        sys.exit("error: set-up probe failed:\n" + (line + rest).decode(errors="replace"))
    return elapsed


def cold_ms(code: str, probes: int) -> float:
    """Median wall time of a fresh interpreter running code, in ms."""
    times = []
    for _ in range(probes):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        times.append(perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: `python -c {code!r}` failed:\n" + proc.stdout.decode(errors="replace"))
    return 1000 * statistics.median(times)


def end_to_end(args, workload) -> dict:
    """Passes until `--seconds` of op time; each op's fastest repeat is its cost.

    Other tenants of a shared host only ever add time to an op, and how much
    they add drifts by tens of percent over seconds to minutes.  The fastest
    of an op's repeats, which are spread over the whole run, is therefore
    the steadiest estimate of what the op itself costs.  The set-up probes
    are spread over the run the same way.
    """
    probes = 1 if args.tiny else SETUP_ROUNDS * SETUP_PER_ROUND
    min_passes = 1 if args.tiny else MIN_PASSES
    best = [math.inf] * len(workload.ops)
    setups = []
    timed, passes, done = 0.0, 0, 0
    wall0 = perf_counter()
    while timed < args.seconds or passes < min_passes:
        lat, elapsed, ops = workload.run_pass()
        for i, t in enumerate(lat):
            if t is not None and t < best[i]:
                best[i] = t
        timed += elapsed
        done += ops
        passes += 1
        while len(setups) < probes and len(setups) * args.seconds <= timed * probes:
            setups.append(setup_once(args))
        if perf_counter() - wall0 > 3 * args.seconds + 60:
            break
    while len(setups) < probes:
        setups.append(setup_once(args))
    peak = workload.peak_rss_mb()
    workload.finish()

    ms = sorted(1000 * t for t in best if t < math.inf)
    if not ms:
        sys.exit("error: no op completed")
    rounds = [min(setups[r::SETUP_ROUNDS]) for r in range(min(SETUP_ROUNDS, probes))]
    print(f"# {passes} passes over {len(ms)} distinct ops; op_p50_ms and op_p90_ms "
          f"are taken over {len(ms)} fastest repeats")
    print(f"# all repeats: {done} ops in {timed:.6g} s of op time, {done / timed:.6g} ops/s")
    print(f"# set-up probes (s): {' '.join(f'{t:.4f}' for t in setups)}")
    return {
        "setup_s": statistics.median(rounds),
        "ops_per_s": len(ms) / (sum(ms) / 1000),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
        "peak_rss_mb": peak,
    }


def untraced_ops_per_s(workload, seconds: float) -> float:
    """Ops per second of op time over whole untraced passes."""
    timed, done = 0.0, 0
    while timed < seconds or not done:
        _, elapsed, ops = workload.run_pass(latencies=False)
        timed += elapsed
        done += ops
    return done / timed


def run_cli_in_process(gp, argv):
    """(stdout bytes, exit code, wall s) of run_cli(argv) in this process."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = perf_counter()
        code = gp.run_cli(argv)
        elapsed = perf_counter() - t0
    return buf.getvalue().encode("utf-8"), code, elapsed


def per_layer(args, workload, problems: list) -> dict:
    """Traced passes give calls, self time and counts per layer."""
    untraced = untraced_ops_per_s(workload, args.seconds / 2)
    tracer = Tracer()
    passes = []
    tracer.install()
    try:
        for _ in range(TRACED_PASSES):
            first = tracer.begin_pass()
            _, elapsed, ops = workload.run_pass(latencies=False)
            stats, counts = tracer.end_pass(first)
            passes.append((stats, counts, ops, elapsed))
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans)

    stats, counts, _, _ = passes[0]
    for other_stats, other_counts, _, _ in passes[1:]:
        if other_counts != counts or any(other_stats[k] != stats[k] for k in stats
                                         if k.endswith(".calls")):
            problems.append(f"computed counts differ between traced passes: "
                            f"{counts} vs {other_counts}")
    traced = sum(p[2] for p in passes) / sum(p[3] for p in passes)
    print(f"# trace_overhead: untraced ops_per_s={untraced:.6g} traced ops_per_s={traced:.6g} "
          f"traced/untraced={traced / untraced:.4f}; spans written to {spans.relative_to(ROOT)}")

    run_cli_ms, stdout_bytes = 0.0, 0
    argv = workload.cli_argv()
    if argv is not None:
        runs = [run_cli_in_process(workload.gp, argv) for _ in range(1 if args.tiny else CLI_REPEATS)]
        run_cli_ms = 1000 * statistics.median(t for *_, t in runs)
        stdout_bytes = len(runs[0][0])
        if any(code != 0 or out != runs[0][0] for out, code, _ in runs):
            problems.append(f"run_cli({argv}) did not exit 0 with the same output every time")
        print(f"# cli layer: run_cli({' '.join(argv)}) in process")
    workload.finish()

    probes = 1 if args.tiny else CLI_PROBES
    interpreter = cold_ms("pass", probes)
    metrics = dict(counts)
    for key, value in stats.items():
        if key.endswith(".self_s"):
            value = statistics.median(s[key] for s, *_ in passes)
        metrics[key] = value
    metrics.update({
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": cold_ms("import gammaprod", probes) - interpreter,
        "cli.run_cli_ms": run_cli_ms,
        "cli.stdout_bytes": stdout_bytes,
    })
    return dict(sorted(metrics.items()))


def host_record(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gammaprod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "git_rev": git_revision(), "src_sha256": digest.hexdigest(), "seed": seed}


def git_revision():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> int:
    workload = set_up(args)
    print("# host " + json.dumps(host_record(args.seed)))
    print(f"# workload {workload.name}: {workload.why}")
    print("# inputs " + json.dumps(workload.describe()))
    problems = []
    if args.trace:
        metrics = per_layer(args, workload, problems)
    else:
        metrics = end_to_end(args, workload)
    problems.extend(workload.problems)
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {unit_of(name)}")
    attempted, failed = workload.attempted, workload.failed
    print(f"# fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed a check)")
    for problem in problems:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


def smoke() -> int:
    """Run every workload tiny, both ways, against the metrics BENCHMARK.json names."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    ok = sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    if not ok:
        print(f"FAIL workloads in {SPEC.name} differ from {sorted(WORKLOADS)}")
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                    "--seconds", "0.2", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
            errors = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"metrics": {}, "correct": False, "failed": None}
                errors.append("no result line")
            if proc.returncode != 0:
                errors.append(f"exit code {proc.returncode}")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    errors.append(f"{metric['name']} missing or not in {metric['unit']}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[section]}
            if extra:
                errors.append(f"metrics not in {SPEC.name}: {sorted(extra)}")
            if not result["correct"] or result["failed"] != 0:
                errors.append(f"fail_ratio is not 0: {result.get('failed')} failed")
            ok &= not errors
            print(f"{'ok' if not errors else 'FAIL'} {workload} --trace {trace}"
                  + "".join(f"\n    {e}" for e in errors)
                  + ("\n" + proc.stderr if errors and proc.stderr else ""))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload at a tiny size against BENCHMARK.json")
    parser.add_argument("--tiny", action="store_true", help="run the workload at a tiny size")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        set_up(args)
        print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
