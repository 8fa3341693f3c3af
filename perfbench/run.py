"""End-to-end benchmark of the `fpuniform` CLI.

    python3 perfbench/run.py --workload exact-enum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Load model: a closed loop with one client.  Each command of the workload runs
in a fresh process (`python -m fpuniform.cli`), one after another, and is
timed from spawn to exit; the next starts when the previous one has exited.
Cold imports and caches are part of every command, as they are for users.
Inputs are generated from the seed and every output is checked before the
next command runs (see workloads.py); a command fails when it exits non-zero,
writes anything but JSON lines to stderr, or fails its check.

--trace 0 reports the end-to-end metrics: the median over passes of the
summed command time (wall_s) and of the largest child peak RSS
(peak_rss_mb), and the median time of a trivial command (setup_s).
--trace 1 alternates untraced passes with passes run through launcher.py and
reports the per-layer metrics from the traced passes.  Metric names and
units come from BENCHMARK.json.  The last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from launcher import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Each pass is repeated until the run's time is used up, but at least this often.
MIN_PASSES = 2
MIN_TRACED_PASSES = 1
#: Trivial commands timed before every pass, and at least this many per run.
PROBES_PER_PASS = 5
MIN_PROBES = 15
#: Commands run single-threaded: one client on a small box, and threaded
#: BLAS made the degree-2 correlation search slower and noisier there.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: A single command running longer than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 150


class Runner:
    """Starts CLI commands from the work directory, through spawner.py, and
    records their outcomes.  Use as a context manager: leaving it stops the
    spawner and waits for it."""

    def __init__(self, work: Path):
        self.work = work
        self.out_dir = work / "out"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FPUNIFORM_")}
        self.env.update(PYTHONPATH=str(SRC), **SINGLE_THREADED)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, argv: list[str], tag: str) -> tuple[float, float, int]:
        """Run one process; return (seconds from spawn to exit, peak RSS in
        MB from its rusage, exit code)."""
        req = {
            "argv": argv, "cwd": str(self.work), "env": self.env,
            "stdout": str(self.out_dir / f"{tag}.out"),
            "stderr": str(self.out_dir / f"{tag}.err"),
            "timeout": COMMAND_TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        got = json.loads(reply)
        return got["elapsed"], got["maxrss_kb"] / 1024.0, got["code"]

    def judge(self, name: str, tag: str, code: int, check, skew: float = 0.0) -> dict | None:
        """Count the command and check its output; return the report if it passed."""
        from workloads import Checker

        self.attempted += 1
        problems = []
        report = None
        if code != 0:
            problems.append(f"exit code {code}")
        stderr = (self.out_dir / f"{tag}.err").read_text(errors="replace")
        for line in stderr.splitlines():
            try:
                json.loads(line)
            except json.JSONDecodeError:
                problems.append(f"non-JSON stderr: {line[:200]}")
                break
        if not problems:
            try:
                report = json.loads((self.out_dir / f"{tag}.out").read_text())
                chk = Checker(skew)
                check(report, chk)
                problems += chk.problems
            except Exception as exc:  # a malformed report is a failed command
                problems.append(f"bad report: {exc!r}")
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {'; '.join(problems)}")
            return None
        return report


def _check_probe(out, chk) -> None:
    chk.close("probe spectrum", [complex(*c) for c in out["coefficients"]], [0.0, 1.0])


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "fpuniform.cli", *args]


def traced_argv(args: list[str], spans: Path, cmd_id: str) -> list[str]:
    return [sys.executable, str(HERE / "launcher.py"), str(spans), cmd_id, "--", *args]


def run_pass(runner: Runner, workload, index: int, traced: bool = False) -> dict:
    """Run every command of the workload once, in order."""
    record = {"wall_s": 0.0, "peak_rss_mb": 0.0, "mc_wall_s": 0.0, "commands": {}, "reports": []}
    kind = "t" if traced else "u"
    for j, cmd in enumerate(workload.commands):
        tag = f"{kind}{index}-{j}"
        spans = runner.out_dir / f"{tag}.spans.json"
        argv = traced_argv(cmd.argv, spans, tag) if traced else cli_argv(cmd.argv)
        elapsed, rss, code = runner.spawn(argv, tag)
        report = runner.judge(cmd.name, tag, code, cmd.check)
        record["wall_s"] += elapsed
        record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
        if cmd.samples:
            record["mc_wall_s"] += elapsed
        record["commands"][cmd.name] = {
            "s": elapsed, "rss_mb": rss, "code": code, "tag": tag, "ok": report is not None
        }
        record["reports"].append(report)
        if traced:
            record.setdefault("spans", []).append(
                json.loads(spans.read_text()) if spans.exists() else None
            )
    return record


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self time and calls per traced
    function, plus the counters named in BENCHMARK.json."""
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    outcome: dict[str, float] = defaultdict(float)
    out = {"field.digit_table.hits": 0, "field.digit_table.misses": 0}
    imports = []
    for trace in record["spans"]:
        if trace is None:
            continue
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for s in spans:
            if s["parent"] >= 0:
                child[s["parent"]] += s["end"] - s["start"]
        for s, covered in zip(spans, child):
            self_s[s["name"]] += s["end"] - s["start"] - covered
            calls[s["name"]] += 1
            if s["outcome"] is not None:
                outcome[s["name"]] += s["outcome"]
        imports.append(trace["import_s"])
        for key in ("hits", "misses"):
            out[f"field.digit_table.{key}"] += trace["digit_table"][key]
    for name in (*TRACED, "cli.main"):
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    rank_calls = calls["polyrank.polynomial_rank"]
    exact = outcome["polyrank.polynomial_rank"]
    out["polyrank.exact_frac"] = exact / rank_calls if rank_calls else 0.0
    out["factors.decompose.rounds"] = outcome["factors.decompose"]
    out["analysis.cost_points"] = sum(
        r["cost"] for r in record["reports"] if r and isinstance(r.get("cost"), (int, float))
    )
    return out


def run_record() -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "fpuniform").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if shutil.which("git"):
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True,
        )
        lines = got.stdout.split()
        if got.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "nproc": os.cpu_count(),
        "child_env": SINGLE_THREADED,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _timed_loop(runner: Runner, wl, probe: list[str], seconds: float, trace: bool):
    """Passes (and, untraced, setup probes) until `seconds` are used up."""
    # one untimed command first, so compiled bytecode exists as it does for users
    runner.spawn(cli_argv(probe), "warmup")
    probes: list[float] = []
    passes: list[dict] = []
    traced: list[dict] = []

    def take_probes(count: int) -> None:
        for _ in range(count):
            tag = f"probe{len(probes)}"
            elapsed, _, code = runner.spawn(cli_argv(probe), tag)
            runner.judge("setup-probe", tag, code, _check_probe)
            probes.append(elapsed)

    start = time.perf_counter()
    while True:
        if not trace:
            take_probes(PROBES_PER_PASS)
        t0 = time.perf_counter()
        passes.append(run_pass(runner, wl, len(passes)))
        if trace:
            traced.append(run_pass(runner, wl, len(traced), traced=True))
        now = time.perf_counter()
        enough = len(traced) >= MIN_TRACED_PASSES if trace else len(passes) >= MIN_PASSES
        # stop when the passes of another round would overrun the run's time
        if enough and (now - start) + (now - t0) > seconds:
            break
    if not trace and len(probes) < MIN_PROBES:
        take_probes(MIN_PROBES - len(probes))
    return probes, passes, traced


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / f"{workload_name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(workload_name, seed, work)
    probe = workloads.setup_probe(work)
    with Runner(work) as runner:
        probes, passes, traced = _timed_loop(runner, wl, probe, seconds, trace)

    wall = statistics.median(p["wall_s"] for p in passes)
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(probes) if probes else None,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    mc_wall = statistics.median(p["mc_wall_s"] for p in passes)
    samples = sum(c.samples for c in wl.commands)
    summary = {
        "fail_rate": (runner.failed / runner.attempted, "1"),
        "wall_s": (e2e["wall_s"], "s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
    }
    if probes:
        summary["setup_s"] = (e2e["setup_s"], "s")
    if samples:
        summary["samples_per_s"] = (samples / mc_wall, "1/s")

    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace_overhead"] = (
            statistics.median(p["wall_s"] for p in traced) / wall
        )
        wanted = spec["per_layer"]
        values = layers
    else:
        wanted = spec["end_to_end"]
        values = e2e
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    for name, (value, unit) in summary.items():
        print(f"{workload_name} {name} = {value:.6g} {unit}")
    if trace:
        for name, m in metrics.items():
            print(f"{workload_name} {name} = {m['value']:.6g} {m['unit']}")
    for problem in runner.problems:
        print(f"FAILED {problem}")

    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "record": run_record(),
        "inputs": wl.inputs,
        "summary": {k: v for k, (v, _) in summary.items()},
        "metrics": metrics,
        "probes_s": probes,
        "passes": [{k: p[k] for k in ("wall_s", "peak_rss_mb", "commands")} for p in passes],
        "traced_passes": [{k: p[k] for k in ("wall_s", "peak_rss_mb", "commands")} for p in traced],
        "problems": runner.problems,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload_name}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(detail, indent=1)
    )
    print("record " + json.dumps({"record": detail["record"], "inputs": wl.inputs}, sort_keys=True))
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }


def self_check() -> int:
    """Every workload at tiny sizes, untraced and traced, must pass its
    checks; the same outputs checked against skewed references must all fail;
    the metric names in BENCHMARK.json must be exactly the ones produced."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in workloads.WORKLOADS:
        work = ROOT / ".perfbench" / f"self-check-{name}"
        shutil.rmtree(work, ignore_errors=True)
        wl = workloads.build(name, 7, work, tiny=True)
        with Runner(work) as runner:
            plain = run_pass(runner, wl, 0)
            traced = run_pass(runner, wl, 0, traced=True)
        clean_failed, clean_problems = runner.failed, list(runner.problems)
        # the same outputs against references that are off by 0.5
        for cmd in wl.commands:
            got = plain["commands"][cmd.name]
            runner.judge(cmd.name, got["tag"], got["code"], cmd.check, skew=0.5)
        skew_rate = (runner.failed - clean_failed) / len(wl.commands)
        layers = layer_metrics(traced)
        layers["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
        names = {m["name"] for m in spec["per_layer"]}
        extra = sorted(names - set(layers))
        print(
            f"{name}: {len(wl.commands)} commands, failed {clean_failed} of "
            f"{2 * len(wl.commands)}; with wrong references fail_rate = "
            f"{skew_rate:.2f}; unknown layer names {extra}"
        )
        for problem in clean_problems:
            print(f"  FAILED {problem}")
        ok &= clean_failed == 0 and skew_rate == 1.0 and not extra
    e2e = {m["name"] for m in spec["end_to_end"]}
    if e2e != {"wall_s", "setup_s", "peak_rss_mb"}:
        print(f"unexpected end_to_end metrics {sorted(e2e)}")
        ok = False
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (SRC / "fpuniform" / "cli.py").is_file():
        print(f"no fpuniform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    import workloads

    if args.workload == "all":
        names = workloads.WORKLOADS
    elif args.workload in workloads.WORKLOADS:
        names = (args.workload,)
    else:
        parser.error(f"--workload must be 'all' or one of {workloads.WORKLOADS}")
    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items() for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
