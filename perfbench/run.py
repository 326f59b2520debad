#!/usr/bin/env python3
"""Benchmark of the froblab CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the `froblab analyze-*` command as a closed loop with one client:
each analysis is a fresh child process, started only after the previous
one ended, under an address-space limit and a wall timeout that act on
that child alone.  A pass runs every rung of the workload once; the run
repeats passes, rung by rung, while the next rung still fits in S seconds
(the first pass always runs whole).  Every report is checked by an
independent verdict checker.

With --trace 0 the end-to-end metrics are reported: each rung counts at
its median over the run, set-up and a bare interpreter start are sampled
evenly over the run, and the JSON times are rescaled by that start.
With --trace 1 each rung runs untraced and then traced in every pass, and
the run reports the per-layer metrics of the traced runs, plus the
tracing overhead.
`--workload all` runs every workload in turn.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 when the run completed, whatever the analyses did.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checker
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

LIMIT_MB = 3072
SETUP_RUNS = 11
OUTCOMES = ("capacity", "crash", "timeout", "wrong")

# The speed of a small shared machine drifts by 20 % and more over minutes,
# for froblab and for a bare interpreter alike.  So each run also times a
# bare interpreter start, which involves neither froblab nor its
# dependencies, and the *_norm_s metrics rescale the run's times to a
# machine on which that start takes REFERENCE_S.
REFERENCE_CODE = "pass"
REFERENCE_S = 0.05
REFERENCE_RUNS = 40

# end-to-end metric -> unit, as reported in the JSON result
END_TO_END = {
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "analysis_max_norm_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed only.  The raw times drift with the machine.  The median analysis
# of a ladder is a short one, dominated by interpreter start-up.
# fail_share (printed below the metrics) reads 0 on every workload that
# passes; the JSON result carries it as "failed" over "attempted".
PRINTED_ONLY = {
    "wall_s": "s",
    "cpu_s": "s",
    "analysis_s_max": "s",
    "analysis_s_p50": "s",
    "reference_s": "s",
}


@dataclass
class Analysis:
    rung: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    outcome: str  # "ok" or one of OUTCOMES
    report: dict | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], timeout: float, out_path: Path, err_path: Path):
    """Run one child to completion or timeout; return (wall, exit code,
    rusage, timed_out).  The child is always reaped."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], timeout)
        if not ready:
            signal.pidfd_send_signal(fd, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        signal.pidfd_send_signal(fd, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    finally:
        os.close(fd)
    wall = time.perf_counter() - start
    # reaped by wait4, so tell Popen it has ended
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage, not ready


def classify(timed_out: bool, code: int, stdout: str, stderr: str, expect: dict):
    """(outcome, detail, report) for one finished child."""
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if timed_out:
        return "timeout", "killed at the wall timeout", None
    if code != 0 or "Traceback" in stderr:
        if "MemoryError" in stderr or code == -signal.SIGKILL or (code == 1 and "exceed" in last):
            return "capacity", last or f"exit {code}", None
        if code == 2:
            return "wrong", f"routes disagree: {last}", None
        return "crash", last or f"exit {code}", None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "wrong", "stdout is not a JSON report", None
    problems = checker.check(report, expect)
    if problems:
        return "wrong", "; ".join(problems), report
    return "ok", "", report


def run_analysis(entry: dict, timeout: float, tmp: Path, trace_path: Path | None) -> Analysis:
    rung = entry["rung"]
    out_path, err_path = tmp / f"{rung}.out", tmp / f"{rung}.err"
    argv = [sys.executable, str(HERE / "child.py"), str(LIMIT_MB), str(trace_path or "-"), *entry["argv"]]
    wall, code, usage, timed_out = spawn(argv, timeout, out_path, err_path)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    outcome, detail, report = classify(timed_out, code, stdout, stderr, entry["expect"])
    cpu = usage.ru_utime + usage.ru_stime
    if outcome != "ok":
        print(f"  {rung}: {outcome} after {wall:.3g} s: {detail}", file=sys.stderr)
        # a failed analysis scores the workload's timeout
        wall = cpu = timeout
    return Analysis(rung, wall, cpu, usage.ru_maxrss / 1024, outcome, report)


class Sampler:
    """Wall times of a fresh interpreter running `code`, taken at even
    intervals over the measuring window, so that a slow or fast phase of
    the machine weighs on them as much as on the analyses."""

    def __init__(self, code: str, count: int, start: float, seconds: float):
        self.argv = [sys.executable, "-c", code]
        self.count = count
        self.start = start
        self.step = seconds / count
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.argv, env=child_env(), cwd=ROOT, check=True)
        self.samples.append(time.perf_counter() - start)

    def take_due(self) -> None:
        while len(self.samples) < self.count and time.perf_counter() >= self.start + self.step * len(self.samples):
            self.sample()

    def median(self) -> float:
        while len(self.samples) < self.count:
            self.sample()
        return statistics.median(self.samples)


def rung_medians(analyses: list[Analysis], key: str) -> dict[str, float]:
    """Median of one field per rung, over every run of that rung."""
    rungs: dict[str, list[float]] = {}
    for a in analyses:
        rungs.setdefault(a.rung, []).append(getattr(a, key))
    return {rung: statistics.median(values) for rung, values in rungs.items()}


def ladder_metrics(analyses: list[Analysis]) -> dict[str, float]:
    """End-to-end metrics of one pass over the ladder, each rung taken at
    its median over the run."""
    walls = rung_medians(analyses, "wall_s")
    return {
        "wall_s": sum(walls.values()),
        "cpu_s": sum(rung_medians(analyses, "cpu_s").values()),
        "analysis_s_p50": statistics.median(walls.values()),
        "analysis_s_max": max(walls.values()),
        "peak_rss_mb": max(a.rss_mb for a in analyses),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes over the ladder until the window of `seconds` is used.

    After the first full pass, a rung is started only while its median
    time so far still fits in the window; the run ends at the first rung
    that does not fit.  Every run of a rung counts towards its median,
    also in the last, partial pass.  With trace, each rung runs untraced
    and then traced right after, so both runs see the same machine load;
    per-layer metrics come from the full passes only."""
    wl = workloads.WORKLOADS[name]
    tmp = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        entries = workloads.generate(name, seed, tmp)
        # one unmeasured import fills the bytecode cache
        subprocess.run([sys.executable, "-c", "import froblab.cli"], env=child_env(), cwd=ROOT, check=True)
        start = time.perf_counter()
        deadline = start + seconds
        samplers = {} if trace else {
            "setup_s": Sampler("import froblab.cli", SETUP_RUNS, start, seconds),
            "reference_s": Sampler(REFERENCE_CODE, REFERENCE_RUNS, start, seconds),
        }
        plain: list[Analysis] = []
        traced: list[Analysis] = []
        layers: list[dict] = []
        passes = 0
        complete = True
        while complete:
            traces, reports = [], []
            for entry in entries:
                rung = entry["rung"]
                if passes:
                    cost = rung_medians([a for a in plain + traced if a.rung == rung], "wall_s")[rung]
                    if time.perf_counter() + cost * (2 if trace else 1) > deadline:
                        complete = False
                        break
                for sampler in samplers.values():
                    sampler.take_due()
                plain.append(run_analysis(entry, wl.timeout_s, tmp, None))
                if not trace:
                    continue
                trace_path = tmp / f"{rung}.trace.json"
                trace_path.unlink(missing_ok=True)
                traced.append(run_analysis(entry, wl.timeout_s, tmp, trace_path))
                if traced[-1].report:
                    reports.append(traced[-1].report)
                if trace_path.exists():
                    traces.append(json.loads(trace_path.read_text(encoding="utf-8")))
            if complete:
                passes += 1
                if trace:
                    layers.append(tracing.layer_metrics(traces, reports))
        medians = {key: sampler.median() for key, sampler in samplers.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    analyses = plain + traced
    counts = {o: sum(a.outcome == o for a in analyses) for o in OUTCOMES}
    failed = sum(counts.values())
    if trace:
        # median_low keeps counts whole
        metrics = {key: statistics.median_low(p[key] for p in layers) for key in layers[0]}
        metrics["trace.overhead_ratio"] = ladder_metrics(traced)["wall_s"] / ladder_metrics(plain)["wall_s"]
        units = {k: tracing.LAYER_METRICS[k] for k in metrics}
        reported = set(metrics)
    else:
        metrics = ladder_metrics(plain)
        metrics.update(medians)
        scale = REFERENCE_S / metrics["reference_s"]
        metrics["wall_norm_s"] = metrics["wall_s"] * scale
        metrics["cpu_norm_s"] = metrics["cpu_s"] * scale
        metrics["analysis_max_norm_s"] = metrics["analysis_s_max"] * scale
        units = {**END_TO_END, **PRINTED_ONLY}
        reported = set(END_TO_END)
    print(f"workload {name}  seed {seed}  passes {passes}  analyses {len(analyses)}  trace {int(trace)}")
    for key in sorted(metrics):
        print(f"  {key:<42} {metrics[key]:>16.6g} {units[key]}")
    for rung in (e["rung"] for e in entries):
        mine = [a for a in analyses if a.rung == rung]
        wall = statistics.median(a.wall_s for a in mine)
        failures = sum(a.outcome != "ok" for a in mine)
        print(f"  rung {rung:<37} {wall:>16.6g} s  ({failures} of {len(mine)} failed)")
    taxonomy = ", ".join(f"{o} {counts[o]}" for o in OUTCOMES)
    print(f"  {'fail_share':<42} {failed / len(analyses):>16.6g} share  ({taxonomy})")
    return {
        "correct": counts["wrong"] == 0,
        "attempted": len(analyses),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in reported},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "froblab" / "cli.py").is_file():
        print(f"error: no froblab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
