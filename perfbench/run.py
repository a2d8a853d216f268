"""Pipeline benchmark for the `diagclass` CLI.

    python3 perfbench/run.py --workload verdict-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is taken from `src/`.
A run writes the seeded pattern files, then runs the workload's items one
after another, one CLI child each, in passes: at least three, and more
while the next one is expected to end within --seconds.  Before each pass
it times fresh `diagclass --version` children (set-up).  The time of an
item is its median over the run's passes.  Every output is checked by
oracles.py.  With --trace 1 the first pass runs untraced and the next
ones (at least two) through traced_cli.py, which gives the per-layer
metrics of layers.py and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end with --trace 0, per-layer with --trace 1).  The
exit code is 1 when any output is wrong, 2 when the checkout has no
package to run.  `--workload all` runs every workload once, the two
untimed ones included, and prints a table.  Result files, with an
environment stamp, go to .perfbench_results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import networkx

import oracles
import workloads
from layers import LAYER_METRICS, PassStats, count_signature, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_results"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 3  # per pass, after one warm-up child at the start
MIN_PASSES = 3
# A run stops starting passes, and cuts item time limits, so that it ends
# well inside three minutes.
RUN_DEADLINE_S = 165.0

END_TO_END = {
    "wall_s": "s",
    "item_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class ItemRun:
    name: str
    seconds: Optional[float]  # None: not started, the run's deadline had passed
    rss_mb: float
    status: str  # "ok", "failed" or "wrong"
    reason: str = ""
    spans: Optional[list] = None


@dataclass
class PassRun:
    traced: bool
    wall_s: float
    items: list[ItemRun] = field(default_factory=list)


def _cap_address_space() -> None:
    """Runs in the child, before exec."""
    resource.setrlimit(resource.RLIMIT_AS, (workloads.MEM_CAP_BYTES, workloads.MEM_CAP_BYTES))


class Runner:
    """Starts isolated CLI children and holds the run's deadline."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        threads = str(min(2, len(os.sched_getaffinity(0))))
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("DIAGCLASS_") and k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(SRC)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        self.env = env

    def child(self, argv: list[str], limit_s: float, extra_env: Optional[dict] = None):
        """(exit code, killed at the time limit, seconds or None if not
        started, peak RSS MB, stdout, stderr) of one isolated child."""
        limit_s = min(limit_s, self.deadline - time.monotonic())
        if limit_s <= 0:
            return -signal.SIGKILL, True, None, 0.0, "", "run deadline reached before start"
        out_path, err_path = OUT / "child.out", OUT / "child.err"
        env = {**self.env, **(extra_env or {})}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT,
                                    preexec_fn=_cap_address_space)
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], limit_s)
                killed = not ready
                if killed:
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        # reaped by wait4 (for its rusage); Popen must not wait for it again
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, killed, seconds, usage.ru_maxrss / 1024,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))

    def cli(self, args: list[str], limit_s: float, spans_path: Optional[Path] = None):
        if spans_path is None:
            return self.child([sys.executable, "-m", "diagclass.cli", *args], limit_s)
        return self.child([sys.executable, str(BENCH_DIR / "traced_cli.py"), *args],
                          limit_s, {"PERFBENCH_SPANS": str(spans_path)})


def run_pass(runner: Runner, w: workloads.Workload, paths: list, traced: bool) -> PassRun:
    raw = []
    t0 = time.perf_counter()
    for k, (item, path) in enumerate(zip(w.items, paths)):
        spans_path = OUT / f"spans-{k:02d}.json" if traced else None
        if spans_path is not None and spans_path.exists():
            spans_path.unlink()
        raw.append((item, runner.cli(item.argv(path), w.time_limit_s, spans_path),
                    spans_path))
    pr = PassRun(traced, time.perf_counter() - t0)
    # outputs are checked after the pass, outside the timed region
    for item, (code, killed, seconds, rss, out, err), spans_path in raw:
        run = ItemRun(item.name, seconds, rss, "ok")
        last = err.strip().splitlines()[-1] if err.strip() else ""
        if seconds is None:
            run.status, run.reason = "failed", "not started: run deadline"
        elif killed:
            run.status, run.reason = "failed", f"killed at the {w.time_limit_s:g} s limit"
        elif "Traceback (most recent call last)" in err:
            run.status, run.reason = "failed", f"traceback: {last}"
        elif code != item.exit_code:
            run.status, run.reason = "failed", f"exit {code}, expected {item.exit_code}: {last}"
        else:
            reason = oracles.check(item, out, err)
            if reason is not None:
                run.status, run.reason = "wrong", reason
        if spans_path is not None and spans_path.exists():
            run.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        pr.items.append(run)
    return pr


def measure_setup(runner: Runner, warm_up: bool) -> list[float]:
    """Wall times of SETUP_SAMPLES fresh `diagclass --version` children."""
    times = []
    for k in range(SETUP_SAMPLES + warm_up):
        code, _, seconds, _, out, err = runner.cli(["--version"], 60.0)
        if code != 0 or "version" not in out:
            raise RuntimeError(f"`diagclass --version` failed (exit {code}): {err.strip()}")
        if k or not warm_up:
            times.append(seconds)
    return times


def env_stamp(runner: Runner) -> dict:
    probe = ("import json, numpy, scipy, sys; import diagclass.linalg as l; "
             "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, 'HAVE_NATIVE_GF2': l.HAVE_NATIVE_GF2}))")
    code, _, _, _, out, err = runner.child([sys.executable, "-c", probe], 60.0)
    if code != 0:
        raise RuntimeError(f"cannot import the package from {SRC.name}/: {err.strip()}")
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "diagclass").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    with open("/proc/meminfo", encoding="ascii") as fh:
        mem_kb = int(next(ln for ln in fh if ln.startswith("MemTotal:")).split()[1])
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        **json.loads(out),
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(mem_kb / 2**20, 2),
        "blas_threads": {k: runner.env[k] for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def prepare(name: str, seed: int) -> tuple[workloads.Workload, list]:
    w = workloads.build(name, seed)
    return w, workloads.write_inputs(w, seed, OUT / "inputs" / f"{name}-{seed}")


def end_to_end(passes: list[PassRun], setup: list[float]) -> dict[str, float]:
    """wall_s is the sum over items of each item's median time in the
    untraced passes; item_p50_s is the median over all their item runs."""
    untraced = [p for p in passes if not p.traced]
    times: dict[int, list[float]] = {}
    for p in untraced:
        for k, r in enumerate(p.items):
            if r.seconds is not None:
                times.setdefault(k, []).append(r.seconds)
    return {
        "wall_s": sum(statistics.median(t) for t in times.values()),
        "item_p50_s": statistics.median([x for t in times.values() for x in t] or [0.0]),
        "peak_rss_mb": max(r.rss_mb for p in untraced for r in p.items),
        "setup_s": statistics.median(setup),
    }


def per_layer(passes: list[PassRun], e2e: dict) -> tuple[dict[str, float], Optional[str]]:
    """Per-layer metrics (median over traced passes), and a reason if the
    counts did not repeat exactly."""
    traced = [p for p in passes if p.traced]
    per_pass, signatures = [], []
    for p in traced:
        stats = PassStats()
        for r in p.items:
            if r.spans:
                stats.add_item(r.spans)
        values = layer_metrics(stats)
        signatures.append(count_signature(values))
        values["trace.wall_s"] = p.wall_s
        values["trace.overhead_share"] = p.wall_s / e2e["wall_s"] - 1
        values["trace.accounted_share"] = stats.root_s / (
            e2e["wall_s"] - len(p.items) * e2e["setup_s"])
        per_pass.append(values)
    out = {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}
    if any(r.status == "failed" for p in traced for r in p.items):
        print("note: a traced item failed; counts not compared", file=sys.stderr)
        return out, None
    diff = sorted({k for sig in signatures[1:] for k in sig if sig[k] != signatures[0][k]})
    if diff:
        return out, f"per-layer counts differ between traced passes: {diff}"
    return out, None


TRACE_METRICS = {"trace.wall_s": "s", "trace.overhead_share": "ratio",
                 "trace.accounted_share": "ratio"}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    start = time.monotonic()
    runner = Runner(start + RUN_DEADLINE_S)
    stamp = env_stamp(runner)
    w, paths = prepare(name, seed)
    t_measure = time.monotonic()
    setup = measure_setup(runner, warm_up=True)
    passes = [run_pass(runner, w, paths, traced=False)]
    while True:
        now = time.monotonic()
        enough = sum(p.traced for p in passes) >= 2 if trace else len(passes) >= MIN_PASSES
        if enough and now - t_measure + passes[-1].wall_s > seconds:
            break
        if now - start + 1.2 * passes[-1].wall_s > RUN_DEADLINE_S:
            break
        setup += measure_setup(runner, warm_up=False)
        passes.append(run_pass(runner, w, paths, traced=trace))

    runs = [r for p in passes for r in p.items]
    failed = [r for r in runs if r.status == "failed"]
    wrong = [r for r in runs if r.status == "wrong"]
    e2e = end_to_end(passes, setup)
    problems = [f"{r.name}: {r.reason}" for r in wrong]
    if trace:
        if not any(p.traced for p in passes):
            problems.append("no traced pass fitted in the run")
            layer_values = {}
        else:
            layer_values, mismatch = per_layer(passes, e2e)
            if mismatch:
                problems.append(mismatch)
            if sum(p.traced for p in passes) < 2:
                print("note: one traced pass only; counts not compared", file=sys.stderr)
        units = {**{k: u for k, (u, _) in LAYER_METRICS.items()}, **TRACE_METRICS}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer_values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}

    print(f"workload {name}, seed {seed}: {len(w.items)} items x {len(passes)} passes "
          f"({sum(p.traced for p in passes)} traced)")
    for k, v in e2e.items():
        print(f"  {k:<14} {v:10.4f} {END_TO_END[k]}")
    print(f"  {'failed_share':<14} {len(failed) / len(runs):10.4f} ({len(failed)}/{len(runs)})")
    print(f"  {'wrong_share':<14} {len(wrong) / len(runs):10.4f} ({len(wrong)}/{len(runs)})")
    for r in failed + wrong:
        print(f"  {r.status}: {r.name}: {r.reason}")
    for msg in problems:
        print(f"  WRONG: {msg}")

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": stamp, "setup_s": setup, "end_to_end": e2e,
        "passes": [{"traced": p.traced, "wall_s": p.wall_s,
                    "items": [{"name": r.name, "seconds": r.seconds, "rss_mb": r.rss_mb,
                               "status": r.status, "reason": r.reason} for r in p.items]}
                   for p in passes],
        "metrics": metrics,
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    traced = [p for p in passes if p.traced]
    if traced:
        spans = {r.name: r.spans for r in traced[-1].items}
        (OUT / f"{name}-seed{seed}-spans.json").write_text(json.dumps(spans))
    print(json.dumps({"correct": not problems, "attempted": len(runs), "failed": len(failed),
                      "metrics": metrics}))
    return 1 if problems else 0


def run_all(seed: int) -> int:
    """Every workload once, untraced, as one table."""
    runner = Runner(deadline=math.inf)
    stamp = env_stamp(runner)
    setup = statistics.median(measure_setup(runner, warm_up=True))
    print(f"env: {json.dumps(stamp)}")
    print(f"setup_s {setup:.4f} s (median of {SETUP_SAMPLES})")
    header = f"{'workload':<15}{'items':>6}{'wall_s':>10}{'item_p50_s':>12}{'peak_rss_mb':>13}" \
             f"{'failed_share':>14}{'wrong_share':>13}"
    rows, notes, any_wrong = [], [], False
    summary = {}
    for name in workloads.BUILDERS:
        w, paths = prepare(name, seed)
        p = run_pass(runner, w, paths, traced=False)
        e2e = end_to_end([p], [setup])
        failed = sum(r.status == "failed" for r in p.items)
        wrong = sum(r.status == "wrong" for r in p.items)
        any_wrong |= wrong > 0
        n = len(p.items)
        rows.append(f"{name:<15}{n:>6}{e2e['wall_s']:>10.3f}{e2e['item_p50_s']:>12.3f}"
                    f"{e2e['peak_rss_mb']:>13.1f}{failed / n:>14.4f}{wrong / n:>13.4f}")
        notes += [f"  {name}: {r.status}: {r.name}: {r.reason}"
                  for r in p.items if r.status != "ok"]
        summary[name] = {**e2e, "items": n, "failed_share": failed / n, "wrong_share": wrong / n,
                         "item_results": [[r.name, r.seconds, r.status, r.reason] for r in p.items]}
    print("units: wall_s, item_p50_s, setup_s in s; peak_rss_mb in MB; shares are fractions")
    print(header)
    print("\n".join(rows))
    print("\n".join(notes))
    (OUT / f"all-seed{seed}.json").write_text(
        json.dumps({"seed": seed, "env": stamp, "setup_s": setup, "workloads": summary}, indent=1))
    return 1 if any_wrong else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "diagclass" / "cli.py").is_file():
        print(f"error: no package at {SRC.name}/diagclass; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args.seed)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
