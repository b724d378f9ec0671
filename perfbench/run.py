"""Benchmark of the hilbert-signs CLI.  See perfbench/README.md.

    python3 perfbench/run.py --workload simulate-d5 --seed 1 --seconds 15 --trace 0

--trace 0 runs each command of the workload as a fresh
`python -m hilbert_signs.cli` child, one at a time (a closed loop with
one client), repeating the sequence until --seconds have passed, and
reports the end-to-end metrics.  --trace 1 runs the same commands
through `hilbert_signs.cli.main`, one fresh worker process per pass
(perfbench/inprocess.py), with the spans and counters of
perfbench/spans.py installed, and reports the per-layer metrics.
`--workload all` runs every workload in turn.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from spans import LAYERS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_SAMPLES = 9  # at least this many, SETUP_PER_ITERATION before each iteration
SETUP_PER_ITERATION = 3


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": "absent",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "loadavg_start": [round(v, 2) for v in os.getloadavg()],
        "git_commit": "unknown",
    }
    with contextlib.suppress(ImportError, LookupError):
        from importlib.metadata import version

        env["numpy"] = version("numpy")
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        env["cpu_model"] = next(
            (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
            env["cpu_model"],
        )
    with contextlib.suppress(OSError, IndexError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        env["git_commit"] = head
    return env


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n < 11:
        return "-"
    q = math.floor(100 * (n - 10) / n)
    return f"p{q}={statistics.quantiles(values, n=100, method='inclusive')[q - 1]:.4f}"


class Tally:
    """Commands attempted and checks failed; the first few reasons go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {why}", file=sys.stderr)

    def record(self, cmd, rc: int, stdout: str, stderr: str = "") -> None:
        self.attempted += 1
        why = cmd.check(rc, stdout)
        if why:
            self.fail(f"{cmd.argv[0]}: {why}\n{stderr[-800:]}")


# ----------------------------------------------------------------------
# end to end: fresh CLI children, tracing off
# ----------------------------------------------------------------------


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout of enum-keyed data in every child
    env["HILBERT_SIGNS_CACHE"] = str(workdir / "home-cache")  # never ~/.cache
    return env


def run_child(args: list[str], env: dict, out: Path):
    """(wall s, cpu s, max rss MB, exit code, stdout, stderr) of one child."""
    with open(out, "wb+") as fo, open(out.with_suffix(".err"), "wb+") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=fo, stderr=fe, env=env, cwd=ROOT)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        stdout, stderr = fo.read().decode(), fe.read().decode(errors="replace")
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, rc, stdout, stderr


def end_to_end(name: str, seed: int, seconds: float, size: str, workdir: Path):
    commands = workloads.prepare(name, seed, size, workdir)
    env = child_env(workdir)
    tally = Tally()
    imports = []

    def time_imports(k: int) -> None:
        for _ in range(k):
            wall, *_, rc, _, err = run_child(["-c", "import hilbert_signs.cli"], env, workdir / "import.out")
            if rc:
                raise SystemExit(f"importing hilbert_signs.cli failed:\n{err}")
            imports.append(wall)

    time_imports(1)  # writes the bytecode caches; not a sample
    imports.clear()
    walls, cpus, rss = [], [], 0.0
    start = perf_counter()
    it = 0
    while it == 0 or perf_counter() - start < seconds:
        # import samples spread over the run, so one slow spell of a shared
        # machine does not set the median
        time_imports(SETUP_PER_ITERATION)
        it_dir = workdir / f"it{it}"
        it_dir.mkdir()
        wall_sum = cpu_sum = 0.0
        seq = commands(it_dir)
        for j, cmd in enumerate(seq):
            argv = ["-m", "hilbert_signs.cli", *cmd.argv]
            wall, cpu, mb, rc, out, err = run_child(argv, env, it_dir / f"cmd{j}.out")
            wall_sum, cpu_sum, rss = wall_sum + wall, cpu_sum + cpu, max(rss, mb)
            tally.record(cmd, rc, out, err)
        walls.append(wall_sum)
        cpus.append(cpu_sum)
        shutil.rmtree(it_dir)
        it += 1
    time_imports(SETUP_SAMPLES - len(imports))  # top up; a no-op when negative
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(imports), "s"),
    }
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": imports}
    print(f"{name}: {it} iteration(s) of {len(seq)} command(s)")
    print(f"  {'metric':<14}{'unit':<7}{'median':>11}  tail           n")
    for key, (value, unit) in metrics.items():
        vals = samples.get(key, [value])
        print(f"  {key:<14}{unit:<7}{value:>11.4f}  {tail(vals):<14}{len(vals):>2}")
    print(f"  {'fail_rate':<14}{'ratio':<7}{tally.failed / tally.attempted:>11.4f}  "
          f"{'-':<14}{tally.attempted:>2}")
    return metrics, tally


# ----------------------------------------------------------------------
# traced: in-process through hilbert_signs.cli.main
# ----------------------------------------------------------------------


def run_pass(commands, it_dir: Path, env: dict, traced: bool, tally: Tally):
    """One in-process pass in a fresh worker; return (wall s, metrics or None)."""
    it_dir.mkdir()
    seq = commands(it_dir)
    job = json.dumps({"argv": [list(c.argv) for c in seq], "traced": traced})
    worker = [sys.executable, str(ROOT / "perfbench" / "inprocess.py")]
    proc = subprocess.run(worker, input=job, capture_output=True, text=True, env=env, cwd=ROOT)
    if proc.returncode:
        raise SystemExit(f"in-process worker failed:\n{proc.stderr}")
    result = json.loads(proc.stdout)
    for cmd, res in zip(seq, result["commands"]):
        tally.record(cmd, res["rc"], res["stdout"], res["stderr"])
    shutil.rmtree(it_dir)
    metrics = result["metrics"]
    return result["wall"], metrics and {k: tuple(v) for k, v in metrics.items()}


def _self(m, *layers) -> float:
    return sum(m[f"{layer}.self_s"][0] for layer in layers)


# Each workload's stated reason: time that must exceed half the traced wall.
REASONS = {
    "curve-37a-cold": [("curves self", lambda m: _self(m, "curves"))],
    "fixture-d5-twisted": [
        ("eigen_io + sign_pipeline + characters self",
         lambda m: _self(m, "eigen_io", "sign_pipeline", "characters")),
        ("eigen_io.load_s, with the field_arith lookups it makes, + sign_pipeline"
         " + characters self outside it",
         lambda m: m["eigen_io.load_s"][0] + _self(m, "sign_pipeline", "characters")
         - m["sign_pipeline.ingest_s"][0]),
    ],
    "series-check-d5": [("formal_series self", lambda m: _self(m, "formal_series"))],
}


def traced(name: str, seed: int, seconds: float, size: str, workdir: Path):
    commands = workloads.prepare(name, seed, size, workdir)
    env = child_env(workdir)
    env["PYTHONPATH"] += os.pathsep + str(ROOT / "perfbench")
    tally = Tally()
    start = perf_counter()
    # untraced, traced, traced, then (untraced, traced) pairs while time remains
    plain = [run_pass(commands, workdir / "u0", env, False, tally)[0]]
    passes = []
    while len(passes) < 2 or perf_counter() - start < seconds:
        if len(passes) >= 2:
            plain.append(run_pass(commands, workdir / f"u{len(plain)}", env, False, tally)[0])
        passes.append(run_pass(commands, workdir / f"t{len(passes)}", env, True, tally)[1])
    for key, (value, unit) in passes[0].items():
        if unit != "s" and any(p[key][0] != value for p in passes[1:]):
            tally.fail(f"count {key} differs between traced passes: {[p[key][0] for p in passes]}")
    metrics = {
        key: (statistics.median(p[key][0] for p in passes) if unit == "s" else value, unit)
        for key, (value, unit) in passes[0].items()
    }
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - statistics.median(plain), "s")
    wall = metrics["trace.wall_s"][0]
    print(f"{name}: {len(passes)} traced and {len(plain)} untraced in-process pass(es)")
    print(f"  traced wall {wall:.3f} s, untraced {statistics.median(plain):.3f} s, "
          f"overhead {metrics['trace.overhead_s'][0]:.3f} s")
    for layer in (*LAYERS, "cli"):
        share = metrics[f"{layer}.self_s"][0] / wall
        print(f"  self {layer:<14}{metrics[f'{layer}.self_s'][0]:>9.3f} s {100 * share:6.1f}%")
    print(f"  unattributed      {metrics['trace.unattributed_s'][0]:>9.3f} s")
    for key, (value, unit) in metrics.items():
        if not key.endswith(".self_s"):
            print(f"  {key:<40}{value:>14.4f} {unit}")
    for what, part in REASONS.get(name, ()):
        share = part(metrics) / wall
        print(f"  reason: {what} is {100 * share:.1f}% of traced wall "
              f"({'holds' if share > 0.5 else 'DOES NOT HOLD'})")
    for layer, home in (("curves", "curve-37a-cold"), ("formal_series", "series-check-d5")):
        if name != home:
            absent = metrics[f"{layer}.self_s"][0] == 0
            print(f"  reason: {layer} absent outside {home}: {'holds' if absent else 'DOES NOT HOLD'}")
    return metrics, tally


# ----------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, size: str):
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return (traced if trace else end_to_end)(name, seed, seconds, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                    help="input size; 'tiny' (X <= 10^3) is for the self-test")
    args = ap.parse_args(argv)
    if not (SRC / "hilbert_signs" / "cli.py").is_file():
        print(f"error: no hilbert_signs sources under {SRC}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        m, tally = run(name, args.seed, args.seconds, bool(args.trace), args.size)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
