"""Self-test of the benchmark harness at tiny sizes (X <= 10^3).

    python3 perfbench/selftest.py

1. Every workload, traced and untraced, emits exactly the metrics that
   BENCHMARK.json names, each with its unit, and reports no failure.
2. Every output check accepts the real output and rejects a corrupted
   one (empty, truncated, a digit changed, true -> false) and a wrong exit
   code.
3. The generated fixture plants exact-boundary coefficients (a known,
   nonzero `zero` count) and denominators past int64.
4. Without the package sources the benchmark exits nonzero and prints no
   result.
Exits 0 when all pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from run import ROOT, SRC, WORK

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def metric_names() -> None:
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        for name in workloads.WORKLOADS:
            args = ["--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(
                [*RUN, *args, "--size", "tiny"], capture_output=True, text=True, cwd=ROOT
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(
                proc.returncode == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name} trace={trace}: exit 0 and result keys",
            )
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} trace={trace}: correct, nothing failed")
            missing = sorted(set(want) ^ set(got))
            wrong = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
            expect(not missing and not wrong,
                   f"{name} trace={trace}: {group} names and units {missing or ''}{wrong or ''}")


def _corrupt(stdout: str) -> dict[str, str]:
    digits = [m.start() for m in re.finditer(r"\d", stdout)]
    last = digits[-1]
    out = {
        "empty": "",
        "truncated": stdout[: len(stdout) // 2],
        "digit changed": stdout[:last] + str((int(stdout[last]) + 1) % 10) + stdout[last + 1 :],
    }
    if "true" in stdout:
        out["true -> false"] = stdout.replace("true", "false")
    return out


def output_checks() -> None:
    sys.path.insert(0, str(SRC))
    from hilbert_signs import cli

    for name in workloads.WORKLOADS:
        workdir = WORK / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "it").mkdir(parents=True)
        try:
            for cmd in workloads.prepare(name, 0, "tiny", workdir)(workdir / "it"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = cli.main(list(cmd.argv))
                good = out.getvalue()
                label = f"{name} {cmd.argv[0]}"
                expect(cmd.check(rc, good) is None, f"{label}: real output passes")
                expect(cmd.check(1, good) is not None, f"{label}: exit code 1 fails")
                for how, bad in _corrupt(good).items():
                    expect(cmd.check(0, bad) is not None, f"{label}: {how} stdout fails")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def planted_fixture() -> None:
    workdir = WORK / "selftest-fixture"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        fixture, _, counts = workloads.make_fixture(0, 100_000, workdir)
        dens = [e["c_den"] for e in json.loads(fixture.read_text())["entries"]]
        expect(counts["zero"] > 0, f"fixture plants lambda = 0 ({counts['zero']} of {counts['total']})")
        expect(max(dens) > 2**63, "fixture plants denominators past int64")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bare_directory() -> None:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "simulate-d5", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180,
        )
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "without src/ it exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    planted_fixture()
    output_checks()
    metric_names()
    bare_directory()
    print(f"{len(failures)} failure(s)" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
