"""The pinned `simulate` runs, each a fresh process through the console script.

Each test keeps the argv, the expected last line, the timeout and (at
10^8) the max-RSS bound of a pinned run.  The child is the installed
`hilbert-signs` when it is on PATH, else `python -m hilbert_signs.cli`
on this checkout's package, and its max RSS is read with os.wait4.
"""

import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hilbert_signs

_SCRIPT = shutil.which("hilbert-signs")


def _console(*argv, timeout: float) -> tuple[str, float]:
    """(stdout, max RSS in MB) of one run, which must exit 0 inside timeout seconds."""
    if _SCRIPT:
        cmd, env = [_SCRIPT, *argv], None
    else:
        src = str(Path(hilbert_signs.__file__).parents[1])
        cmd = [sys.executable, "-m", "hilbert_signs.cli", *argv]
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    assert code == 0, f"{argv} exited {code} (killed after {timeout} s if -9): {out!r}"
    return out, usage.ru_maxrss / 1024  # KiB on Linux


def _last_line(out: str) -> str:
    return out.splitlines()[-1]


_AT_1E6 = {
    0: "1000000,78510,39139,39369,0,2,0.498522481213,0.000000000000,78508,0.002735258546,0.005817423052,1",
    39: "1000000,78510,38993,39515,0,2,0.496662845497,0.000000000000,78508,0.005137846444,0.005817423052,1",
}


@pytest.mark.parametrize("seed", sorted(_AT_1E6))
def test_simulate_at_1e6_inside_10_s(seed):
    out, _ = _console("simulate", "--d", "5", "--x", "1000000", "--seed", str(seed), timeout=10)
    assert _last_line(out) == _AT_1E6[seed]


def test_simulate_at_1e7_inside_a_minute():
    out, _ = _console("simulate", "--d", "5", "--x", "10000000", "--seed", "3", timeout=60)
    want = "10000000,664500,331991,332507,0,2,0.499610233258,0.000000000000,664498,0.000646678340,0.001999589121,1"
    assert _last_line(out) == want


def test_simulate_at_1e8_inside_a_minute_under_480_mb():
    out, rss = _console("simulate", "--d", "5", "--x", "100000000", "--seed", "3", timeout=60)
    want = "100000000,5761588,2879059,2882527,0,2,0.499698867743,0.000000000000,5761586,0.000481222756,0.000679073183,1"
    assert _last_line(out) == want
    assert rss < 480, f"simulate at 10^8 peaked at {rss:.1f} MB max RSS"
