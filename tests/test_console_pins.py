"""The pinned console-script runs, each a fresh process through the console script.

Each test keeps the argv, the expected output or exit code, the timeout
and (at 10^7 and 10^8) the max-RSS bound of a pinned run.  The child is
the installed `hilbert-signs` when it is on PATH, else `python -m
hilbert_signs.cli` on this checkout's package.  It is started by a small
launcher, which reads its exit code and max RSS with os.wait4.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import hilbert_signs

_SCRIPT = shutil.which("hilbert-signs")


def _command(*argv) -> tuple[list[str], dict | None]:
    """(command line, environment) of one run of the console script."""
    if _SCRIPT:
        return [_SCRIPT, *argv], None
    src = str(Path(hilbert_signs.__file__).parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return [sys.executable, "-m", "hilbert_signs.cli", *argv], env


# Linux starts a child's max RSS at the RSS of the process that forked it, so
# a command started by pytest would read at least pytest's own size.  The
# launcher is a small process: it runs the command (its arguments past the
# first) and writes "<exit code> <max RSS in KiB>" of it to the fd named by
# its first argument.
_LAUNCHER = """\
import os, subprocess, sys
_, status, usage = os.wait4(subprocess.Popen(sys.argv[2:]).pid, 0)
os.write(int(sys.argv[1]), b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))
"""


def _console(*argv, timeout: float | None = None, code: int = 0, read=None) -> tuple:
    """(stdout, max RSS in MB) of one run, which must exit with code, inside timeout seconds if given.

    read(stdout), if given, takes the binary stdout in place of reading it
    whole as text, and its result stands for the stdout.
    """
    cmd, env = _command(*argv)
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-c", _LAUNCHER, str(write_end), *cmd],
        env=env, stdout=subprocess.PIPE, pass_fds=(write_end,), start_new_session=True,
    )
    os.close(write_end)
    report = os.fdopen(read_end, "rb")
    # the launcher leads its own process group, so a kill takes the command too
    timer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL)) if timeout else None
    if timer:
        timer.start()
    try:
        out = read(proc.stdout) if read else proc.stdout.read().decode()
        usage = report.read().split()
        proc.wait()
    finally:
        if timer:
            timer.cancel()
        proc.stdout.close()
        report.close()
    exit_code, max_rss = map(int, usage) if usage else (proc.returncode, 0)
    assert exit_code == code, f"{argv} exited {exit_code}, not {code} (killed after {timeout} s if -9): {out!r}"
    return out, max_rss / 1024  # KiB on Linux


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


def test_simulate_at_1e7_at_a_nonsquare_tau_inside_a_minute():
    # tau = 4 + sqrt(5): every row of the table takes a residue symbol
    out, _ = _console("simulate", "--d", "5", "--x", "10000000", "--seed", "3", "--tau", "4", "--tau-b", "1", timeout=60)
    want = "10000000,664500,332138,332359,0,3,0.499831452220,0.000000000000,664497,0.000647819122,0.001999590626,1"
    assert _last_line(out) == want


def test_simulate_at_1e8_inside_a_minute_under_480_mb():
    out, rss = _console("simulate", "--d", "5", "--x", "100000000", "--seed", "3", timeout=60)
    want = "100000000,5761588,2879059,2882527,0,2,0.499698867743,0.000000000000,5761586,0.000481222756,0.000679073183,1"
    assert _last_line(out) == want
    assert rss < 480, f"simulate at 10^8 peaked at {rss:.1f} MB max RSS"


_37A_AT_1E5 = "100000,9592,4755,4821,14,0.495725604671"


def test_signs_on_37a_to_1e5_cold_then_cached(tmp_path):
    for _ in ("cold", "cached"):
        out, _ = _console("signs", "--curve", "37a", "--x", "100000", "--cache-dir", str(tmp_path))
        assert _last_line(out) == _37A_AT_1E5
    assert len(list(tmp_path.iterdir())) == 1


def _cache_sha256(cache: Path) -> str:
    """sha256 of the cache's documents, one after another."""
    return hashlib.sha256(b"".join(f.read_bytes() for f in sorted(cache.glob("*.json")))).hexdigest()


def test_signs_on_37a_to_1e6_cold_inside_30_s_then_cached(tmp_path):
    argv = ("signs", "--curve", "37a", "--x", "1000000", "--cache-dir", str(tmp_path))
    want, digest = "1000000,78498,39098,39370,28,0.498076384112", "6763615212760b3b6999faebe956ed75640f81f9e5066c8127b54f0bb5b8fc21"
    assert _last_line(_console(*argv, timeout=30)[0]) == want
    assert _cache_sha256(tmp_path) == digest
    assert _last_line(_console(*argv)[0]) == want
    assert _cache_sha256(tmp_path) == digest


def test_signs_on_5077a_and_32a_to_1e5(tmp_path):
    # 5077a has rank 3; 32a has CM, and f(0) = 0 at every p
    for label, want in (("5077a", "100000,9592,4716,4865,9,0.491659716430"), ("32a", "100000,9592,2410,7181,0,0.251251042535")):
        out, _ = _console("signs", "--curve", label, "--x", "100000", "--cache-dir", str(tmp_path))
        assert _last_line(out) == want


# series-check at 10^5 on four fields, at d = 17 seed 0, at its --x cap and over Q: (argv, timeout)
_SERIES_CHECKS = {
    "d5-1e5": (("--d", "5", "--x", "100000", "--count", "10"), 60),
    "d17-1e5": (("--d", "17", "--x", "100000", "--count", "3"), 30),
    "d2-1e5": (("--d", "2", "--x", "100000", "--count", "3"), 30),
    "d97-1e5": (("--d", "97", "--x", "100000", "--count", "3"), 30),
    "d17-seed-0": (("--d", "17", "--x", "1000", "--seed", "0"), None),
    "d5-1e6": (("--d", "5", "--x", "1000000", "--count", "10"), 30),
    "over-Q": (("--d", "1", "--x", "1000", "--count", "3"), None),
}


@pytest.mark.parametrize("case", list(_SERIES_CHECKS))
def test_series_check_round_trips(case):
    argv, timeout = _SERIES_CHECKS[case]
    out, _ = _console("series-check", *argv, timeout=timeout)
    assert json.loads(out)["ok"] is True


# the ideal table keeps each divisor pair once, and each ideal its parent and
# last prime: 86 MB max RSS at 10^6 and 540 MB at 10^7, on a 2-vCPU VM (the
# 140 and 1,100 MB rows are the bounds of the table that kept factor lists).
# The 106 MB bound of the 1e6-tree row was set when the reading started at
# pytest's own size, ~98 MB late in a full run; the launcher reads ~86 MB.
_MAX_RSS = [(10**6, 30, 140), (10**6, 30, 106), (10**7, 120, 1100)]


@pytest.mark.parametrize("x, timeout, mb", _MAX_RSS, ids=["1e6", "1e6-tree", "1e7"])
def test_series_check_under_its_max_rss(x, timeout, mb):
    out, rss = _console("series-check", "--d", "5", "--x", str(x), "--count", "10", timeout=timeout)
    assert json.loads(out)["ok"] is True
    assert rss < mb, f"series-check at {x} peaked at {rss:.1f} MB max RSS"


# primes and char write the prime table _LANES rows at a time, so both peak
# where the table is built: 47.7-48.1 MB max RSS at 10^7 and 179 MB at 10^8,
# in 0.7-1.0 s and 5.6-7.4 s, on a 2-vCPU VM.  Formatting every row first took
# 1,029 and 897 MB at 10^7, and at 10^8 `primes` was killed at 7.66 GB.
# (argv, timeout, MB, sha256 and last row of the JSON table)
_TABLES = {
    "primes-1e7": (
        ("primes", "--d", "5", "--x", "10000000"), 30, 53,
        "fec7fd3f4597d850f72f47e9c00ea7d71c4d878ae8d90f7b7dd5b157e2cd727b",
        {"norm": 9999991, "rational_prime": 9999991, "root_label": 1, "residue_degree": 1, "splitting": "split_second"},
    ),
    "char-1e7": (
        ("char", "--d", "5", "--x", "10000000", "--tau", "4", "--tau-b", "1"), 30, 53,
        "7a22e1689cd6c2dcad1c83650734812ce9bdfcc46ed860f11044d2b4099f9f9a",
        {"norm": 9999991, "rational_prime": 9999991, "root_label": 1, "chi": 1},
    ),
    "primes-1e8": (
        ("primes", "--d", "5", "--x", "100000000"), 60, 200,
        "f53bd5e4db9de8302098ae41a5906e84971d5a7f2e6c687e11990111b51e243f",
        {"norm": 99999989, "rational_prime": 99999989, "root_label": 1, "residue_degree": 1, "splitting": "split_second"},
    ),
    "char-1e8": (
        ("char", "--d", "5", "--x", "100000000", "--tau", "4", "--tau-b", "1"), 60, 200,
        "7588f21b38abb79dd2094c78ffb9f6931024c99c50e8b6c0644db56359090f7b",
        {"norm": 99999989, "rational_prime": 99999989, "root_label": 1, "chi": -1},
    ),
}


def _sha256_and_last_row(stdout) -> tuple[str, dict]:
    """sha256 of a JSON table on the binary stdout, read a MB at a time, and its last row."""
    digest, tail = hashlib.sha256(), b""
    while chunk := stdout.read(1 << 20):
        digest.update(chunk)
        tail = (tail + chunk)[-1024:]
    tail = tail.decode()
    assert tail.endswith("\n }\n]\n")
    return digest.hexdigest(), json.loads("{" + tail.rsplit("{", 1)[1].removesuffix("]\n"))


@pytest.mark.parametrize("case", list(_TABLES))
def test_a_json_table_under_its_max_rss(case):
    argv, timeout, mb, sha256, last_row = _TABLES[case]
    out, rss = _console(*argv, "--format", "json", timeout=timeout, read=_sha256_and_last_row)
    assert out == (sha256, last_row)
    assert rss < mb, f"{case} peaked at {rss:.1f} MB max RSS"


_WRITERS = [
    ("primes", "--d", "5", "--x", "1000"),
    ("char", "--d", "5", "--x", "1000", "--tau", "4", "--tau-b", "1"),
    ("simulate", "--d", "5", "--x", "1000", "--seed", "1"),
    ("series-check", "--d", "5", "--x", "100", "--count", "1"),
]


@pytest.mark.parametrize("argv", _WRITERS, ids=[argv[0] for argv in _WRITERS])
def test_a_full_device_on_stdout_exits_2_with_one_line(argv):
    cmd, env = _command(*argv)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(cmd, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "error: cannot write stdout: [Errno 28] No space left on device\n")


def test_a_reader_that_closes_stdout_early_ends_the_output_quietly():
    cmd, env = _command("primes", "--d", "5", "--x", "1000000")
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b"norm,ratio"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (0, b"")


def _with_entry(doc: Path, dest: Path, entry: dict) -> str:
    """dest, written as the eigen-series document doc with one more entry."""
    obj = json.loads(doc.read_text())
    obj["entries"].append(entry)
    dest.write_text(json.dumps(obj))
    return str(dest)


def test_the_character_and_a_psi_twisted_fixture(tmp_path):
    out, _ = _console("char", "--d", "13", "--x", "1000", "--tau", "7")
    assert out.splitlines()[0] == "norm,rational_prime,root_label,chi"
    assert out.count("\n") > 100
    _console("signs", "--curve", "11a", "--x", "1000", "--cache-dir", str(tmp_path))
    psi = tmp_path / "psi.json"
    psi.write_text('[{"prime_norm": 3, "rational_prime": 3, "root_label": 0, "value": -1}]\n')
    (doc,) = tmp_path.glob("curve-11a-*.json")
    _console("signs", "--fixture", str(doc), "--x", "1000", "--psi-file", str(psi), "--format", "json")


def test_a_cache_file_read_at_a_smaller_x_and_a_composite_named_past_it(tmp_path):
    _console("signs", "--curve", "11a", "--x", "1000", "--cache-dir", str(tmp_path))
    (doc,) = tmp_path.glob("curve-11a-X1000-*.json")
    want = _last_line(_console("signs", "--curve", "11a", "--x", "100", "--cache-dir", str(tmp_path))[0])
    assert want == "100,25,8,14,1,0.320000000000"
    assert _last_line(_console("signs", "--fixture", str(doc), "--x", "100")[0]) == want
    entry = {"norm": 1003, "rational_prime": 1003, "root_label": 0, "c_num": 0, "c_den": 1}
    _console("signs", "--fixture", _with_entry(doc, tmp_path / "composite.json", entry), "--x", "100", code=2)


def test_a_hasse_violation_named_past_x_exits_2(tmp_path):
    _console("signs", "--curve", "11a", "--x", "100", "--cache-dir", str(tmp_path))
    (doc,) = tmp_path.glob("curve-11a-X100-*.json")
    _console("signs", "--fixture", str(doc), "--x", "100")
    # c = 1 at norm 1009 is far past 2/sqrt(1009)
    entry = {"norm": 1009, "rational_prime": 1009, "root_label": 0, "c_num": 1, "c_den": 1}
    _console("signs", "--fixture", _with_entry(doc, tmp_path / "past.json", entry), "--x", "100", code=2)


def test_an_input_error_exits_2(tmp_path):
    _console("char", "--d", "5", "--x", "10", "--tau", "1/0", code=2)
    _console("signs", "--curve", "37a", "--x", "100000", "--d", "5", "--cache-dir", str(tmp_path), code=2)
    assert not any(tmp_path.iterdir())


def test_a_tau_with_a_huge_prime_norm_exits_2_instead_of_stalling():
    _console("char", "--d", "5", "--x", "10", "--tau", "1000000000000000003", timeout=20, code=2)


def _shifted(doc: Path, dest: Path, every: int) -> str:
    """dest, written as the eigen-series document doc with c + 10^-30 / c_den at every `every`-th entry.

    A shifted entry's denominator is past 2^63, so its row runs in Python ints.
    """
    obj = json.loads(doc.read_text())
    for e in obj["entries"][::every]:
        e["c_num"], e["c_den"] = e["c_num"] * 10**30 + 1, e["c_den"] * 10**30
    dest.write_text(json.dumps(obj))
    return str(dest)


def _tally(out: str) -> tuple[int, int, int]:
    """(pos, neg, zero) of a signs CSV."""
    return tuple(map(int, _last_line(out).split(",")[2:5]))


def test_a_cache_document_shifted_by_10_30_runs_in_python_ints(tmp_path):
    _console("signs", "--curve", "11a", "--x", "1000", "--cache-dir", str(tmp_path))
    (doc,) = tmp_path.glob("curve-11a-X1000-*.json")
    shifted = _shifted(doc, tmp_path / "shifted.json", 1)
    pos, neg, zero = _tally(_console("signs", "--fixture", str(doc), "--x", "1000")[0])
    assert _tally(_console("signs", "--fixture", shifted, "--x", "1000")[0]) == (pos + zero, neg, 0)
    ks = [json.loads(_console("stats", "--fixture", f, "--x", "1000")[0])["ks_statistic"] for f in (str(doc), shifted)]
    assert ks[0] == ks[1]


def test_a_cache_document_with_every_50th_entry_shifted_matches_an_exact_recount(tmp_path):
    # the benchmark fixture's mix: 2% of the rows past int64, the rest in int64 lanes
    _console("signs", "--curve", "11a", "--x", "1000", "--cache-dir", str(tmp_path))
    (doc,) = tmp_path.glob("curve-11a-X1000-*.json")
    shifted = _shifted(doc, tmp_path / "mix.json", 50)
    obj = json.loads(Path(shifted).read_text())
    bad = {2, *obj["level_support"]}  # tau = 1: chi is 1 at every other prime
    counts = [0, 0, 0]  # pos, neg, zero
    for e in obj["entries"]:
        if e["rational_prime"] not in bad:
            s = Fraction(e["c_num"], e["c_den"]) - Fraction(1, e["norm"])
            counts[0 if s > 0 else 1 if s < 0 else 2] += 1
    assert counts[2] > 0
    assert _tally(_console("signs", "--fixture", shifted, "--x", "1000")[0]) == tuple(counts)
