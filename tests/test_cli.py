"""End-to-end runs of every subcommand through main(), no subprocesses."""

import ast
import builtins
import errno
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import (
    IdealFactorization,
    enumerate_prime_ideals,
    save_fixture,
    series_from_dict,
    series_to_obj,
    value_at,
)
from oracles import factor_principal_ideal as factor_by_roots

import hilbert_signs
from hilbert_signs import characters, cli, eigen_io, field_arith
from hilbert_signs.characters import IdealCharacter
from hilbert_signs.cli import SIMULATE_CSV_HEADER, TALLY_CSV_HEADER, build_parser, main
from hilbert_signs.curves import get_curve, series_from_curve
from hilbert_signs.eigen_io import cache_path
from hilbert_signs.field_arith import (
    NARROW_CLASS_NUMBER_ONE,
    _ideal_objects,
    _ideal_table,
    _prime_table,
    make_field,
)
from hilbert_signs.sato_tate import synth_eigen_series
from hilbert_signs.sign_pipeline import SignSurvey


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_primes_csv_matches_library(capsys, field5):
    code, out, _ = run(capsys, "primes", "--d", "5", "--x", "50")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "norm,rational_prime,root_label,residue_degree,splitting"
    primes = enumerate_prime_ideals(field5, 50)
    assert len(lines) == len(primes) + 1
    for line, P in zip(lines[1:], primes):
        norm, p, label, deg, splitting = line.split(",")
        assert (int(norm), int(p), int(label), int(deg)) == (
            P.norm,
            P.rational_prime,
            P.root_label,
            P.residue_degree,
        )
        assert splitting == P.splitting.value


def test_primes_json_and_out_file(capsys, tmp_path):
    dest = tmp_path / "primes.json"
    code, out, _ = run(
        capsys, "primes", "--d", "1", "--x", "30", "--format", "json", "--out", str(dest)
    )
    assert code == 0 and out == ""
    items = json.loads(dest.read_text())
    assert [it["norm"] for it in items] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


_TABLE_COMMANDS = {"primes": ("primes", "--d", "5"), "char": ("char", "--d", "5", "--tau", "4", "--tau-b", "1")}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(_TABLE_COMMANDS))
def test_a_table_is_the_same_bytes_at_any_block_size(capsys, monkeypatch, tmp_path, command, fmt):
    def outputs() -> list[str]:
        """stdout and the --out file of the command at X = 1 (no rows), 300 and 3000."""
        texts = []
        for x in ("1", "300", "3000"):
            argv, dest = (*_TABLE_COMMANDS[command], "--x", x, "--format", fmt), tmp_path / f"{x}.out"
            code, out, _ = run(capsys, *argv)
            assert code == 0 and run(capsys, *argv, "--out", str(dest)) == (0, "", "")
            texts += [out, dest.read_text()]
        return texts

    want = outputs()
    assert want[0::2] == want[1::2]
    # X = 1 has no rows: JSON's [] and the CSV header alone
    assert want[0] == ("[]\n" if fmt == "json" else want[2].split("\n", 1)[0] + "\n")
    if fmt == "json":  # the layout of json.dumps(indent=1)
        assert [json.dumps(json.loads(t), indent=1) + "\n" for t in want] == want
    for lanes in (1, 2, 7):
        monkeypatch.setattr(cli, "_LANES", lanes)
        assert outputs() == want, f"block size {lanes}"


def test_char_matches_library(capsys, field5):
    code, out, _ = run(capsys, "char", "--d", "5", "--x", "100", "--tau", "4", "--tau-b", "1")
    assert code == 0
    chi = IdealCharacter.from_tau(field5, (4, 1))
    lines = out.strip().split("\n")[1:]
    for line, P in zip(lines, enumerate_prime_ideals(field5, 100)):
        assert int(line.split(",")[-1]) == value_at(chi, P)


def test_char_psi_file_flips(capsys, tmp_path, field5):
    psi = tmp_path / "psi.json"
    psi.write_text(
        json.dumps([{"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": -1}])
    )
    _, base, _ = run(capsys, "char", "--d", "5", "--x", "10", "--tau", "4", "--tau-b", "1")
    _, flipped, _ = run(
        capsys, "char", "--d", "5", "--x", "10", "--tau", "4", "--tau-b", "1",
        "--psi-file", str(psi),
    )
    base_rows = dict(line.rsplit(",", 1) for line in base.strip().split("\n")[1:])
    flipped_rows = dict(line.rsplit(",", 1) for line in flipped.strip().split("\n")[1:])
    assert flipped_rows["9,3,0"] == str(-int(base_rows["9,3,0"]))
    assert flipped_rows["5,5,0"] == base_rows["5,5,0"]


def test_signs_curve_csv(capsys):
    code, out, _ = run(capsys, "signs", "--curve", "37a", "--x", "2000")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == TALLY_CSV_HEADER
    t = SignSurvey(series_from_curve(get_curve("37a"), 2000), 1)
    x, total, pos, neg, zero, dens = row.split(",")
    assert (int(x), int(total), int(pos), int(neg), int(zero)) == (
        2000,
        t.total,
        t.pos,
        t.neg,
        t.zero,
    )
    assert dens.startswith("0.")


def test_signs_json_counts(capsys):
    code, out, _ = run(
        capsys, "signs", "--curve", "37a", "--x", "1000", "--format", "json", "--tau", "2"
    )
    assert code == 0
    obj = json.loads(out)
    t = SignSurvey(series_from_curve(get_curve("37a"), 1000), 2)
    assert obj["counts"] == {
        "pos": t.pos, "neg": t.neg, "zero": t.zero, "bad": t.bad, "total": t.total,
    }


def test_signs_fixture_source(capsys, tmp_path):
    path = tmp_path / "fx.json"
    save_fixture(series_from_curve(get_curve("11a"), 500), path)
    code, out, _ = run(capsys, "signs", "--fixture", str(path), "--x", "500")
    assert code == 0
    assert out.startswith(TALLY_CSV_HEADER)


def test_signs_d_consistency_check(capsys):
    code, _, err = run(capsys, "signs", "--curve", "37a", "--x", "100", "--d", "5")
    assert code == 2
    assert "error:" in err and "d=1" in err


def test_signs_unknown_curve(capsys):
    code, _, err = run(capsys, "signs", "--curve", "unknown9z", "--x", "100")
    assert code == 2 and "error:" in err


def test_stale_curve_cache_is_not_reused(capsys, tmp_path):
    # a file under the unversioned key, as an older a_p route could have
    # left it: a valid document, but every c = 0
    stale = series_to_obj(series_from_curve(get_curve("37a"), 100))
    for row in stale["entries"]:
        row["c_num"], row["c_den"] = 0, 1
    planted = cache_path("curve-37a-X100", tmp_path)
    _write_json(planted, stale)
    before = planted.read_bytes()
    argv = ["signs", "--curve", "37a", "--x", "100", "--cache-dir"]
    _, fresh, _ = run(capsys, *argv, str(tmp_path / "fresh"))
    code, out, _ = run(capsys, *argv, str(tmp_path))
    assert code == 0 and out == fresh
    assert planted.read_bytes() == before


def test_stats_artifacts(capsys, tmp_path):
    hist = tmp_path / "hist.csv"
    svg = tmp_path / "plot.svg"
    out_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "stats", "--curve", "37a", "--x", "2000",
        "--hist-out", str(hist), "--svg", str(svg), "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["label"] == "37a" and report["ks_pass"] is True
    assert report["n"] == int(report["n"])
    assert hist.read_text().startswith("bin_lo,bin_hi,count,frequency,expected_mass")
    assert svg.read_text().startswith("<svg")
    # the exact bytes of both files, pinned like the golden stdout digests
    assert hashlib.sha256(hist.read_bytes()).hexdigest() == (
        "6c7f86330bfbb8c3973a7dc1d0b0078ace4063e576868c04dd8090c00a66a612"
    )
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "ff13539f2d361fef21c87e3c41830b42bf9523cb260647167c63a0ad1a5aeff6"
    )


def test_stats_exit_code_tracks_ks(capsys):
    code, out, _ = run(
        capsys, "stats", "--curve", "37a", "--x", "2000", "--threshold-coefficient", "0.01"
    )
    assert code == 1
    assert json.loads(out)["ks_pass"] is False


def test_simulate_csv_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, _, _ = run(
        capsys, "simulate", "--d", "5", "--x", "20000", "--k0", "2", "--seed", "42",
        "--out", str(a),
    )
    code2, _, _ = run(
        capsys, "simulate", "--d", "5", "--x", "20000", "--k0", "2", "--seed", "42",
        "--out", str(b),
    )
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().split("\n")
    assert lines[0] == SIMULATE_CSV_HEADER
    row = lines[1].split(",")
    assert row[0] == "20000" and row[-1] == "1"
    assert int(row[1]) == int(row[2]) + int(row[3]) + int(row[4]) + int(row[5])


def test_simulate_seed_changes_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "simulate", "--d", "5", "--x", "5000", "--seed", "1", "--out", str(a))
    run(capsys, "simulate", "--d", "5", "--x", "5000", "--seed", "2", "--out", str(b))
    assert a.read_bytes() != b.read_bytes()


def test_simulate_json(capsys):
    code, out, _ = run(
        capsys, "simulate", "--d", "1", "--x", "3000", "--seed", "7", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["seed"] == 7 and obj["ks_pass"] is True
    assert obj["counts"]["total"] == 430  # pi(3000)


def test_series_check(capsys):
    _ideal_table.cache_clear()
    _ideal_objects.cache_clear()
    code, out, _ = run(
        capsys, "series-check", "--d", "5", "--x", "300", "--count", "2", "--seed", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and len(obj["checks"]) == 2
    assert all(c["roundtrip"] and c["residuals_zero"] for c in obj["checks"])
    # one ideal table, and no IdealFactorization per ideal
    assert _ideal_table.cache_info().misses == 1
    assert _ideal_objects.cache_info().currsize == 0


@pytest.mark.parametrize("d", [1, 5])
def test_series_check_lambda_is_the_seeded_draw(capsys, monkeypatch, d):
    # any lam round-trips, so the ok flags cannot catch a wrong one: replay the
    # seed, drawing prime by prime into a dict of Fractions
    seen, real = [], cli.c_series_from_lambda

    def recording(lam, chi_P):
        seen.append(lam)
        return real(lam, chi_P)

    monkeypatch.setattr(cli, "c_series_from_lambda", recording)
    K, X = make_field(d), 300
    argv = ["series-check", "--d", str(d), "--x", str(X), "--count", "3", "--seed", "7"]
    assert run(capsys, *argv)[0] == 0
    rng, want = random.Random(7), []
    for _ in range(3):
        rng.randrange(5 if K.is_rational else 4)  # the tau draw
        coeffs = {IdealFactorization(1, (), K): Fraction(1)}
        for P in enumerate_prime_ideals(K, X):
            if rng.random() < 0.5:
                m = IdealFactorization.from_pairs(K, [(P, 1)])
                coeffs[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        want.append(series_from_dict(K, X, coeffs))
    assert seen == want


def test_series_check_evaluates_chi_once_per_check(capsys, monkeypatch):
    # the zeta series, the Moebius series and the prime relation share one evaluation
    calls, real = [], IdealCharacter.values_upto

    def counting(chi, X):
        calls.append(X)
        return real(chi, X)

    monkeypatch.setattr(IdealCharacter, "values_upto", counting)
    assert run(capsys, "series-check", "--d", "5", "--x", "300", "--count", "3", "--seed", "2")[0] == 0
    assert calls == [300, 300, 300]


def test_series_check_fails_when_a_moebius_term_is_dropped(capsys, monkeypatch):
    # negative control: the round trip must notice one missing term
    real = cli.character_moebius_series

    def dropped(K, X, chi_P):
        s = real(K, X, chi_P)
        return series_from_dict(s.field, s.cutoff, {m: v for _, m, v in s.sorted_items()[:-1]})

    monkeypatch.setattr(cli, "character_moebius_series", dropped)
    code, out, _ = run(
        capsys, "series-check", "--d", "5", "--x", "300", "--count", "2", "--seed", "1"
    )
    obj = json.loads(out)
    assert code == 1 and obj["ok"] is False
    assert [c["roundtrip"] for c in obj["checks"]] == [False, False]


def test_series_check_cap_refuses_before_any_work(capsys, monkeypatch):
    def no_work(d):
        raise AssertionError("series-check did work past its cap")

    monkeypatch.setattr(cli, "make_field", no_work)
    code, _, err = run(capsys, "series-check", "--x", str(cli.SERIES_CHECK_MAX_X + 1))
    assert code == 2 and err.startswith("error: series-check --x must be <=")


def test_series_check_count_cap_and_seed_floor(capsys, monkeypatch):
    # the largest --count runs; one more, or a negative --seed, is refused before any work
    code, out, _ = run(capsys, "series-check", "--x", "10", "--count", str(cli.SERIES_CHECK_MAX_COUNT))
    assert code == 0 and len(json.loads(out)["checks"]) == cli.SERIES_CHECK_MAX_COUNT
    monkeypatch.setattr(cli, "make_field", None)
    code, _, err = run(capsys, "series-check", "--count", str(cli.SERIES_CHECK_MAX_COUNT + 1))
    assert code == 2 and err == "error: --count must be in [1, 1000], got 1001\n"
    code, _, err = run(capsys, "series-check", "--seed", "-7")
    assert code == 2 and err == "error: series-check --seed must be >= 0, got -7\n"


@pytest.mark.parametrize("d", NARROW_CLASS_NUMBER_ONE)
def test_every_command_runs_on_every_supported_field(capsys, d):
    # series-check draws m + sqrt(d) with m = max(4, isqrt(d) + 1): 4 + sqrt(d) is not
    # totally positive past d = 16
    K, X, m, field = make_field(d), 200, max(4, math.isqrt(d) + 1), ("--d", str(d))
    primes = enumerate_prime_ideals(K, X)
    code, out, _ = run(capsys, "primes", *field, "--x", str(X))
    assert code == 0 and len(out.splitlines()) == len(primes) + 1
    code, out, _ = run(capsys, "char", *field, "--x", str(X), "--tau", str(m), "--tau-b", "1")
    chi = IdealCharacter.from_tau(K, (m, 1))
    assert code == 0
    assert [int(line.split(",")[-1]) for line in out.splitlines()[1:]] == [value_at(chi, P) for P in primes]
    code, out, _ = run(capsys, "simulate", *field, "--x", "2000", "--seed", "0", "--format", "json")
    assert code == 0 and json.loads(out)["ks_pass"] is True
    for seed in range(8):
        code, out, err = run(capsys, "series-check", *field, "--x", str(X), "--count", "3", "--seed", str(seed))
        assert (code, err) == (0, "") and json.loads(out)["ok"] is True, seed


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unsupported_field_is_clean_error(capsys):
    code, _, err = run(capsys, "primes", "--d", "3", "--x", "10")
    assert code == 2 and "error:" in err


def test_simulate_k0_does_not_change_csv(capsys):
    argv = ["simulate", "--d", "5", "--x", "20000", "--seed", "42"]
    code2, base, _ = run(capsys, *argv)
    code240, high, _ = run(capsys, *argv, "--k0", "240")
    assert code2 == code240 == 0
    assert high == base


def test_each_command_builds_one_prime_table(capsys, tmp_path):
    cache = tmp_path / "cache"
    stats = ["stats", "--curve", "37a", "--x", "2000", "--cache-dir", str(cache)]
    assert run(capsys, *stats)[0] in (0, 1)  # warms the curve cache
    assert run(capsys, "signs", "--curve", "11a", "--x", "1000", "--cache-dir", str(cache))[0] == 0
    (fixture,) = cache.glob("curve-11a-*.json")
    psi = _write_json(tmp_path / "psi.json", [{**_PSI_ROW, "prime_norm": 3, "value": -1}])
    for argv in (
        ["signs", "--fixture", str(fixture), "--psi-file", psi, "--x", "1000"],
        stats,
        ["char", "--x", "1000", "--psi-file", psi],
    ):
        _prime_table.cache_clear()
        code, _, err = run(capsys, *argv)
        assert code in (0, 1) and err == ""
        assert _prime_table.cache_info().misses == 1, argv[0]


class _EulerPowerRun(Exception):
    pass


@pytest.mark.parametrize("argv, square", [
    (["simulate", "--d", "5", "--x", "20000", "--seed", "1"], True),  # the default tau = 1
    (["simulate", "--d", "13", "--x", "20000", "--seed", "1", "--tau", "4"], True),
    (["simulate", "--x", "20000", "--seed", "1", "--tau", "9"], True),
    (["char", "--d", "29", "--x", "20000"], True),
    (["primes", "--d", "5", "--x", "20000"], True),
    (["signs", "--curve", "11a", "--x", "2000", "--cache-dir", "{cache}"], True),
    (["simulate", "--d", "5", "--x", "20000", "--seed", "1", "--tau", "4", "--tau-b", "1"], False),
    (["char", "--d", "29", "--x", "20000", "--tau", "7"], False),
    # a psi table is read by its names, with no residue symbol
    (["char", "--d", "5", "--x", "1000", "--psi-file", "{psi}"], True),
    (["signs", "--fixture", "{fixture}", "--x", "1000", "--psi-file", "{psi}"], True),
])
def test_only_a_nonsquare_tau_builds_roots_or_runs_the_euler_lanes(capsys, monkeypatch, tmp_path, argv, square):
    # a square tau is the trivial character, and no output takes a residue symbol
    def refuse(*args):
        raise _EulerPowerRun(args[:1])

    # a Q(sqrt5) series and a psi table naming a row and a prime past --x
    save_fixture(synth_eigen_series(make_field(5), 1000, 2, 1), tmp_path / "fx.json")
    rows = [{**_PSI_ROW, "value": -1}, {**_PSI_ROW, "prime_norm": 1009, "rational_prime": 1009, "root_label": 1}]
    psi = _write_json(tmp_path / "psi.json", rows)
    # the Euler power and the inverses, where values_upto calls them
    for name in ("_pow_quad_lanes", "_pow_lanes"):
        monkeypatch.setattr(characters, name, refuse)
    argv = [a.format(cache=tmp_path, psi=psi, fixture=tmp_path / "fx.json") for a in argv]
    if square:
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and err == ""
    else:
        with pytest.raises(_EulerPowerRun):
            main(argv)


def test_signs_factors_tau_once(capsys, monkeypatch, tmp_path):
    # a prime norm near 10^12: each factorization is a trial division to 10^6
    factor, calls = field_arith.factor_principal_ideal, []

    def counting(*args):
        calls.append(args)
        return factor(*args)

    for module in vars(hilbert_signs).values():
        if getattr(module, "factor_principal_ideal", None) is factor:
            monkeypatch.setattr(module, "factor_principal_ideal", counting)
    argv = ["signs", "--curve", "11a", "--x", "100", "--cache-dir", str(tmp_path)]
    assert run(capsys, *argv, "--tau", "999999999989")[0] == 0
    assert len(calls) == 1


def test_a_tau_whose_split_prime_lies_past_the_table_factors_and_runs(capsys):
    # N(1999979/2 + sqrt(5)/2) = 999,979,000,109 is a prime past the prime table's reach
    K, tau, p = make_field(5), (Fraction(1999979, 2), Fraction(1, 2)), 999_979_000_109
    assert field_arith._is_prime(p) and p > field_arith.TABLE_MAX_X
    (P,) = factor_by_roots(K, tau).support()
    assert P[1] == p and field_arith.factor_principal_ideal(K, tau) == ((P, 1),)
    assert P in IdealCharacter.from_tau(K, tau).bad_set
    argv = ["simulate", "--d", "5", "--x", "1000", "--seed", "1", "--tau", "1999979/2", "--tau-b", "1/2"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == ""


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


_ROW = {"norm": 3, "rational_prime": 3, "root_label": 0, "c_num": 0, "c_den": 1}
_PSI_ROW = {"prime_norm": 9, "rational_prime": 3, "root_label": 0, "value": 1}
# above 2^64, and strong-probable-prime to each of the first twelve prime bases
_COMPOSITE = 399165290221 * 798330580441


def _fixture(tmp_path, entry=(), more=(), **fields):
    rows = [{**_ROW, **dict(entry)}, *more]
    doc = {"format": "eigen-series/1", "d": 1, "weight": [2], "label": "x", "entries": rows}
    doc.update(fields)
    return ["signs", "--fixture", _write_json(tmp_path / "fx.json", doc), "--x", "3"]


def _fixture_over_prime(tmp_path, p):
    # keeps the base entry at 3, so that --x 3 can fail only on the entry over p
    return _fixture(tmp_path, more=[{**_ROW, "norm": p, "rational_prime": p}])


def _fixture_label_4_at_x_5(tmp_path):
    argv = _fixture(tmp_path, more=[{**_ROW, "rational_prime": 5, "root_label": 4}])
    return [*argv[:-1], "5"]


def _psi(tmp_path, more=(), **fields):
    doc = [{**_PSI_ROW, **fields}, *more]
    return ["char", "--d", "5", "--x", "10", "--psi-file", _write_json(tmp_path / "psi.json", doc)]


def _psi_over_prime(tmp_path, p):
    return _psi(tmp_path, prime_norm=p, rational_prime=p)


def _curve_cache_dir_file(tmp_path):
    (tmp_path / "F").write_text("")
    return ["signs", "--curve", "11a", "--x", "100", "--cache-dir", str(tmp_path / "F")]


def _stats_37a(*extra):
    return ["stats", "--curve", "37a", "--x", "2000", *extra]


def _simulate_threshold(value):
    return ["simulate", "--d", "5", "--x", "100", "--seed", "0", "--threshold-coefficient", value]


def _series_check_count(value):
    return ["series-check", "--d", "5", "--x", "100", "--count", value]


INPUT_ERRORS = {
    "fixture-prime-4": lambda t: _fixture_over_prime(t, 4),
    "fixture-prime-9": lambda t: _fixture_over_prime(t, 9),
    "psi-prime-4": lambda t: _psi_over_prime(t, 4),
    "psi-prime-9": lambda t: _psi_over_prime(t, 9),
    "fixture-missing": lambda t: ["signs", "--fixture", str(t / "absent.json"), "--x", "10"],
    "out-missing-dir": lambda t: ["primes", "--x", "30", "--out", str(t / "no" / "p.csv")],
    "hist-out-missing-dir": lambda t: _stats_37a("--hist-out", str(t / "no" / "h.csv")),
    "svg-missing-dir": lambda t: _stats_37a("--svg", str(t / "no" / "h.svg")),
    "fixture-weight-str": lambda t: _fixture(t, weight=["x"]),
    "fixture-level-str": lambda t: _fixture(t, level_support=["x"]),
    "fixture-level-4": lambda t: _fixture(t, level_support=[4]),
    "fixture-c-num-float": lambda t: _fixture(t, {"c_num": 1.9, "c_den": 3}),
    "fixture-c-num-bool": lambda t: _fixture(t, {"c_num": True, "c_den": 3}),
    "psi-value-float": lambda t: _psi(t, value=1.5),
    "curve-cache-dir-file": _curve_cache_dir_file,
    "fixture-d-huge": lambda t: _fixture(t, d=10**16 + 1),
    "char-tau-zero-den": lambda t: ["char", "--d", "5", "--x", "10", "--tau", "1/0"],
    "char-tau-str": lambda t: ["char", "--d", "5", "--x", "10", "--tau", "abc"],
    "char-tau-b-str": lambda t: ["char", "--d", "5", "--x", "10", "--tau-b", "x"],
    "simulate-seed-negative": lambda t: ["simulate", "--d", "5", "--x", "100", "--seed", "-1"],
    "simulate-seed-2-128": lambda t: ["simulate", "--d", "5", "--x", "100", "--seed", str(2**128)],
    "stats-threshold-nan": lambda t: _stats_37a("--threshold-coefficient", "nan"),
    "stats-threshold-negative": lambda t: _stats_37a("--threshold-coefficient", "-1"),
    "stats-threshold-inf": lambda t: _stats_37a("--threshold-coefficient", "inf"),
    "simulate-threshold-nan": lambda t: _simulate_threshold("nan"),
    "simulate-threshold-negative": lambda t: _simulate_threshold("-1"),
    "simulate-threshold-inf": lambda t: _simulate_threshold("inf"),
    "primes-x-1e14": lambda t: ["primes", "--x", str(10**14)],
    "signs-x-negative": lambda t: ["signs", "--curve", "37a", "--x", "-5", "--cache-dir", str(t)],
    "char-tau-huge-norm": lambda t: ["char", "--d", "1", "--x", "10", "--tau", str(10**18 + 3)],
    "char-tau-not-totally-positive": lambda t: ["char", "--d", "5", "--x", "10", "--tau", "1/2", "--tau-b", "1/2"],
    "char-tau-not-integral": lambda t: ["char", "--d", "2", "--x", "10", "--tau", "1/2", "--tau-b", "1/2"],
    "fixture-prime-composite-2-64": lambda t: _fixture_over_prime(t, _COMPOSITE),
    "fixture-level-composite-2-64": lambda t: _fixture(t, level_support=[_COMPOSITE]),
    "psi-prime-composite-2-64": lambda t: _psi_over_prime(t, _COMPOSITE),
    "fixture-prime-twice": lambda t: _fixture(t, more=[{**_ROW, "c_num": 1, "c_den": 3}]),
    "fixture-hasse-past-x": lambda t: _fixture(t, more=[{**_ROW, "norm": 5, "rational_prime": 5, "c_num": 1}]),
    "psi-prime-twice": lambda t: _psi(t, more=[{**_PSI_ROW, "value": -1}]),
    # 2*norm + label is the key of the row (5, 5, 0), but no prime has this name
    "fixture-label-4-key-of-5": _fixture_label_4_at_x_5,
    "psi-label-2-key-of-5": lambda t: _psi(t, prime_norm=4, rational_prime=5, root_label=2),
    "series-check-count-negative": lambda t: _series_check_count("-5"),
    "series-check-count-zero": lambda t: _series_check_count("0"),
    "series-check-count-past-cap": lambda t: _series_check_count(str(10**3 + 1)),
    # random.Random seeds from abs(seed): -7 would print what 7 prints
    "series-check-seed-negative": lambda t: ["series-check", "--d", "5", "--x", "10", "--seed", "-7"],
    "series-check-x-past-cap": lambda t: ["series-check", "--d", "5", "--x", str(10**7 + 1)],
    # no good prime of norm <= x: over Q only (2), always bad; Q(sqrt5) has no prime below 4
    "stats-no-good-prime": lambda t: ["stats", "--curve", "37a", "--x", "2", "--cache-dir", str(t)],
    "simulate-no-good-prime": lambda t: ["simulate", "--d", "5", "--x", "3", "--seed", "0"],
}


def test_input_error_base_documents_are_valid(capsys, tmp_path):
    # each document case above differs from one of these in a single field
    for argv in (_fixture(tmp_path), _psi(tmp_path)):
        code, _, err = run(capsys, *argv)
        assert code == 0 and err == ""


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_input_error_exits_2_with_one_line(capsys, tmp_path, case):
    code, _, err = run(capsys, *INPUT_ERRORS[case](tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "case,message",
    [
        ("fixture-label-4-key-of-5", "error: entry 1: no prime above 5 with root label 4 in Q\n"),
        ("psi-label-2-key-of-5", "error: psi entry 0: no prime above 5 with root label 2 in Q(sqrt(5))\n"),
    ],
)
def test_a_name_with_another_rows_key_is_refused_by_its_label(capsys, tmp_path, case, message):
    assert run(capsys, *INPUT_ERRORS[case](tmp_path)) == (2, "", message)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("norm", 2**63, "no prime of norm 9223372036854775808, label 0 above 3 in Q"),
        ("rational_prime", 2**64 + 13, "rational prime 18446744073709551629 is not below 2^64"),
        ("root_label", 2**63, "no prime above 3 with root label 9223372036854775808 in Q"),
    ],
)
def test_a_name_past_int64_is_refused_with_its_entry(capsys, tmp_path, field, value, message):
    # the other name columns fit int64; this one is held in Python ints
    argv = _fixture(tmp_path, more=[{**_ROW, field: value}])
    assert run(capsys, *argv) == (2, "", f"error: entry 1: {message}\n")


# 2^64 - 95 is a prime that splits in Q(sqrt(5)): a name column that holds it and small
# nonnegative values is one that np.asarray makes uint64
_SPLIT_PRIME_PAST_INT64 = 2**64 - 95


@pytest.mark.parametrize("command", ["signs", "stats"])
def test_a_level_prime_past_int64_leaves_a_fixture_run_as_it_was(capsys, tmp_path, command):
    # the bad set {(2), (q)} over Q, each of whose name columns holds q
    argv = _fixture(tmp_path, level_support=[_SPLIT_PRIME_PAST_INT64])
    got = run(capsys, command, *argv[1:])
    assert got == run(capsys, command, *_fixture(tmp_path)[1:]) and got[2] == ""


def test_a_psi_prime_past_int64_leaves_char_as_it_was(capsys, tmp_path):
    argv = _psi(tmp_path, prime_norm=_SPLIT_PRIME_PAST_INT64, rational_prime=_SPLIT_PRIME_PAST_INT64)
    got = run(capsys, *argv)
    assert got == run(capsys, *argv[:-2]) and got[0] == 0 and got[2] == ""


@pytest.mark.parametrize(
    "case,message",
    [
        ("char-tau-not-totally-positive", "error: 1/2+1/2*sqrt(5) is not totally positive\n"),
        ("char-tau-not-integral", "error: 1/2+1/2*sqrt(2) is not an algebraic integer of Q(sqrt(2))\n"),
    ],
)
def test_a_refused_tau_is_named_by_its_text(capsys, tmp_path, case, message):
    assert run(capsys, *INPUT_ERRORS[case](tmp_path)) == (2, "", message)


# ----------------------------------------------------------------------
# the package holds no code that only the tests use
# ----------------------------------------------------------------------


def _names(node):
    """The ids of the Name nodes and the attrs of the Attribute nodes under node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


_TREES = {p.name: ast.parse(p.read_text()) for p in sorted(Path(cli.__file__).parent.glob("*.py"))}


def test_every_module_level_definition_is_used_in_the_package():
    # an import or an __all__ string is not a use: only a Name or an Attribute is
    statements = [(stmt, _names(stmt)) for tree in _TREES.values() for stmt in tree.body]
    unused = [
        f"{module}:{node.name}"
        for module, tree in _TREES.items()
        if module != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for stmt, names in statements if stmt is not node)
    ]
    assert unused == []


def test_every_method_is_named_in_the_package_or_the_harness():
    # the bench harness wraps and reads package methods from outside, so it is a caller too
    harness = Path(__file__).parent.parent / "perfbench"
    trees = [*_TREES.values(), *(ast.parse(p.read_text()) for p in harness.glob("*.py"))]
    attrs = {n.attr for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unused = [
        f"{module}:{cls.name}.{fn.name}"
        for module, tree in _TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in attrs
    ]
    assert unused == []


def test_every_import_is_used_in_its_module():
    unused = []
    for module, tree in _TREES.items():
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
                unused += [f"{module}:{name}" for name in bound if name not in names]
    assert unused == []


def test_every_input_error_is_a_hilbert_signs_error_and_every_other_raise_a_builtin():
    # a HilbertSignsError is an input error (exit 2, one line); any other exception is a bug
    builtin = {n for n, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}
    allowed = builtin | {"HilbertSignsError"}
    # a second exception class would derive from a builtin exception or from HilbertSignsError
    classes = [n for tree in _TREES.values() for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    assert {c.name for c in classes if set().union(*map(_names, c.bases)) & allowed} == {"HilbertSignsError"}

    def named(node):  # the class that `raise E` or `raise E(...)` names
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)

    raised = {named(n) for tree in _TREES.values() for n in ast.walk(tree) if isinstance(n, ast.Raise) and n.exc}
    assert raised <= allowed and "HilbertSignsError" in raised


@pytest.mark.parametrize("command", ["signs", "stats"])
def test_a_bad_tau_exits_2_before_the_curve_is_computed(capsys, tmp_path, command):
    cache = tmp_path / "cache"
    argv = [command, "--curve", "37a", "--x", "1000", "--cache-dir", str(cache), "--tau", "1/0"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err == "error: --tau must be a rational such as 3 or 7/2, got '1/0'\n"
    assert not cache.exists() or not any(cache.iterdir())


@pytest.mark.parametrize("command", ["signs", "stats"])
@pytest.mark.parametrize("tau, message", [
    ("0", "0 is not totally positive"),  # curve series are over Q
    ("-3", "-3 is not totally positive"),
    ("5/2", "5/2 is not an algebraic integer of Q"),
    (str(10**12 + 1), f"|N({10**12 + 1})| = {10**12 + 1} exceeds 1000000000000, too large to factor"),
])
def test_a_tau_that_parses_but_cannot_be_factored_exits_2_before_the_curve_is_computed(
    capsys, tmp_path, command, tau, message
):
    cache = tmp_path / "cache"
    argv = [command, "--curve", "37a", "--x", "1000", "--cache-dir", str(cache), f"--tau={tau}"]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not cache.exists() or not any(cache.iterdir())


@pytest.mark.parametrize("command, flags, message", [
    ("signs", ["--d", "5"], "series is over d=1, but --d 5 was given"),
    ("signs", ["--psi-file", "{missing}"], "cannot read psi table {missing}: [Errno 2] No such file or directory: '{missing}'"),
    ("stats", ["--psi-file", "{missing}"], "cannot read psi table {missing}: [Errno 2] No such file or directory: '{missing}'"),
], ids=["signs-d", "signs-psi-file", "stats-psi-file"])
def test_a_bad_d_or_psi_file_exits_2_before_the_curve_is_computed(
    capsys, monkeypatch, tmp_path, command, flags, message
):
    def no_series(*args):
        raise AssertionError("the curve series was read or computed before --d and --psi-file")

    monkeypatch.setattr(eigen_io, "cached_curve_series", no_series)
    cache, missing = tmp_path / "cache", tmp_path / "missing.json"
    flags = [flag.format(missing=missing) for flag in flags]
    argv = [command, "--curve", "37a", "--x", "100000", "--cache-dir", str(cache), *flags]
    assert run(capsys, *argv) == (2, "", f"error: {message.format(missing=missing)}\n")
    assert not cache.exists() or not any(cache.iterdir())


def test_a_cache_path_that_cannot_be_examined_exits_2(capsys, monkeypatch, tmp_path):
    # as below a directory without search permission: stat fails with EACCES,
    # which Path.exists raises (it answers False only for a missing path)
    stat = Path.stat

    def refused(self, **kwargs):
        if self.name.startswith("curve-"):
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return stat(self, **kwargs)

    monkeypatch.setattr(Path, "stat", refused)
    code, out, err = run(capsys, "signs", "--curve", "11a", "--x", "100", "--cache-dir", str(tmp_path))
    path = cache_path("curve-11a-X100-v1", tmp_path)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read curve cache {path}: [Errno 13] Permission denied: '{path}'\n"
    assert list(tmp_path.iterdir()) == []


def test_a_fixture_run_checks_tau_in_its_own_field_after_reading_it(capsys, tmp_path):
    # 1 + sqrt(5) has norm -4 in the fixture's Q(sqrt(5)); over Q it would fold to 2
    doc = tmp_path / "d5.json"
    save_fixture(synth_eigen_series(make_field(5), 100, 2, 0), doc)
    argv = ["signs", "--fixture", str(doc), "--x", "100", "--tau", "1", "--tau-b", "1"]
    assert run(capsys, *argv) == (2, "", "error: 1+1*sqrt(5) is not totally positive\n")
    # the document is read first, so its own error is the one reported
    code, _, err = run(capsys, "signs", "--fixture", str(tmp_path / "absent.json"), "--x", "100", "--tau=0")
    assert code == 2 and "totally positive" not in err


@pytest.mark.parametrize("flags, message", [
    (["--k0", "3"], "weights must be even integers >= 2, got (3,)"),
    (["--tau", "1/0"], "--tau must be a rational such as 3 or 7/2, got '1/0'"),
    (["--tau-b", "x"], "--tau-b must be a rational such as 3 or 7/2, got 'x'"),
    (["--tau=-1"], "-1 is not totally positive"),
    (["--tau", "4", "--tau-b", "2"], "4+2*sqrt(5) is not totally positive"),
    (["--tau", "1/2"], "1/2 is not an algebraic integer of Q(sqrt(5))"),
    (["--tau", str(10**6 + 1)], f"|N({10**6 + 1})| = {(10**6 + 1) ** 2} exceeds 1000000000000, too large to factor"),
])
def test_simulate_checks_its_flags_before_building_a_prime_table(capsys, monkeypatch, flags, message):
    def no_table(K, x):
        raise AssertionError("simulate built a prime table before checking its flags")

    for module in vars(hilbert_signs).values():
        if getattr(module, "_prime_table", None) is _prime_table:
            monkeypatch.setattr(module, "_prime_table", no_table)
    code, out, err = run(capsys, "simulate", "--d", "5", "--x", "1000", "--seed", "0", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_char_parses_tau_before_reading_the_psi_file(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    code, _, err = run(capsys, "char", "--d", "5", "--x", "10", "--tau", "1/0", "--psi-file", missing)
    assert code == 2 and err == "error: --tau must be a rational such as 3 or 7/2, got '1/0'\n"
