"""End-to-end runs of every subcommand through main(), no subprocesses."""

import ast
import json
from pathlib import Path

import pytest
from oracles import save_fixture, value_at

import hilbert_signs
from hilbert_signs import (
    FormalSeries,
    IdealCharacter,
    SignSurvey,
    enumerate_prime_ideals,
    get_curve,
    make_field,
    series_from_curve,
    series_to_obj,
)
from hilbert_signs import cli
from hilbert_signs.cli import SIMULATE_CSV_HEADER, TALLY_CSV_HEADER, build_parser, main
from hilbert_signs.eigen_io import cache_path
from hilbert_signs.field_arith import _prime_table


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
    t = SignSurvey(series_from_curve(get_curve("37a"), 2000), 1, x=2000).tally()
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
    t = SignSurvey(series_from_curve(get_curve("37a"), 1000), 2, x=1000).tally()
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
    code, out, _ = run(
        capsys, "series-check", "--d", "5", "--x", "300", "--count", "2", "--seed", "1"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and len(obj["checks"]) == 2
    assert all(c["roundtrip"] and c["residuals_zero"] for c in obj["checks"])


def test_series_check_fails_when_a_moebius_term_is_dropped(capsys, monkeypatch):
    # negative control: the round trip must notice one missing term
    real = cli.character_moebius_series

    def dropped(chi, X):
        s = real(chi, X)
        return FormalSeries(s.field, s.cutoff, {m: v for _, m, v in s.sorted_items()[:-1]})

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


def test_signs_factors_tau_once(capsys, monkeypatch, tmp_path):
    # a prime norm near 10^12: each factorization is a trial division to 10^6
    factor, calls = hilbert_signs.factor_principal_ideal, []

    def counting(*args):
        calls.append(args)
        return factor(*args)

    for module in vars(hilbert_signs).values():
        if getattr(module, "factor_principal_ideal", None) is factor:
            monkeypatch.setattr(module, "factor_principal_ideal", counting)
    argv = ["signs", "--curve", "11a", "--x", "100", "--cache-dir", str(tmp_path)]
    assert run(capsys, *argv, "--tau", "999999999989")[0] == 0
    assert len(calls) == 1


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
    "fixture-prime-composite-2-64": lambda t: _fixture_over_prime(t, _COMPOSITE),
    "fixture-level-composite-2-64": lambda t: _fixture(t, level_support=[_COMPOSITE]),
    "psi-prime-composite-2-64": lambda t: _psi_over_prime(t, _COMPOSITE),
    "fixture-prime-twice": lambda t: _fixture(t, more=[{**_ROW, "c_num": 1, "c_den": 3}]),
    "fixture-hasse-past-x": lambda t: _fixture(t, more=[{**_ROW, "norm": 5, "rational_prime": 5, "c_num": 1}]),
    "psi-prime-twice": lambda t: _psi(t, more=[{**_PSI_ROW, "value": -1}]),
    "series-check-count-negative": lambda t: _series_check_count("-5"),
    "series-check-count-zero": lambda t: _series_check_count("0"),
    "series-check-x-past-cap": lambda t: ["series-check", "--d", "5", "--x", str(10**6 + 1)],
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


def test_every_module_level_definition_is_used_in_the_package():
    # an import or an __all__ string is not a use: only a Name or an Attribute is
    trees = {p.name: ast.parse(p.read_text()) for p in Path(cli.__file__).parent.glob("*.py")}
    statements = [(stmt, _names(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = [
        f"{module}:{node.name}"
        for module, tree in sorted(trees.items())
        if module != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for stmt, names in statements if stmt is not node)
    ]
    assert unused == []
