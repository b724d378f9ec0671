"""Byte-exact stdout of representative commands and curve cache files, pinned by sha256.

A refactor must leave these bytes unchanged; a deliberate output change
updates the digest here and says why.
"""

import hashlib
import json

import numpy as np
import pytest
from oracles import save_fixture

from hilbert_signs import formal_series, sign_pipeline
from hilbert_signs.cli import main
from hilbert_signs.curves import get_curve, series_from_curve
from hilbert_signs.eigen_io import serialize_series
from hilbert_signs.field_arith import _prime_table, make_field
from hilbert_signs.sato_tate import synth_eigen_series
from hilbert_signs.sign_pipeline import EigenvalueSeries

GOLDEN = [
    (
        ["simulate", "--d", "5", "--x", "20000", "--seed", "42"],
        "e30b5abe0667c5b4e032c4dbacd356d2e43ff2ec99be2608da4fbe5ebb87ed91",
    ),
    (
        ["simulate", "--d", "5", "--x", "20000", "--seed", "42", "--format", "json"],
        "09ce7571458cc89fd188488e08352c0fdc6950ae3080fd652292bd8e97b9cfb1",
    ),
    (
        ["signs", "--curve", "37a", "--x", "2000"],
        "070467f8877d571663e8240e48d47b633985aa153b0a9750112d24e9032e4376",
    ),
    (
        ["stats", "--curve", "37a", "--x", "2000"],
        "3e49922b55e605e97537c63b78feaa53745618aa56f34df64289a01cdaec1775",
    ),
    (
        ["char", "--d", "5", "--x", "300", "--tau", "4", "--tau-b", "1"],
        "f02b8b596cd41e01bec6a124395934844b408c445ac8836f7b41fe41dcec9aca",
    ),
    (
        ["primes", "--d", "5", "--x", "300"],
        "82f22b57950e096785af0bb7a04b291118565e8caabc1c4b7e351f9ef6eba724",
    ),
    (
        ["primes", "--d", "5", "--x", "300", "--format", "json"],
        "7791042b446fbb0b3009e2e4c594e58ed0a69ec01a26d26e4d77e14aab86bfc8",
    ),
    (  # the header line alone
        ["primes", "--d", "1", "--x", "1"],
        "6e73b706a7fbe862432abc840cb0bd73a6b9ca5d07e3a2dd035c9fb15d5c28ac",
    ),
    (  # "[]"
        ["primes", "--d", "1", "--x", "1", "--format", "json"],
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ),
    (
        ["char", "--d", "5", "--x", "300", "--tau", "4", "--tau-b", "1", "--format", "json"],
        "7e9c533993258767cb4b4b9a30c324a15f59de85b3ae49fb014a9a40c7cde73d",
    ),
    (
        ["signs", "--curve", "37a", "--x", "2000", "--tau", "2", "--format", "json"],
        "cef7c68531b52f49b9305e6d4c74af6805133e28126d2211ff32bedd890b6ec6",
    ),
    (
        ["series-check", "--d", "5", "--x", "300", "--count", "2", "--seed", "1"],
        "80587bda50657270db168653f16e38856ecaa80429d37a7909c85a1f392f5d95",
    ),
    (  # "a_ideal": "(2)^2*(3)"
        ["signs", "--curve", "37a", "--x", "2000", "--tau", "144", "--format", "json"],
        "dee363e4e696f52cd1acd3b1761267bb06a3ca51facd5a418a9e428a7b757334",
    ),
    (  # "a_ideal": "P2i*P11a*P11b"
        ["simulate", "--d", "5", "--x", "2000", "--seed", "1", "--tau", "484", "--format", "json"],
        "efbf0c59b0920a7133686fc4779a19a7ef4ae62f46d7ef7b7f3703572b2e3fac",
    ),
    (  # 2 splits
        ["primes", "--d", "17", "--x", "3000"],
        "7ef52d5177ac81b6c50a9e4995310f65b83b2a3a58197caeb92233cb184d7152",
    ),
    (  # 2 ramifies, disc 8
        ["primes", "--d", "2", "--x", "3000", "--format", "json"],
        "4874336eaed2d4b8c700bdf4a23d1ab5db2ce8ddbe8860f3d3a938919d72ef00",
    ),
    (
        ["char", "--d", "17", "--x", "3000", "--tau", "5", "--tau-b", "1"],
        "6f6f5e6753cb4e1761a649a4ff8b3234999040e9f3c65f3435307692661a8e2a",
    ),
    (
        ["char", "--d", "2", "--x", "3000", "--tau", "3", "--tau-b", "1", "--format", "json"],
        "68d78c4e5b60f753e673299ec9b0523b30c0f0499c53186ab0f6b78331decc96",
    ),
    (
        ["char", "--d", "13", "--x", "3000", "--tau", "4", "--tau-b", "1"],
        "b4d855b347e43e03a792d26f70b4809c13a4e9d9107071ae678d3acde7db9657",
    ),
    # A tau that is not a square past one chunk of rows: 25,983 rows, and row
    # 8192 is the second prime above its p
    (
        ["char", "--d", "5", "--x", "300000", "--tau", "4", "--tau-b", "1"],
        "f5988cfbab4448c6c956beb9fd5829518081435d08c7731049f599a7dcfdaacd",
    ),
    (  # 2 splits
        ["char", "--d", "17", "--x", "300000", "--tau", "5", "--tau-b", "1"],
        "7feb439d7a72a123b4c0b93a767a2ebc488ede261a521491ca893c01b9675da5",
    ),
    (  # every row stands alone
        ["char", "--d", "1", "--x", "300000", "--tau", "3"],
        "f2a06dfed65f5809e76e1057440b78b712aa90b1ab0f56a5348e684e4a6dbe13",
    ),
    (  # "tau": "3/2+1/2*sqrt(5)"
        ["simulate", "--d", "5", "--x", "2000", "--seed", "1", "--tau", "3/2", "--tau-b", "1/2", "--format", "json"],
        "ba3168ab35c5cb2cfcdeaa7714939f6e64ab17f38383075ce15f9edd3647bb34",
    ),
    (  # "tau": "4+-1*sqrt(5)"
        ["simulate", "--d", "5", "--x", "2000", "--seed", "1", "--tau", "4", "--tau-b", "-1", "--format", "json"],
        "ba4cf7b8b90e9fd067c2d3607015afa1d97cec48fdf9496bf04d53313b1c4825",
    ),
    (  # "a_ideal": "P3a"
        ["simulate", "--d", "13", "--x", "2000", "--seed", "1", "--tau", "7/2", "--tau-b", "1/2", "--format", "json"],
        "5b09819ace9b145cea926ffebee9af2d817ba572323f1b529e68ef7fed616e44",
    ),
    (  # over Q the sqrt(1) part folds in: "tau": "4", "a_ideal": "(2)"
        ["signs", "--curve", "11a", "--x", "200", "--tau", "3", "--tau-b", "1", "--format", "json"],
        "e761c3530c315325f0020a3eb23e9065d2da1d3ce0f05cd552a1e8b18abe5702",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_is_byte_identical(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# A psi table over Q(sqrt(5)): both primes above 11 (one divides tau = 4 +
# sqrt(5), of norm 11, so it is bad), label-1 rows, two inert rows (P2i is
# above 2, so bad), a value of +1 and a name past x = 2000.
PSI = [
    {"prime_norm": n, "rational_prime": p, "root_label": label, "value": v}
    for n, p, label, v in [
        (11, 11, 0, -1), (11, 11, 1, -1), (29, 29, 1, -1), (31, 31, 1, -1), (4, 2, 0, -1),
        (49, 7, 0, -1), (1151, 1151, 0, 1), (1151, 1151, 1, -1), (2011, 2011, 0, -1),
    ]
]

# The psi-twisted fixture path at a nonsquare tau: F is written by
# _twisted_fixture, and PSI is the table above.
TWISTED = "--x 2000 --tau 4 --tau-b 1 --psi-file PSI".split()
TWISTED_GOLDEN = [
    (
        ["signs", "--fixture", "F", *TWISTED, "--format", "json"],
        "885c49e94b6d4b0397dbe788662e6bbda2f635efb500deb0e37ca01c69a850d9",
    ),
    (
        ["stats", "--fixture", "F", *TWISTED],
        "009d81a5657235ee2d48c1d2468d0d8d2e2331af79e6389575f88a37907863f0",
    ),
    (
        ["char", "--d", "5", *TWISTED, "--format", "json"],
        "0ff9efcfe990fafa2827ba6b84b6b0489a060f79f904af0fee02c31f4fada9d8",
    ),
]


def _twisted_fixture(path):
    """A synthetic Q(sqrt(5)) series to 2000, with c = 0 at the rows PSI names, as a document.

    At c = 0 the sign of c - chi/N is -chi, so psi shows in the tally.
    """
    K = make_field(5)
    E = synth_eigen_series(K, 2000, 2, 7)
    rows = _prime_table(K, 2000).lookup(*zip(*[(e["prime_norm"], e["rational_prime"], e["root_label"]) for e in PSI]))
    num = E.num.copy()
    num[rows[rows >= 0]] = 0
    save_fixture(EigenvalueSeries(K, E.weight, E.label, E.x, num, E.den), path)


@pytest.mark.parametrize("argv,digest", TWISTED_GOLDEN, ids=[" ".join(a) for a, _ in TWISTED_GOLDEN])
def test_psi_twisted_fixture_stdout_is_byte_identical(capsys, tmp_path, argv, digest):
    files = {"F": tmp_path / "fixture.json", "PSI": tmp_path / "psi.json"}
    _twisted_fixture(files["F"])
    files["PSI"].write_text(json.dumps(PSI))
    code = main([str(files.get(a, a)) for a in argv])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of serialize_series(series_from_curve(E, 20000)): the bytes of the
# curve cache file, so a faster point count must reproduce every a_p.
CURVE_SERIES_GOLDEN = {
    "11a": "3e3a92ec7c28460cdbedbaba9e4294308b830eeb2142df18b96ddb9226d72fe9",
    "37a": "fd5953be46300429ec9e1b39b422fd0fb02405fe0620e1a5bd7d643087c5d5f9",
    "389a": "e29d14f4e61f28cde183f6184e353432a1821554e04ce83711d630aec9a6bfa0",
    "5077a": "2a5ce5083eb784d1b31abd044c972e51a18950536c03421bbb7900be560f66b3",
    "32a": "90e7e32a9dc82df5942e3b113349e9c71641cf7abf738bd5f3acca63684e0b4a",
}


@pytest.mark.parametrize("label", sorted(CURVE_SERIES_GOLDEN))
def test_curve_series_bytes_are_pinned(label):
    doc = "".join(serialize_series(series_from_curve(get_curve(label), 20000)))
    assert hashlib.sha256(doc.encode()).hexdigest() == CURVE_SERIES_GOLDEN[label]


# ----------------------------------------------------------------------
# the exact shadow: every row in Python ints, the same bytes
# ----------------------------------------------------------------------


@pytest.fixture
def python_ints_only(monkeypatch):
    """Make the package's two int64 decisions say no: _int64_rows fits no row, and _lanes gives object."""
    monkeypatch.setattr(sign_pipeline, "_int64_rows", lambda c: (np.zeros(len(c), np.int64), np.zeros(len(c), bool)))
    monkeypatch.setattr(formal_series, "_lanes", lambda bound: object)


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_is_the_same_in_python_ints(python_ints_only, capsys, argv, digest):
    test_stdout_is_byte_identical(capsys, argv, digest)


@pytest.mark.parametrize("argv,digest", TWISTED_GOLDEN, ids=[" ".join(a) for a, _ in TWISTED_GOLDEN])
def test_psi_twisted_fixture_stdout_is_the_same_in_python_ints(python_ints_only, capsys, tmp_path, argv, digest):
    test_psi_twisted_fixture_stdout_is_byte_identical(capsys, tmp_path, argv, digest)


@pytest.mark.parametrize("label", sorted(CURVE_SERIES_GOLDEN))
def test_curve_series_bytes_are_the_same_in_python_ints(python_ints_only, label):
    assert series_from_curve(get_curve(label), 20000).num.dtype == object
    test_curve_series_bytes_are_pinned(label)
