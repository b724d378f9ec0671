"""Byte-exact stdout of representative commands, pinned by sha256.

A refactor must leave these bytes unchanged; a deliberate output change
updates the digest here and says why.
"""

import hashlib

import pytest

from hilbert_signs.cli import main

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
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_is_byte_identical(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
