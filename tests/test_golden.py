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
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_is_byte_identical(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
