"""Golden sha256 digests of every CLI table and of ``selftest`` at fixed seeds.

The digests were recorded before the table path was rebuilt column-wise, so
they pin each table byte for byte across that and any later refactor. A
change here means a changed table: say why in CHANGES.md.

They were recorded with numpy 2.4.6 and its bundled OpenBLAS 0.3.31
(DYNAMIC_ARCH) on x86-64. The JSON tables print full precision, so a BLAS
kernel that rounds a matmul differently on another CPU can move a digest
without any change to pnbm; re-record at the parent commit to tell the two
apart.
"""

import hashlib

import pytest

from pnbm.cli import main

GOLDEN_STDOUT = {
    ("sweep-qubit", "--count", "101", "--seed", "7", "--format", "csv"):
        "1f38ceec4a335c80fd2d2b5d3b4e416adc6669f209b6fdf5f2f51a247b4cfb75",
    ("sweep-qubit", "--count", "101", "--seed", "7", "--format", "json"):
        "dc656ce080a5a5bba9bf6b5697acb49d91f6d770bab1cc698ee1a135dd02bab0",
    ("sweep-measurement", "--count", "5", "--mc-samples", "2000", "--seed", "7",
     "--format", "csv"):
        "fd0628da5bca320df09b3723f2022199865dfbb6b9b37346e878fe9de02280b7",
    ("sweep-measurement", "--count", "5", "--mc-samples", "2000", "--seed", "7",
     "--format", "json"):
        "8780230b7b1451f230afaa19bb1f003cb035eddfc177cd22fd84708f11888dee",
    ("sweep-cv", "--variable", "kappa", "--start", "0.5", "--stop", "2", "--count", "50",
     "--format", "csv"):
        "f99c2507e6addeccf73c0941f2baf65fff7545fb2d6c7f34a6e26b98abfe4303",
    ("sweep-cv", "--variable", "kappa", "--start", "0.5", "--stop", "2", "--count", "50",
     "--format", "json"):
        "384aa9f6daed595be8d6d7ad3aef8fc3ee8d26a8d41aaede9eb56deb6452b505",
    ("sweep-cv", "--format", "csv"):
        "0f4a5415b78d567626e18efd3ba34e68364f2ac351876a1907e17acf62267e3b",
    ("sweep-cv", "--format", "json"):
        "383046510e6df19acbeaed6a82c03de57aea6427ba1aefb4e80e8b0a3d3f9478",
    ("teleport", "--alpha", "0.3", "--seed", "7", "--format", "csv"):
        "a1587a43844da0299ef35894ef91f238617709e5b6af3a40e91bbb9bfee66563",
    ("teleport", "--alpha", "0.3", "--seed", "7", "--format", "json"):
        "eac25a1e1ae5d655bacec9b9f31d0324efd5726b762989ff3e6cc8bc9db8fadd",
}

# selftest prints one PASS/FAIL line per criterion and no timings.
GOLDEN_SELFTEST = {
    ("selftest",):
        "f8cc6960788e80ea7f14afbe33cd4b9e6f6576433908619c48500340de13c175",
    ("selftest", "--seed", "11", "--mc-samples", "4000"):
        "09375bd5d7b19365f40506c2843275661f0e04af442b59cb396ca66a1883231a",
}

GOLDEN_BOUNDS = {
    ("csv", "pct"): "811decafc822f2367435a9e01d33b5dfcc8ce9f12b1c7bc68bf16bf1977ead87",
    ("csv", "pqt"): "5fc3171a15fb6430c96867599a17e0a4775e10f71166fa807ff5d1683d06c257",
    ("json", "pct"): "b22add432e783c4137b17374a9de065c17acc8965e021415bf64504fc97ef9d9",
    ("json", "pqt"): "03f9080bd0bd7e3cd7265c2da3e02c63afb7ea559ccea361032aad46d6f32a01",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_table_stdout_digest(capsys, argv):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out.encode()) == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize("argv", list(GOLDEN_SELFTEST), ids=" ".join)
def test_selftest_stdout_digest(capsys, argv):
    assert main(list(argv)) == 0
    assert _sha256(capsys.readouterr().out.encode()) == GOLDEN_SELFTEST[argv]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_file_digests(tmp_path, capsys, fmt):
    prefix = tmp_path / "bounds"
    assert main(["bounds", "--points", "21", "--format", fmt, "--out", str(prefix)]) == 0
    capsys.readouterr()
    for name in ("pct", "pqt"):
        data = (tmp_path / f"bounds_{name}.{fmt}").read_bytes()
        assert _sha256(data) == GOLDEN_BOUNDS[fmt, name]
