"""The stored tables: the Gauss-Legendre rules of spectrum.integrated_rates
and the powers of ten of the CSV/JSON digit kernel, bit for bit what the
computations they replace give."""

import math
import os

import numpy as np
import pytest

from pairflux import cli, spectrum


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_gauss_rules(rules):
    # the 128 nodes below 0 of the 256-node rule (the band panel, folded at 1/2)
    # and the whole 16-node rule (the window panels, all below 1/2)
    band, window = rules
    assert_same_bits(band, np.array([a[:128] for a in np.polynomial.legendre.leggauss(256)]))
    assert_same_bits(window, np.array(np.polynomial.legendre.leggauss(16)))


def reference_digit_tables():
    """The rows of _digit_tables as the exact big-integer loop computes them:
    hi = 10**(16 - k) rounded, its 26-bit halves, lo = the rest rounded, and
    the text before and after the digits and the layout of each exponent k."""
    powers, heads, tails, layout = [], [], [], []
    for k in range(cli._K_MIN, cli._K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        hi = num / den  # int / int rounds correctly
        a, b = hi.as_integer_ratio()
        mantissa, exponent = math.frexp(hi)
        upper = mantissa * cli._SPLIT
        upper = math.ldexp(upper - (upper - mantissa), exponent)
        powers.append((hi, upper, hi - upper, (num * b - a * den) / (den * b)))
        fixed = -4 <= k < 17
        heads.append("0." + "0" * (-k - 1) if k < 0 and fixed else "")
        tails.append("" if fixed else f"e{k:+03d}")
        layout.append((16, 0) if k < 0 and fixed else (k, k) if fixed else (0, 0))
    return (np.array(powers).T, np.array(heads, "S5"), np.array(tails, "S5"),
            np.array(layout, np.uint8).T)


def assert_digit_tables(tables):
    quads, *rows = tables
    assert len(quads) == 10000 and quads.view(np.uint8)[4 * 1234:4 * 1235].tobytes() == b"1234"
    for got, want in zip(rows, reference_digit_tables()):
        assert_same_bits(got, want)


def test_gauss_rules_equal_leggauss():
    assert_gauss_rules(spectrum._gauss_rules())


def test_digit_tables_equal_the_exact_loop():
    tables = cli._digit_tables()
    assert tables[1].shape == (4, 592)  # hi, upper, lower, lo of each k in [-291, 300]
    assert_digit_tables(tables)


@pytest.mark.parametrize("module, name, build, check, index", [
    (spectrum, "gauss_legendre.f8", spectrum._gauss_rules, assert_gauss_rules, i)
    for i in (0, 127, 128, 255, 256, 271, 272, 287)  # first and last of each row
] + [
    (cli, "powers_of_ten.f8", cli._digit_tables, assert_digit_tables, i)
    for i in (0, 300, 591, 592, 883, 1183)  # hi at k = -291, 9, 300; lo at -291, 0, 300
])
@pytest.mark.parametrize("direction", [-np.inf, np.inf], ids=["down", "up"])
def test_one_ulp_off_fails(module, name, build, check, index, direction, monkeypatch):
    # the checks above compare bits: the table read with one entry one ulp off fails them
    with open(os.path.join(os.path.dirname(module.__file__), name), "rb") as fh:
        stored = np.frombuffer(fh.read(), "<f8").copy()
    stored[index] = np.nextafter(stored[index], direction)
    monkeypatch.setattr(np, "fromfile", lambda *args: stored.copy())
    with pytest.raises(AssertionError):
        check(build.__wrapped__())  # uncached, it reads the altered table


@pytest.fixture
def fresh_tables():
    """Both cached table builds read their files again, inside the test and after it."""
    for build in (spectrum._gauss_rules, cli._digit_tables):
        build.cache_clear()
    yield
    for build in (spectrum._gauss_rules, cli._digit_tables):
        build.cache_clear()


@pytest.mark.parametrize("name", ["gauss_legendre.f8", "powers_of_ten.f8"])
@pytest.mark.parametrize("damage", ["missing", "truncated"])
def test_broken_table_is_a_broken_installation(name, damage, tmp_path, monkeypatch, capsys,
                                               fresh_tables):
    # an installation whose table is gone or cut short: one line naming the file, exit 6,
    # and no output file; scan --integrate reads both tables
    for table in ("gauss_legendre.f8", "powers_of_ten.f8"):
        with open(os.path.join(spectrum._TABLE_DIR, table), "rb") as fh:
            data = fh.read()
        if table == name and damage == "truncated":
            (tmp_path / table).write_bytes(data[:-12])
        elif table != name:
            (tmp_path / table).write_bytes(data)
    monkeypatch.setattr(spectrum, "_TABLE_DIR", str(tmp_path))
    out = tmp_path / "curve.csv"
    assert cli.main(["scan", "--integrate", "--v-points", "2", "--out", str(out)]) == cli.EXIT_INSTALL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("pairflux: broken installation")
    assert str(tmp_path / name) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--v", "0.1"],
    ["simulate", "--v", "0", "--kappa0", "8", "--t0", str(100 * math.pi)],
], ids=["spectrum", "simulate"])
def test_broken_table_leaves_stdout_empty(argv, tmp_path, monkeypatch, capsys, fresh_tables):
    # without --out the payload goes to stdout: the digit tables are read before
    # its first line, so a missing powers_of_ten.f8 prints only the exit-6 line
    # (neither command reads the Gauss table)
    monkeypatch.setattr(spectrum, "_TABLE_DIR", str(tmp_path))
    assert cli.main(argv) == cli.EXIT_INSTALL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("pairflux: broken installation") and "powers_of_ten.f8" in err
