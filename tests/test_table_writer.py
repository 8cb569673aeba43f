"""The vectorized row writer against "%.17g" itself."""

import hashlib
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wadc import cli
from wadc.cli import FMT, TableWriter, main

CONFIG = str(pathlib.Path(__file__).resolve().parents[1]
             / "configs/benchmark.cfg")


def reference(X, sep=","):
    """The bytes that formatting each value with FMT in Python gives."""
    return "".join(sep.join(FMT % v for v in row) + "\n"
                   for row in np.asarray(X).tolist()).encode()


def assert_formats(X, sep=","):
    """X formats as FMT does; returns how many values FMT itself formatted."""
    X = np.asarray(X, dtype=float)
    text, fmt_values = cli._format_block(X, sep)
    assert text == reference(X, sep)
    assert fmt_values == cli._candidates(X.ravel())[2].sum()
    return fmt_values


def exact_digits(v):
    """(N, E) of the finite nonzero float v in exact arithmetic: E =
    floor(log10 |v|) and N = |v| 10^(16 - E) rounded half to even."""
    q = abs(Fraction(v))
    E = int(np.floor(np.log10(abs(v))))
    while Fraction(10) ** E > q:
        E -= 1
    while Fraction(10) ** (E + 1) <= q:
        E += 1
    return round(q * Fraction(10) ** (16 - E)), E


def is_tie(v):
    """Whether v's 17-digit rounding is an exact tie."""
    E = exact_digits(v)[1]
    return (abs(Fraction(v)) * Fraction(10) ** (16 - E)).denominator == 2


def with_neighbours(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):   # the largest double's is inf
        return np.concatenate([x, np.nextafter(x, np.inf),
                               np.nextafter(x, -np.inf)])


@given(st.integers(1, 6), st.lists(st.floats(), max_size=60),
       st.sampled_from([",", " "]))
@settings(max_examples=300, deadline=None)
def test_matches_fmt_on_any_double(cols, values, sep):
    # st.floats() draws subnormals, +-0, +-inf and nan among the rest
    rows = len(values) // cols
    assert_formats(np.array(values[:rows * cols]).reshape(rows, cols), sep)


def test_near_ties():
    # doubles nearest to 18-digit decimals ending in 5, whose 17-digit
    # rounding is a near tie, and the doubles either side of them
    rng = np.random.default_rng(0)
    digits = rng.integers(10 ** 16, 10 ** 17, 2999)
    exps = rng.integers(-330, 300, 2999)
    signs = rng.choice(["", "-"], 2999)
    x = [float(f"{s}{d}5e{e}") for s, d, e in zip(signs, digits, exps)]
    x.append(0.00099999999999999999)
    assert_formats(with_neighbours(x).reshape(-1, 9))


def test_powers_of_ten_and_range_edges():
    x = [float(f"1e{k}") for k in range(-323, 309)]
    x += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          2.0 ** 53, 2.0 ** 63, 1e16 - 1, 1e17 - 16]
    x = with_neighbours(x)
    assert_formats(np.concatenate([x, -x]).reshape(-1, 6))


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (0, 3), (1, 1)])
def test_block_shapes(shape):
    rng = np.random.default_rng(1)
    X = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, shape)
    assert_formats(X)
    assert_formats(np.zeros(shape))
    assert_formats(-np.zeros(shape), " ")


def test_candidates_match_exact_digits():
    # random bit patterns cover every binade; then subnormals and the
    # extremes.  Every finite nonzero value but the exact decimal ties
    # takes the exact path, with the digits and exponent of exact arithmetic
    rng = np.random.default_rng(2)
    bits = np.concatenate([
        rng.integers(0, 2 ** 64, 12000, dtype=np.uint64),
        rng.integers(1, 2 ** 52, 1000, dtype=np.uint64),         # subnormal
        np.array([1, 2 ** 52 - 1, 2 ** 52, 0x7FEFFFFFFFFFFFFF], np.uint64)])
    x = bits.view(float)
    x = x[np.isfinite(x) & (x != 0)]
    N, E, exact = cli._candidates(x)
    for v, n, e, fmt in zip(x.tolist(), N.tolist(), E.tolist(), exact):
        if fmt:
            assert is_tie(v)
        else:
            assert exact_digits(v) == (n, e)
    assert_formats(x.reshape(1, -1))


def test_exact_decimal_ties_go_to_fmt():
    # doubles whose 18th significant digit is an exact 5: j/8 in [2^49,
    # 1e15) for odd j has 15 integer digits and a fraction .x75 or .x25
    # (x.5 when scaled to 17 digits); %.17g rounds them half to even
    rng = np.random.default_rng(4)
    j = 2 * rng.integers(2 ** 51, 4 * 10 ** 15, 600) + 1
    # and j/4 in [1e15, 2^50), with one digit after the point
    k = 2 * rng.integers(2 * 10 ** 15, 2 ** 51, 600) + 1
    x = np.concatenate([[626281195060352.375], j / 8, -k / 4])
    assert FMT % 626281195060352.375 == "626281195060352.38"
    assert all(is_tie(v) for v in x[::50].tolist())
    assert cli._candidates(x)[2].all()
    assert assert_formats(x[:-1].reshape(-1, 8)) == x.size - 1


@pytest.mark.parametrize("shift", [-1, 1])
def test_exponent_off_by_one_is_formatted_exactly(monkeypatch, shift):
    # where floor(log10 |x|) misses by one, next to a power of ten, N leaves
    # (1e16, 1e17) and the value goes to FMT
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    X = np.array([[5e-324, 1.5, -7e22], [1e-5, 3.3e100, 1.7e308]])
    assert cli._candidates(X.ravel())[2].all()
    assert_formats(X)


def test_powers_of_ten_table():
    # per exponent E: T = 10^(16-E) 2^-P in [1, 2) as hi + lo, hi correctly
    # rounded, and hi split into two halves of at most 26 bits
    t = cli._tables()
    for E, (hi, hh, hl, lo), P in zip(range(cli._E_MIN, cli._E_END),
                                      t.pow10.tolist(), t.P.tolist()):
        T = Fraction(10) ** (16 - E) / Fraction(2) ** P
        assert 1 <= T < 2
        err = abs(Fraction(hi) - T)
        for q in (np.nextafter(hi, 0.0), np.nextafter(hi, 4.0)):
            assert abs(Fraction(q) - T) >= err
        assert abs(Fraction(hi) + Fraction(lo) - T) <= Fraction(1, 2 ** 104)
        assert Fraction(hh) + Fraction(hl) == Fraction(hi)
        for half in (hh, hl):
            assert abs(half.as_integer_ratio()[0]).bit_length() <= 26


def test_fast_path_decides_most_of_benchmark_trace(tmp_path):
    # the benchmark's LQR trace: a silent fall back to formatting every
    # value in Python would fail here
    assert main(["--config", CONFIG, "--out", str(tmp_path), "simulate",
                 "--measure", "lqr", "--delay", "0.1"]) == 0
    X = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1)
    assert X.shape == (126257, 13)
    assert cli._candidates(X.ravel())[2].mean() <= 0.1


def test_streams_blocks(tmp_path, monkeypatch):
    # blocks of 7 values split rows of 3: the file, its digest and its size
    # are those of the whole text
    monkeypatch.setattr(cli, "_BLOCK", 7)
    X = np.random.default_rng(3).standard_normal((50, 3))
    path = tmp_path / "t.csv"
    with TableWriter(path, "a,b,c", ",") as table:
        table.rows(X)
    data = path.read_bytes()
    assert data == b"a,b,c\n" + reference(X)
    assert (table.sha256, table.size) == (hashlib.sha256(data).hexdigest(),
                                          len(data))
