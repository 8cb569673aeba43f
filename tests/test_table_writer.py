"""The vectorized row writer against "%.17g" itself."""

import hashlib
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wadc import cli
from wadc.cli import FMT, main, write_table

CONFIG = str(pathlib.Path(__file__).resolve().parents[1]
             / "configs/benchmark.cfg")


def reference(X, sep=","):
    """The bytes that formatting each value with FMT in Python gives."""
    return "".join(sep.join(FMT % v for v in row) + "\n"
                   for row in np.asarray(X).tolist()).encode()


def assert_formats(X, sep=","):
    X = np.asarray(X, dtype=float)
    assert cli._format_block(X, sep) == reference(X, sep)


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


def test_margin_of_one_half_formats_every_value_exactly(monkeypatch):
    monkeypatch.setattr(cli, "_MARGIN", 0.5)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-30, 30, (40, 5))
    assert cli._candidates(X.ravel())[2].all()
    assert_formats(X)


@pytest.mark.parametrize("shift", [-1, 1])
def test_exponent_off_by_one_is_formatted_exactly(monkeypatch, shift):
    # where floor(log10 |x|) misses by one, next to a power of ten, N leaves
    # (1e16, 1e17) and the value goes to FMT
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    X = np.array([[5e-324, 1.5, -7e22], [1e-5, 3.3e100, 1.7e308]])
    assert cli._candidates(X.ravel())[2].all()
    assert_formats(X)


def test_powers_of_ten_table_is_correctly_rounded():
    for k, p in zip(range(16 - cli._E_MIN, 16 - cli._E_END, -1), cli._POW10):
        exact = Fraction(10) ** k
        err = abs(Fraction(*p.as_integer_ratio()) - exact)
        for q in (np.nextafter(p, np.longdouble(0)),
                  np.nextafter(p, np.longdouble(np.inf))):
            assert abs(Fraction(*q.as_integer_ratio()) - exact) >= err


def test_streams_blocks(tmp_path, monkeypatch):
    # blocks of 7 values split rows of 3: the file, its digest and its size
    # are those of the whole text
    monkeypatch.setattr(cli, "_BLOCK", 7)
    X = np.random.default_rng(3).standard_normal((50, 3))
    path = tmp_path / "t.csv"
    digest, size = write_table(path, "a,b,c", X, ",")
    data = path.read_bytes()
    assert data == b"a,b,c\n" + reference(X)
    assert (digest, size) == (hashlib.sha256(data).hexdigest(), len(data))


def test_fast_path_decides_most_of_benchmark_trace(tmp_path):
    # the benchmark's LQR trace: a silent fall back to formatting every
    # value in Python would fail here
    assert main(["--config", CONFIG, "--out", str(tmp_path), "simulate",
                 "--measure", "lqr", "--delay", "0.1"]) == 0
    X = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1)
    assert X.shape == (126257, 13)
    assert cli._candidates(X.ravel())[2].mean() <= 0.1
