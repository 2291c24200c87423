"""The block CSV writer against the '%.15g' row template it replaces, and
the JSON number formatter against json.dumps."""

import contextlib
import hashlib
import io
import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosonic_engine import cli, csvformat
from bosonic_engine.csvformat import (CSV_BLOCK_ROWS, Labels, _csv_digits, _decimal_digits,
                                      _digit_groups, _round_off, _shortest_digits, json_items,
                                      write_csv)
from bosonic_engine.states import bose_einstein
from textdiff import assert_equal_text, assert_equal_texts


def template_csv(header, columns) -> str:
    """Oracle: one '%.15g' / '%s' row template per row, the writer's former form.

    A Labels column is the list of the name of each code."""
    columns = [[col.names[k] for k in col.codes.tolist()] if isinstance(col, Labels) else col
               for col in columns]
    row = ",".join("%s" if isinstance(col, list) else "%.15g" for col in columns) + "\n"
    rows = zip(*(col if isinstance(col, list) else col.tolist() for col in columns))
    return ",".join(header) + "\n" + "".join(map(row.__mod__, rows))


def labels(texts) -> Labels:
    """The Labels of a sequence of texts, one name per distinct text."""
    names = tuple(dict.fromkeys(texts))
    return Labels(np.array([names.index(text) for text in texts], np.intp), names)


def block_csv(header, columns) -> str:
    fh = io.StringIO()
    write_csv(fh, header, columns)
    return fh.getvalue()


def assert_same_text(columns):
    header = tuple(f"c{j}" for j in range(len(columns)))
    assert_equal_text(block_csv(header, columns), template_csv(header, columns))


def neighbours(values) -> np.ndarray:
    """Each value, its float64 neighbours on both sides, and the negatives of all."""
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])
    return np.concatenate([v, -v])


EDGES = neighbours([
    0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
    1e-5, 9.9999999999999995e-05, 1e-4, 1e-3, 0.1, 0.5, 1.0, 10.0,
    123456789012345.0, 999999999999999.0, 999999999999999.5, 1e15, 1e16,
    1234567890123455.0, 1234567890123465.0, 1.7976931348623157e308,
])


class TestTemplateEquality:
    def test_edge_values(self):
        special = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0])
        assert_same_text([EDGES])
        assert_same_text([np.resize(special, EDGES.size), EDGES, EDGES[::-1]])

    @pytest.mark.parametrize("e", range(-6, 17))
    def test_half_way_cases_at_every_exponent(self, e):
        # (D + 1/2) 10^(e-14) lies half-way between two 15-digit decimals.  It
        # is a double, an exact tie that '%.15g' rounds to even, at e = 14 and
        # 15; elsewhere the nearest double lies just to one side of the tie.
        digits = np.random.default_rng(e + 100).integers(10**14, 10**15, 2000)
        assert_same_text([neighbours((digits + 0.5) * 10.0 ** (e - 14))])

    def test_exact_decimals(self):
        rng = np.random.default_rng(7)
        places = rng.integers(0, 16, 5000)
        values = [round(v, int(k)) for v, k in zip(rng.uniform(-1e3, 1e3, 5000), places)]
        assert_same_text([np.array(values), np.linspace(0.0, 3.0, 5000)])

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2**64, 3 * CSV_BLOCK_ROWS + 17,
                                                  dtype=np.uint64)
        values = bits.view(np.float64)
        finite = np.abs(np.where(np.isfinite(values), values, 1.0))
        assert_same_text([values, finite % 1e16, finite % 1e-3])

    def test_log_uniform_magnitudes_across_blocks(self):
        rng = np.random.default_rng(3)
        values = 10.0 ** rng.uniform(-7, 17, (5, 2 * CSV_BLOCK_ROWS + 5))
        assert_same_text([v * s for v, s in zip(values, [1, -1, 1, -1, 1])])

    def test_string_and_mixed_columns(self):
        texts = ["i", "ii", "iii", "boundary", "", "a\x00b", "é,ü", "日本語\n", "x" * 40]
        rows = 3 * len(texts)
        assert_same_text([labels(texts * 3), np.arange(rows) / 7.0, labels(texts[::-1] * 3)])

    def test_integer_bool_and_float32_columns(self):
        ints = np.array([0, 1, -7, 10**15, 10**16 + 1, 2**62])
        assert_same_text([ints, ints > 1, (ints / 3).astype(np.float32)])

    def test_no_rows_and_no_columns(self):
        assert block_csv(("a", "b"), [np.array([]), np.array([])]) == "a,b\n"
        assert block_csv((), []) == "\n"

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_arbitrary_columns(self, data):
        rows = data.draw(st.integers(0, 40))
        floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        columns = []
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):
                values = data.draw(st.lists(floats, min_size=rows, max_size=rows))
                columns.append(np.array(values, dtype=float))
            else:
                texts = st.text(max_size=12) | st.sampled_from(["", "\x00", "a\x00b", "\x00\x00c"])
                values = data.draw(st.lists(texts, min_size=rows, max_size=rows))
                columns.append(labels(values))
        assert_same_text(columns)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_label_columns(self, data):
        rows = data.draw(st.integers(0, 40))
        # Python formats these numbers; a label wider than 27 bytes widens every cell
        floats = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300,
                                                1e-300, -1e-300])
        names = st.sampled_from(["", "a\x00b", "é,ü", "a,b", "x\ny", "日本語", "w" * 28]) \
            | st.text(max_size=40)
        columns = []
        for label in data.draw(st.permutations([True, *data.draw(st.lists(st.booleans(),
                                                                          max_size=3))])):
            if label:
                column_names = tuple(data.draw(st.lists(names, min_size=1, max_size=6)))
                codes = data.draw(st.lists(st.integers(0, len(column_names) - 1),
                                           min_size=rows, max_size=rows))
                columns.append(Labels(np.array(codes, np.uint8), column_names))
            else:
                values = data.draw(st.lists(floats, min_size=rows, max_size=rows))
                columns.append(np.array(values, dtype=float))
        assert_same_text(columns)


def d17_route(x):
    """D15, ei and fast rounded from D17 and its residual, as the JSON digits are."""
    d17, residual, ei, fast = _decimal_digits(x)
    d15 = _round_off(d17, residual, 100)[0]
    carry = d15 == 10**15
    ei += carry
    return np.where(carry, 10**14, d15), ei, fast & (ei <= 19)


def assert_same_digits(x):
    d, ei, fast = _csv_digits(x)
    want_d, want_ei, want_fast = d17_route(x)
    np.testing.assert_array_equal(fast, want_fast)
    np.testing.assert_array_equal(d, want_d)
    np.testing.assert_array_equal(ei, want_ei)


def half_way_branches(x, e):
    """Where p = fl(|x| 10^(14 - e)) is half-way between two integers, the sign of
    the exact error |x| 10^(14 - e) - p (-1, 0 or 1); None elsewhere."""
    signs = []
    for v in x.tolist():
        y = abs(Fraction(v)) * Fraction(10) ** (14 - e)
        p = Fraction(float(y))
        signs.append((y > p) - (y < p) if p - math.floor(p) == Fraction(1, 2) else None)
    return signs


def loop_trailing_zeros(d, groups):
    """Trailing zero digits of each D, one 3-digit group at a time (3 per group for 0)."""
    group_zeros = np.array([3 if g == 0 else 2 if g % 100 == 0 else 1 if g % 10 == 0 else 0
                            for g in range(1000)])
    zeros = np.zeros_like(d)
    trailing = np.ones(d.size, bool)
    for _ in range(groups):
        group = d % 1000
        zeros += trailing * group_zeros[group]
        trailing &= group == 0
        d = d // 1000
    return zeros


class TestDigitRoute:
    """D15 from the rounded product against D15 rounded from D17, and the
    trailing-zero state table against a loop over the digit groups."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(23).integers(0, 2**64, 20000, dtype=np.uint64)
        values = bits.view(np.float64)
        finite = np.abs(np.where(np.isfinite(values), values, 1.0))
        assert_same_digits(np.concatenate([values, finite % 1e15, finite % 1e-3, -finite % 10]))

    @pytest.mark.parametrize("e", range(-5, 15))
    def test_every_exponent_and_half_way_branch(self, e):
        rng = np.random.default_rng(e + 200)
        s = 14 - e
        # m 2^(-1-s), m odd, times 10^s is the half-integer m 5^s / 2: no error
        odd = 2 * rng.integers(10**14 // 5**s, 10**15 // 5**s, 300) + 1
        exact = odd * 2.0 ** (-1 - s)
        # the doubles nearest to (D + 1/2) 10^-s err to either side
        near = neighbours((rng.integers(10**14, 10**15, 600) + 0.5) / 10.0**s)
        plain = rng.uniform(1.0, 10.0, 600) * 10.0**e
        x = np.concatenate([exact, near, plain])
        assert_same_digits(x)

        magnitude = np.abs(x)
        in_decade = (magnitude >= 10.0**e) & (magnitude < 10.0 ** (e + 1))
        # e = -5 prints in exponent notation, so Python formats it
        assert np.array_equal(_csv_digits(x)[2][in_decade], np.full(in_decade.sum(), e >= -4))
        branches = set(half_way_branches(x[in_decade], e))
        assert branches >= ({0} if e == 14 else {-1, 0, 1})       # 10^0 scales exactly
        assert_same_text([x])

    @pytest.mark.parametrize("groups", [5, 6])
    def test_trailing_zero_states(self, groups):
        rng = np.random.default_rng(groups)
        top = 10 ** (3 * groups)
        digits = rng.integers(1, top, 2000)
        d = np.concatenate([
            [0, 1, top - 1],
            10 ** np.arange(3 * groups),                             # powers of ten
            *[digits - digits % 1000**j for j in range(groups)],     # zero low groups
            digits - digits % 10 ** rng.integers(0, 3 * groups, digits.size),
        ])
        zeros = _digit_groups(d, np.full(d.size, 5), groups)[1]
        np.testing.assert_array_equal(zeros, loop_trailing_zeros(d, groups))


def assert_same_json(values):
    values = np.asarray(values, dtype=float)
    assert_equal_texts(json_items([values]), [json.dumps(values.tolist())[1:-1]])


def half_way(digits: int, exponents) -> np.ndarray:
    """Doubles nearest to the points half-way between two decimals of the given
    number of significant digits, with their neighbours, at each exponent."""
    rng = np.random.default_rng(digits)
    d = rng.integers(10 ** (digits - 1), 10**digits, (len(exponents), 300))
    scale = np.array([10.0 ** (e - digits + 1) for e in exponents])[:, None]
    return neighbours(((d + 0.5) * scale).ravel())


JSON_EDGES = neighbours([
    0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-300,
    1e-5, 1e-4, 1e-3, 0.1, 0.2, 0.3, 0.5, 1.0, 1.5, 10.0, 100.0, 1e14,
    123456789012345.0, 999999999999999.0, 999999999999999.5, 1e15, 1e16, 1e17, 1e22, 1e23,
    2.0**53, 2.0**53 + 2.0, 2.0**52 + 0.5, 4503599627370495.5, 9007199254740993.0,
    0.1 + 0.2, 1 / 3, 2 / 3, math.pi, math.e, 1.7976931348623157e308,
] + [2.0**k for k in range(-30, 64)])


class TestJsonItems:
    """json_items against json.dumps, whose numbers are float.__repr__."""

    def test_edge_values(self):
        special = [math.nan, -math.nan, math.inf, -math.inf, -0.0]
        assert_same_json(JSON_EDGES)
        assert_same_json(np.concatenate([np.resize(special, 40), JSON_EDGES]))

    @pytest.mark.parametrize("digits", [15, 16, 17])
    def test_half_way_cases(self, digits):
        # (D + 1/2) 10^(e-P+1) is a double, an exact tie at P digits, for
        # D + 1/2 < 2^52 at e = P - 1 (16 digits: 1e15 <= x < 2^52); elsewhere
        # the nearest double lies just to one side of the tie.
        assert_same_json(half_way(digits, range(-6, 19)))

    def test_random_bit_patterns_and_magnitudes(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64)
        finite = np.abs(np.where(np.isfinite(bits), bits, 1.0))
        assert_same_json(np.concatenate([bits, finite % 1e16, finite % 1e-3]))
        assert_same_json(10.0 ** rng.uniform(-7, 18, 20000) * rng.choice([-1.0, 1.0], 20000))
        assert_same_json(rng.standard_normal(20000))

    def test_rounded_decimals_and_integers(self):
        rng = np.random.default_rng(19)
        places = rng.integers(0, 17, 10000)
        values = [round(v, int(k)) for v, k in zip(rng.uniform(-1e3, 1e3, 10000), places)]
        assert_same_json(values)
        assert_same_json(rng.integers(-2**53, 2**53, 10000).astype(float))

    def test_several_arrays_and_separators(self):
        arrays = [np.array([0.1, -2.0, math.nan]), np.array([]), np.array([1e300]),
                  np.array([5e-324, 3.0], dtype=np.float32)]
        got = json_items(arrays)
        assert_equal_texts(got, [json.dumps(a.tolist())[1:-1] for a in arrays])
        assert got[0] == "0.1, -2.0, NaN"
        assert json_items([np.array([])]) == [""]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                    | st.sampled_from(JSON_EDGES.tolist()), max_size=64))
    def test_arbitrary_floats(self, values):
        assert_equal_texts(json_items([np.array(values, dtype=float)]), [json.dumps(values)[1:-1]])


def assert_same_json_arrays(arrays):
    assert_equal_texts(json_items(arrays), [json.dumps(a.tolist())[1:-1] for a in arrays])


# Values whose runs must stay apart although some print alike or compare
# equal: +-0, NaN of both signs, +-inf, subnormals, and neighbours of 0.1.
RUN_POOL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-310,
            0.1, 0.10000000000000002, 2.5, -1e300]


class TestJsonRuns:
    """json_items formats each run of equal bits once and copies its cell."""

    def test_runs_across_arrays(self):
        assert_same_json_arrays([
            np.full(700, 0.1), np.array([0.0, -0.0, -0.0, 0.0, 0.0]), np.array([]),
            np.full(5, math.nan), np.array([]), np.array([]), np.full(4, math.nan),
            np.repeat([math.inf, -math.inf, math.inf], 3), np.full(4, 5e-324),
            np.full(3, 5e-324), np.full(2, -1e-310), np.array([])])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(RUN_POOL), st.integers(1, 40)),
                             max_size=6), min_size=1, max_size=6))
    def test_arrays_of_runs_from_a_small_pool(self, runs):
        assert_same_json_arrays([np.repeat(*zip(*array)) if array else np.array([])
                                 for array in runs])

    def test_no_arrays(self):
        assert json_items([]) == []

    def test_each_run_is_formatted_once(self, monkeypatch):
        sizes = []

        def recording(x):
            sizes.append(x.size)
            return _shortest_digits(x)

        monkeypatch.setattr(csvformat, "_shortest_digits", recording)
        assert json_items([np.full(1000, 0.1), np.full(5, 0.1)]) == [
            ", ".join(["0.1"] * 1000), ", ".join(["0.1"] * 5)]
        assert sizes == [2]


# SHA-256 of the CSVs of the README examples and of each mode's default
# spec, as the '%.15g' row template wrote them.  Every exponential behind
# them is the C library's (states.libm), so each holds on every path of
# numpy's CPU dispatch.
GOLDEN = {
    "default-classicality-curve": (
        ["classicality-curve"],
        "80818ecfdebc28786d48de83dd0e92c537fcaab73d060c19415c6c7a5e5207af"),
    "default-otto-sweep": (
        ["otto-sweep"],
        "1586fafcae0fbc8acc76307ccfafc99a1a72c610f6028ccf965d202321dc1b73"),
    "default-generalized-sweep": (
        ["generalized-sweep"],
        "5690e5359f21b805b243339c9fcc2fedde7723d57fcb57af612164274fe2459f"),
    "default-cycle-trace": (
        ["cycle-trace"],
        "45c3f0a1ccfc526c694fe730794bb1584a94de6a3e5d22665cc63a7f1a99ecce"),
    "default-phase-diagram": (
        ["phase-diagram"],
        "e3a84c65b30321f24b2c5bc318354dfdb7e53caf4f3a4400bb9bff5d7c88da19"),
    "readme-otto-sweep": (
        ["otto-sweep", "--r-min", "0", "--r-max", "3", "--points", "301"],
        "25d6d29f377f506b7f19ccd709235bcc82a121930627035c52a58d57bc111e26"),
    "readme-generalized-sweep": (
        ["generalized-sweep", "--points", "201"],
        "5690e5359f21b805b243339c9fcc2fedde7723d57fcb57af612164274fe2459f"),
    "readme-classicality-curve": (
        ["classicality-curve", "--tau-cold", "1", "--tau-hot", "2", "--tau-third", "3"],
        "80818ecfdebc28786d48de83dd0e92c537fcaab73d060c19415c6c7a5e5207af"),
    "readme-cycle-trace": (
        ["cycle-trace", "--kind", "generalized", "--r-work", "0.5"],
        "5889c8455787b6299f3111ff1861e19af2c9961a0a861562a97880b40ef7d18a"),
    "readme-phase-diagram": (
        ["phase-diagram", "--r-max", "1.2"],
        "c95727ba53804ca6120bcb2a8c6c1df0f63f7eb7c9edf1faa1e5ab7994f063d5"),
    "readme-config-otto-sweep": (  # otto-sweep --config run.json --points 501
        ["otto-sweep", "--r-min", "0", "--r-max", "3", "--points", "501"],
        "5b10d07b6b8f380d19e4b5a38d35f2625e67dde4240507397afd7a9cdbb43781"),
}

# The README relaxation example: digest of its CSV without the
# classicality column, which is computed without cancellation now and
# is checked against mpmath instead.
RELAXATION_ARGV = ["relaxation", "--tau-cold", "1", "--tau-hot", "2", "--r-work", "0.3",
                   "--gamma", "1", "--t-final", "20"]
RELAXATION_OTHER_COLUMNS = "3fd7a460114f73f1ea9faa9de75cb40502c1c87c47c202497b3995eb27ef8fe8"


def run_cli(argv, path) -> bytes:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--output", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("name", GOLDEN)
def test_golden_csv_digest(tmp_path, name):
    argv, digest = GOLDEN[name]
    assert hashlib.sha256(run_cli(argv, tmp_path / "out.csv")).hexdigest() == digest


def test_readme_relaxation_example(tmp_path):
    lines = run_cli(RELAXATION_ARGV, tmp_path / "relax.csv").decode().splitlines()
    cells = [line.split(",") for line in lines]
    others = "".join(",".join(row[:3] + row[4:]) + "\n" for row in cells)
    assert hashlib.sha256(others.encode()).hexdigest() == RELAXATION_OTHER_COLUMNS

    # C_k = n_0 R^k + C_env (1 - R^k) for m_0 = 0, at 40 digits, every 97th row
    n0, n_th, steps = bose_einstein(1.0), bose_einstein(2.0), 20_000
    with mp.workdps(40):
        z = mp.mpf(-(20.0 / steps))
        growth = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        c_env = (mp.mpf(n_th) + mp.mpf(0.5)) * mp.exp(-2 * mp.mpf(0.3)) - mp.mpf(0.5)
        for row in cells[1::97]:
            power = growth ** round(float(row[0]) * steps / 20.0)
            exact = float(mp.mpf(n0) * power + c_env * (1 - power))
            # 15 printed digits: half a unit in the 15th place, plus the closed form's rounding
            assert float(row[3]) == pytest.approx(exact, rel=5e-15, abs=1e-15)
            assert math.isfinite(float(row[3]))
