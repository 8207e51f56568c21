import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elastoscan._numtext import CHUNK_VALUES, format_rows, repr_words


def texts(values) -> list[str]:
    """The text repr_words writes for every value, repr's own where it leaves a value
    out; each cell holds one void byte at most before its text, and none inside it or
    after its newline."""
    vals = np.asarray(values, np.float64).ravel()
    cells = np.empty((vals.size, 3), "<u8")
    ends, slow = repr_words(vals, cells.T)
    rows = cells.view(np.uint8)
    assert not rows[np.arange(24) >= ends[:, None]].any()
    out = []
    for row, end in zip(rows, ends.tolist()):
        text = bytes(row[int(row[0] == 0):end])
        assert b"\0" not in text and text.endswith(b"\n")
        out.append(text[:-1].decode())
    for i in slow.tolist():
        assert out[i] == ""
        out[i] = repr(vals[i].item())
    return out


def interval_end_values() -> list[float]:
    """Doubles in [2**54, 2**55) (a gap of 4) whose neighbouring midpoint x + 2 or
    x - 2 is a multiple of 10: a 16-digit candidate lies exactly at an end of the
    rounding interval, and it reads back to x only where x's mantissa is even."""
    picked = {}
    for k in range(200):
        x = 2**54 + 4 * k
        for end in ("up", "down"):
            if (x + (2 if end == "up" else -2)) % 10 == 0:
                picked.setdefault((end, k % 2), float(x))
    assert len(picked) == 4                       # both ends, both mantissa parities
    return list(picked.values())


def edge_values() -> list[float]:
    binades = np.ldexp(1.0, np.arange(-1074, 1024))      # subnormals, 5e-324 .. 2**1023
    tens = 10.0 ** np.arange(-10, 21)
    vals = [*binades, *np.ldexp(1.5, np.arange(-1074, 1023))]
    for p in tens:                                        # powers of ten and +- 1 ulp
        vals += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    for p in (1e16, 1e-4, 1e-5):                          # positional / scientific switches
        vals += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    vals += [1e16 - 4, 1e16 - 2, 1e16 + 2, 1e16 + 4, 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
             9999999999999998.0, 0.0, 2.2250738585072014e-308, 5e-324,
             1566033567985804.25, 1773123766202193.75, 183337709225101.625,  # ties: even digit
             0.1, 0.3, 0.30000000000000004, 1.5, 100.0, 123456.0, 1e22, 1e-7,
             *interval_end_values(), *(0.125 * np.arange(1, 801)), *(1e6 * np.arange(1, 200))]
    return [float(v) for v in vals] + [-float(v) for v in vals] + grid_axis_values()


def grid_axis_values() -> list[float]:
    """The x and y axes of every preset's sampling grid, --small and full: short
    decimals, many of them exact in binary (frac = 0 in the scaled form)."""
    from elastoscan.harness import build_preset, preset_names
    from elastoscan.indicators import SamplingGrid

    vals = []
    for name in preset_names():
        for small in (True, False):
            grid = SamplingGrid(*build_preset(name, small=small).grid)
            vals += [*grid.xs.tolist(), *grid.ys.tolist()]
    return vals


class TestReprCells:
    """repr_words writes exactly the bytes of repr(x)."""

    def test_edge_table(self):
        vals = edge_values()
        assert texts(vals) == [repr(v) for v in vals]

    def test_interval_ends_follow_the_mantissa_parity(self):
        lengths = {len(t.split("e")[0].replace(".", "")) for t in texts(interval_end_values())}
        assert lengths == {16, 17}

    def test_random_bits_and_spread(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2**63, 2**16, dtype=np.uint64).view(np.float64)
        spread = 10.0 ** rng.uniform(-7, 18, 2**16)
        vals = np.concatenate([bits[np.isfinite(bits)], spread, np.abs(rng.normal(size=2**15))])
        assert texts(vals) == [repr(v) for v in vals.tolist()]

    def test_non_finite_values(self):
        vals = [np.inf, -np.inf, np.nan]
        assert texts(vals) == ["inf", "-inf", "nan"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
    def test_matches_repr(self, values):
        assert texts(values) == [repr(v) for v in values]


def repr_class(v: float) -> tuple[int, int, bool]:
    """(X, n, sign) of repr(v): decimal exponent X, n significant digits (trailing zeros
    left out), and the sign."""
    text = repr(v)
    mantissa, _, exponent = text.lstrip("-").partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0").rstrip("0")
    if exponent:
        X = int(exponent)
    elif whole != "0":
        X = len(whole) - 1
    else:
        X = len(frac.lstrip("0")) - len(frac) - 1
    return X, len(digits), text.startswith("-")


def repr_class_values() -> dict[tuple[int, int, bool], float]:
    """One value for every (X, n, sign) repr_words lays out with its tables: X in -6..16
    (positional for -4..15, d.ddde-05 / de+16 otherwise), n in 1..17, integers
    written with '.0' included."""
    rng = np.random.default_rng(24)
    found = {}
    for X in range(-6, 17):
        for n in range(1, 18):
            for _ in range(1000):                 # an n-digit decimal, last digit not 0
                d = int(rng.integers(10 ** (n - 1), 10**n)) // 10 * 10 + int(rng.integers(1, 10))
                v = float(f"{d}e{X - n + 1}")
                if repr_class(v) == (X, n, False):
                    found[X, n, False], found[X, n, True] = v, -v
                    break
    return found


class TestReprLayout:
    """Every entry of repr_words' layout tables, against repr."""

    CLASSES = repr_class_values()

    def test_every_class_is_reached(self):
        classes = {(X, n, sign) for X in range(-6, 17) for n in range(1, 18)
                   for sign in (False, True)}
        assert set(self.CLASSES) == classes
        assert all(repr_class(v) == c for c, v in self.CLASSES.items())
        # the positional integers (n <= X + 1) are written with '.0'
        assert all(repr(v).endswith(".0") for (X, n, _), v in self.CLASSES.items()
                   if 0 <= X < 16 and n <= X + 1)

    @staticmethod
    def edges() -> list[float]:
        """The ends of the array range and of the positional form, their neighbours,
        values written one at a time, and zeros."""
        vals = []
        for p in (1e-6, 1e-4, 1e16, 1e17):
            vals += [p, float(np.nextafter(p, 0.0)), float(np.nextafter(p, np.inf))]
        vals += [0.0, 5e-324, 2.2250738585072014e-308, 1e300, np.inf, np.nan]
        return vals + [-v for v in vals]

    def test_classes_and_edges_alone(self):
        vals = list(self.CLASSES.values()) + self.edges()
        assert texts(vals) == [repr(v) for v in vals]

    def test_all_array_mixed_and_no_array_blocks(self):
        classes = np.array(list(self.CLASSES.values()))
        others = np.array([v for v in self.edges() if not 1e-6 < abs(v) < 1e17])
        rng = np.random.default_rng(6)
        for vals in (classes, np.concatenate([classes, others]), others):
            block = rng.permutation(np.resize(vals, CHUNK_VALUES))   # each value at least once
            assert texts(block) == [repr(v) for v in block.tolist()]


def percent_text(rows) -> bytes:
    template = " ".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in rows.tolist()).encode()


def layout_class(v: float) -> tuple[int, int, bool]:
    """(X, k, sign) of a value as "%.17g" writes it, 1e-4 <= |v| < 1e17: exponent X,
    k significant digits shown, and the sign."""
    text = "%.17g" % v
    whole, _, frac = text.lstrip("-").partition(".")
    digits = (whole + frac).lstrip("0")
    X = len(whole) - 1 if whole != "0" else len(frac.lstrip("0")) - len(frac) - 1
    return X, len(digits), text.startswith("-")


def class_values() -> dict[tuple[int, int, bool], float]:
    """One value for every (X, k, sign) format_rows lays out with its tables: X in
    -4..16, k in 1..17 (at least X + 1: the digits before the point are all shown)."""
    rng = np.random.default_rng(22)
    found = {}
    for X in range(-4, 17):
        for k in range(max(X + 1, 1), 18):
            for _ in range(1000):                 # a k-digit decimal, last digit not 0
                d = int(rng.integers(10 ** (k - 1), 10**k)) // 10 * 10 + int(rng.integers(1, 10))
                v = float(f"{d}e{X - k + 1}")
                if layout_class(v) == (X, k, False):
                    found[X, k, False], found[X, k, True] = v, -v
                    break
    return found


class TestFormatRowsLayout:
    """Every entry of format_rows' layout tables, against "%.17g"."""

    CLASSES = class_values()

    def test_every_class_is_reached(self):
        classes = {(X, k, sign) for X in range(-4, 17) for k in range(max(X + 1, 1), 18)
                   for sign in (False, True)}
        assert set(self.CLASSES) == classes
        assert all(layout_class(v) == c for c, v in self.CLASSES.items())

    @staticmethod
    def edges() -> list[float]:
        """The ends of the array range and their neighbours, values below it, zeros."""
        vals = []
        for p in (1e-4, 1e17):
            vals += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        vals += [1.5e-5, 9.999999999999999e-05, 2e-6, 1.0000000000000002e-06, 0.0]
        return vals + [-v for v in vals]

    def test_classes_and_edges_alone(self):
        vals = np.array(list(self.CLASSES.values()) + self.edges())
        for rows in (vals[None, :], vals[:, None], vals.reshape(-1, 8)):
            assert format_rows(rows) == percent_text(rows)

    def test_all_array_mixed_and_no_array_chunks(self):
        classes = np.array(list(self.CLASSES.values()))
        others = np.array([v for v in self.edges() if not 1e-4 <= abs(v) < 1e17]
                          + [5e-324, -1e300, np.inf, -np.inf, np.nan, -2.2250738585072014e-308])
        rng = np.random.default_rng(5)
        # each holds every one of its values at least once
        all_array, mixed, no_array = (rng.permutation(np.resize(vals, CHUNK_VALUES)) for vals in
                                      (classes, np.concatenate([classes, others]), others))
        for chunk in (all_array, mixed, no_array):
            for width in (CHUNK_VALUES, 64, 1):
                rows = chunk.reshape(-1, width)
                assert format_rows(rows) == percent_text(rows)
