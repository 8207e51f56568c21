import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from elastoscan._numtext import REPR_CELL, repr_cells


def texts(values) -> list[str]:
    cells = repr_cells(np.asarray(values, np.float64))
    assert cells.shape == (np.size(values), REPR_CELL)
    return [bytes(row).replace(b"\0", b"").decode() for row in cells]


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
    """repr_cells writes exactly the bytes of repr(x)."""

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
