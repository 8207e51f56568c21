"""Decimal text of binary64 values at array speed, byte for byte Python's own.

Two formats, each computed for a block of values with exact array arithmetic:

* format_rows: the bytes of "%.17g" % x (the numbers of MSR/1 files);
* repr_cells: the bytes of repr(x), the shortest decimal string that reads back
  to x, nearest to x among the shortest (the numbers of CSV fields).

Both rest on one exact scaling.  For 1e-6 < |x| < 1e17 the decimal exponent X
lies in -6..16, so 10**(16 - X) is exact in binary64 and Dekker's two-product
gives |x| * 10**(16 - X) = p + e exactly; p >= 2**53 is an integer, so the
scaled value is D + frac with the 17-digit integer D = p + floor(e) and
0 <= frac = e - floor(e) < 1, both exact.  format_rows lays out 0 and -0 as
arrays too.  Every other value (subnormals, 0 < |x| <= 1e-6, |x| >= 1e17,
non-finite, and in repr_cells also 0 and -0) is formatted one at a time by
Python itself.
"""

from __future__ import annotations

import numpy as np

CHUNK_VALUES = 8192                 # numbers per block: the temporaries stay in cache
REPR_CELL = 24                      # longest repr of a float: '-2.2250738585072014e-308'
_CELL = 25                          # longest "%.17g" text (24 bytes) plus its separator
_POW10 = 10.0 ** np.arange(23)      # 10**k is exact in binary64 for k <= 22
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_QUADS = (48 + np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
          ).astype(np.uint8).view(np.uint32).ravel()      # "0000" .. "9999"


def _veltkamp(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a             # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _scaled_floor(a, X):
    """(e, floor(e), floor(a * 10**(16 - X))) where a * 10**(16 - X) = p + e exactly.

    The floor (int64) is exact when it lies in [10**16, 10**17), where p is an
    integer; outside that range it still lies outside, so it detects a wrong X.
    """
    k = 16 - X
    p = a * _POW10[k]
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    f = np.floor(e)
    return e, f, p.astype(np.int64) + f.astype(np.int64)


def _scaled(a):
    """(X, e, floor(e), D) for each a in (1e-6, 1e17): a * 10**(16 - X) = D + e - floor(e)
    exactly, with D in [10**16, 10**17)."""
    X = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
    e, f, D = _scaled_floor(a, X)
    off = np.flatnonzero((D < 10**16) | (D >= 10**17))     # log10 rounded across 10**X
    while off.size:
        X[off] += np.where(D[off] < 10**16, -1, 1)
        e[off], f[off], D[off] = _scaled_floor(a[off], X[off])
        off = off[(D[off] < 10**16) | (D[off] >= 10**17)]
    return X, e, f, D


def _chars17(D):
    """The 17 digit characters of each D in [0, 10**17), in columns 3..19 of 24-byte rows
    (n x 24 uint8)."""
    hi = D // 10**8
    lo = (D - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    q = hi // 10000
    quads = np.empty((D.size, 6), np.uint32)
    quads[:, 0], quads[:, 1] = _QUADS[q // 10000], _QUADS[q % 10000]
    quads[:, 2] = _QUADS[hi - q * 10000]
    q = lo // 10000
    quads[:, 3], quads[:, 4] = _QUADS[q], _QUADS[lo - q * 10000]
    return quads.view(np.uint8)


def _digits17(a):
    """17 significant digits of each a in (1e-6, 1e17), rounded half-even.

    Returns the digit characters (n x 17 uint8, a writable view) and the
    decimal exponent X: a rounds to d.dddd * 10**X.
    """
    X, e, f, D = _scaled(a)
    half = f + 0.5
    D += (e > half) | ((e == half) & (D & 1).astype(bool))
    # No carry reaches 10**17: that would need a double within 5e-18 (relative)
    # below a power of ten, and in (1e-6, 1e17) the nearest lies 4.5e-17 away.
    return _chars17(D)[:, 3:20], X


def format_rows(values: np.ndarray) -> bytes:
    """The bytes of "%.17g" % v for every value: ' ' between values, a newline after each row.

    Each value gets a fixed-width cell of characters padded with void (zero)
    bytes; the voids are dropped once for the whole block.  Values in
    (1e-6, 1e17) and exact zeros ("0", "-0" where the sign bit is set) are laid
    out as arrays, the rest by "%.17g" itself.
    """
    vals = values.ravel()
    mag = np.abs(vals)
    fast = (mag > 1e-6) & (mag < 1e17)          # 1e-6 rounds below 10**-6, so X >= -6
    cells = np.zeros((vals.size, _CELL), np.uint8)
    idx = np.flatnonzero(fast)
    digits, X = _digits17(mag[idx])
    lead = np.where(X < -4, 0, X)               # digits before the point are kept (0..lead)
    dot = np.where(lead < 16, 46, 0).astype(np.uint8)
    ends0 = np.flatnonzero(digits[:, 16] == 48)  # strip trailing zeros after the point
    if ends0.size:
        sub = digits[ends0]
        last = 16 - np.argmax(sub[:, ::-1] != 48, axis=1)
        sub[np.arange(17) > np.maximum(last, lead[ends0])[:, None]] = 0
        digits[ends0] = sub
        dot[ends0[last <= lead[ends0]]] = 0
    # one block per exponent: sort by X, lay out each run with fixed columns
    order = np.argsort(X.astype(np.int8), kind="stable")   # int8: a radix sort
    counts = np.bincount(X + 6, minlength=23)
    digits, dot = digits[order], dot[order]
    block = np.zeros((idx.size, _CELL), np.uint8)
    block[:, 0] = np.where(vals[idx[order]] < 0, 45, 0)
    end = 0
    for c in np.flatnonzero(counts) - 6:
        start, end = end, end + counts[c + 6]
        dig, cell = digits[start:end], block[start:end]
        if c >= 0:                              # ddd.ddd
            cell[:, 1:c + 2] = dig[:, :c + 1]
            cell[:, c + 2] = dot[start:end]
            cell[:, c + 3:19] = dig[:, c + 1:]
        elif c >= -4:                           # 0.000ddd
            cell[:, 1:2 - c] = np.frombuffer(b"0.000"[:1 - c], np.uint8)
            cell[:, 2 - c:19 - c] = dig
        else:                                   # d.ddde-0X
            cell[:, 1] = dig[:, 0]
            cell[:, 2] = dot[start:end]
            cell[:, 3:19] = dig[:, 1:]
            cell[:, 19:23] = np.frombuffer(b"e-0%d" % -c, np.uint8)
    cells[idx[order]] = block
    zero = np.flatnonzero(mag == 0)
    cells[zero, 0] = np.where(np.signbit(vals[zero]), 45, 0)
    cells[zero, 1] = 48
    slow = np.flatnonzero(~fast & (mag != 0))
    if slow.size:
        text = "".join(("%.17g" % v).ljust(_CELL - 1, "\0") for v in vals[slow].tolist())
        cells[slow, :-1] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _CELL - 1)
    cells[:, -1] = 32
    cells.reshape(values.shape[0], -1)[:, -1] = 10
    return cells.tobytes().translate(None, b"\0")


def _trailing_zeros(D):
    """The number of trailing decimal zeros of each D in [10**16, 10**17)."""
    t = np.zeros(D.shape, np.int64)
    for k in (16, 8, 4, 2, 1):
        whole = D % _POW10_INT[k] == 0
        D = np.where(whole, D // _POW10_INT[k], D)
        t += k * whole
    return t


def _shortest(a):
    """Shortest round-trip digits of each a in (1e-6, 1e17).

    A decimal value reads back to a when it lies in a's rounding interval: within
    half the gap to each neighbouring double (the gaps differ at powers of two),
    an end included when a's mantissa is even (reading rounds ties to even).  With
    the exact scaled value D + frac, the n-digit values next to a are q M and
    (q + 1) M, M = 10**(17 - n), q = D // M.  If an n-digit value lies in the
    interval, so does an (n+1)-digit one, so the lengths are scanned downwards
    from 16 while a candidate stays inside (17 digits always do); a value that
    is itself a short decimal starts lower (see below).  Of two
    candidates inside, the nearer is kept, and of two as near, the one with an
    even last digit, as repr does.

    Every test is exact: each distance minus its half gap is formed from an
    integer, a half gap and frac in an order that rounds at most where the sign
    cannot change, and a rounded sum is zero only where the exact one is.

    Returns (R, n, X): the digits are the n leading ones of the 17-digit integer
    R (10**17 carried back to 10**16, with X raised by one), and a is shown as
    d.ddd * 10**X.
    """
    X, e, f, D = _scaled(a)
    frac = e - f
    scale = 0.5 * _POW10[16 - X]                    # gaps are powers of two: exact
    bits = a.view(np.int64)
    up_gap = ((bits + 1).view(np.float64) - a) * scale
    down_gap = (a - (bits - 1).view(np.float64)) * scale
    # an interval end is inside where the mantissa is even: with 5e-324 the least
    # positive double, d < end means d < 0, or d <= 0 where the mantissa is even
    end = np.where(bits & 1, 0.0, 5e-324)

    def nearest(i, M):
        """(inside, candidate): whether an n-digit value lies in the interval of a[i],
        and the one kept, for M = 10**(17 - n)."""
        Di, fr, lim = D[i], frac[i], end[i]
        q = Di // M
        rem = Di - q * M
        down_in = (rem.astype(np.float64) - down_gap[i]) + fr < lim
        up_in = ((M - rem).astype(np.float64) - up_gap[i]) - fr < lim
        lean = (2 * rem - M).astype(np.float64) + 2.0 * fr     # distance down - up
        tie = np.flatnonzero(lean == 0)
        lean[tie] = q[tie] % 2 - 0.5                            # to the even digit
        return down_in | up_in, (q + (up_in & (~down_in | (lean > 0)))) * M

    # Where frac = 0, a is the decimal D * 10**(X - 16) itself: with t trailing zeros
    # in D, every length from 17 - t up has D as its candidate, so the scan of such
    # a value starts at 16 - t with R = D, n = 17 - t.
    R, n = np.empty_like(D), np.empty_like(D)
    exact = np.flatnonzero(frac == 0)
    zeros = _trailing_zeros(D[exact])
    R[exact], n[exact] = D[exact], 17 - zeros
    starts_late = np.zeros(a.size, bool)
    starts_late[exact[zeros > 0]] = True
    live = np.flatnonzero(~starts_late)
    most_zeros = zeros.max(initial=0)
    for digits in range(16, 0, -1):
        if digits < 16:
            live = np.concatenate([live, exact[zeros == 16 - digits]])
        if not live.size:
            if 16 - digits >= most_zeros:           # no scan starts below
                break
            continue
        inside, cand = nearest(live, _POW10_INT[17 - digits])
        if digits == 16:
            rest = live[~inside]
            R[rest], n[rest] = nearest(rest, 1)[1], 17
        kept = np.flatnonzero(inside)
        live = live[kept]
        R[live], n[live] = cand[kept], digits
    carry = R == 10**17
    R[carry], n[carry], X[carry] = 10**16, 1, X[carry] + 1
    return R, n, X


# _SHOWN[k]: the first k digit columns (3..19) of a _chars17 row, as three words
_SHOWN = (255 * ((np.arange(24) >= 3) & (np.arange(24) < 3 + np.arange(18)[:, None]))
          ).astype(np.uint8).view(np.uint64)


def repr_cells(values: np.ndarray) -> np.ndarray:
    """The bytes of repr(v) for every value, one REPR_CELL-wide row each, padded with
    void (zero) bytes.

    repr writes d.ddd positionally for 1e-4 <= |v| < 1e16, with ".0" after an
    integer, and as d.ddde-05 / d.ddde+16 otherwise.  The fast values are laid
    out one exponent at a time in fixed columns, the others by repr itself.
    """
    vals = np.asarray(values, np.float64).ravel()
    mag = np.abs(vals)
    fast = (mag > 1e-6) & (mag < 1e17)
    idx = np.flatnonzero(fast)
    R, n, X = _shortest(mag[idx])
    chars = _chars17(R)
    shown = np.where((X >= 0) & (X < 16), np.maximum(n, X + 2), n)   # a '0' after the point
    chars.view(np.uint64)[:] &= np.take(_SHOWN, shown, axis=0)
    # one run per exponent: sort by X, lay out each run with fixed columns
    order = np.argsort(X.astype(np.int8), kind="stable")   # int8: a radix sort
    counts = np.bincount(X + 6, minlength=24)
    chars, idx, n = np.take(chars, order, axis=0)[:, 3:20], idx[order], n[order]
    block = np.zeros((vals.size, REPR_CELL), np.uint8)     # the fast values, then the others
    block[:idx.size, 0] = np.where(vals[idx] < 0, 45, 0)
    end = 0
    for c in np.flatnonzero(counts) - 6:
        start, end = end, end + counts[c + 6]
        dig, cell = chars[start:end], block[start:end]
        if 0 <= c < 16:                         # ddd.ddd
            cell[:, 1:c + 2] = dig[:, :c + 1]
            cell[:, c + 2] = 46
            cell[:, c + 3:19] = dig[:, c + 1:]
        elif -4 <= c < 0:                       # 0.000ddd
            cell[:, 1:2 - c] = np.frombuffer(b"0.000"[:1 - c], np.uint8)
            cell[:, 2 - c:19 - c] = dig
        else:                                   # d.ddde-05, de+16
            cell[:, 1] = dig[:, 0]
            cell[:, 2] = np.where(n[start:end] > 1, 46, 0)
            cell[:, 3:19] = dig[:, 1:]
            cell[:, 19:23] = np.frombuffer(b"e%+03d" % c, np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = "".join(repr(v).ljust(REPR_CELL, "\0") for v in vals[slow].tolist())
        block[idx.size:] = np.frombuffer(text.encode(), np.uint8).reshape(-1, REPR_CELL)
    where = np.empty(vals.size, np.intp)
    where[idx] = np.arange(idx.size)
    where[slow] = np.arange(idx.size, vals.size)
    return np.take(block, where, axis=0)
