"""Decimal text of binary64 values at array speed, byte for byte Python's own.

Two formats, each computed for a block of values with exact array arithmetic:

* format_rows: the bytes of "%.17g" % x (the numbers of MSR/1 files);
* repr_cells: the bytes of repr(x), the shortest decimal string that reads back
  to x, nearest to x among the shortest (the numbers of CSV fields).

Both rest on one exact scaling.  For 1e-6 < |x| < 1e17 the decimal exponent X
lies in -6..16, so 10**(16 - X) is exact in binary64 and Dekker's two-product
gives |x| * 10**(16 - X) = p + e exactly; p >= 2**53 is an integer, so the
scaled value is D + frac with the 17-digit integer D = p + floor(e) and
0 <= frac = e - floor(e) < 1, both exact.  format_rows takes the array path for
1e-4 <= |x| < 1e17, where "%.17g" writes d.ddd or 0.000ddd, and for 0 and -0;
repr_cells for 1e-6 < |x| < 1e17.  Every other value (subnormals, tiny
values, |x| >= 1e17, non-finite, and in repr_cells also 0 and -0) is
formatted one at a time by Python itself.

format_rows lays out each number in a 24-byte cell held as three little-endian
words, by one sequence of word operations for the whole block: the digit
characters of D, the trailing zeros after the point masked off, the digits
after the point shifted up one byte to make room for it, and the sign, point,
leading '0.000' and separator taken from tables indexed by the number's class.

read_tokens is the mirror of format_rows: the value float() gives for each
token of a text, for a block of tokens at a time.  A token -?digits[.digits]
with at most 17 significant digits (every number format_rows writes as an
array) is read as an array: its digits make an
integer N by SWAR arithmetic on 64-bit words, and its value is N / 10**k,
correctly rounded by Clinger's one division where N < 2**53 and otherwise
decided by the same two-product, which gives the exact residual
N - q * 10**k of a quotient q to compare with half the gap to q's neighbours.
Any other spelling is read by float() itself.
"""

from __future__ import annotations

import numpy as np

CHUNK_VALUES = 8192                 # numbers per block: the temporaries stay in cache
REPR_CELL = 24                      # longest repr of a float: '-2.2250738585072014e-308'
_POW10 = 10.0 ** np.arange(23)      # 10**k is exact in binary64 for k <= 22
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# A cell of 24 bytes is three little-endian words: byte j is byte j % 8 of word j // 8.
_LE64 = np.dtype("<u8")
_QUAD_WORDS = ((48 + np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10)
               << np.arange(0, 32, 8)).sum(axis=1).astype(np.uint64)   # "0000" .. "9999"
_FIFTH = np.uint64(0xCCCCCCCCCCCCCCCD)                  # 5 * _FIFTH = 1 mod 2**64
_TENTH = np.uint64((2**64 - 1) // 10)
_1, _32, _63, _64 = (np.uint64(b) for b in (1, 32, 63, 64))


def _veltkamp(a):
    """a = hi + lo exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a             # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)


def _times_pow10(a, k):
    """(p, e) with a * 10**k = p + e exactly and p the rounded product (Dekker)."""
    p = a * _POW10[k]
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _scaled_floor(a, X):
    """(e, floor(e), floor(a * 10**(16 - X))) where a * 10**(16 - X) = p + e exactly.

    The floor (int64) is exact when it lies in [10**16, 10**17), where p is an
    integer; outside that range it still lies outside, so it detects a wrong X.
    """
    p, e = _times_pow10(a, 16 - X)
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


def _words17(D):
    """The 17 digit characters of each D in [0, 10**17) in bytes 3..19 of a cell, as
    its three words (3 x n); bytes 0..2 hold '000' and bytes 20..23 are void."""
    hi = D // 10**8
    lo = (D - hi * 10**8).astype(np.uint32)
    hi = hi.astype(np.uint32)
    q, r = hi // 10000, lo // 10000
    t = q // 10000
    words = np.empty((3, D.size), np.uint64)
    np.bitwise_or(_QUAD_WORDS.take(t), _QUAD_WORDS.take(q - t * 10000) << _32, out=words[0])
    np.bitwise_or(_QUAD_WORDS.take(hi - q * 10000), _QUAD_WORDS.take(r) << _32, out=words[1])
    _QUAD_WORDS.take(lo - r * 10000, out=words[2])
    return words


def _chars17(D):
    """The cells of _words17 as bytes (n x 24 uint8)."""
    return np.ascontiguousarray(_words17(D).T, _LE64).view(np.uint8)


def _tenths(x):
    """(x / 10, whether 10 divides x) for uint64 x; the quotient is exact where it does.

    x * _FIFTH is x / 5 where 5 divides x; rotated right by one bit it is x / 10
    where 10 divides x, and otherwise exceeds (2**64 - 1) / 10.
    """
    r = x * _FIFTH
    r = (r >> _1) | (r << _63)
    return r, r <= _TENTH


def _layouts():
    """(in place, shifted, fill, shift) of every class of value, the tables format_rows
    lays out a cell with: cell = (digits & in place) | ((digits << shift) & shifted) | fill.

    The digits are those of _words17, in bytes 3..19.  A value in [1e-4, 1e17) of
    exponent X (-4..16), sign bit neg and k digits kept (1..17) is class
    34 (X + 4) + 17 neg + k - 1; then come the classes of 0, of -0 and of a value
    written by "%.17g" itself.  The fill is the prefix ('-', and '0.000' for
    X < 0) from byte 0, the point, and the separator ' ' in byte 23.  A prefix of
    more than three bytes moves the digits up by the excess, and a point after
    digit X + 1 moves the digits after it up by one byte.
    """
    X, neg, k = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(-4, 17), (0, 1), np.arange(1, 18), indexing="ij"))
    j = np.arange(24)
    lead = np.maximum(X + 1, 0)                 # digits before the point
    dotted = (X >= 0) & (k > lead)
    prefix = neg + np.where(X < 0, 1 - X, 0)    # bytes of "-0.000"
    shift = np.maximum(prefix - 3, 0) + dotted
    fill = np.where(j < prefix, np.frombuffer(b"-0.000", np.uint8)[
        np.minimum(j + 1 - neg, 5)], np.where(dotted & (j == 3 + lead), 46, 0))
    masks = [(j >= 3) & (j < 3 + np.minimum(k, lead)),
             (j >= 3 + shift + lead) & (j < 3 + shift + k)]
    other = np.frombuffer(b"0".ljust(24, b"\0") + b"-0".ljust(24, b"\0") + bytes(24), np.uint8)
    fill = np.vstack([fill, other.reshape(3, 24)])
    fill[:, 23] = 32
    words = [np.vstack([255 * m, np.zeros((3, 24), int)]) for m in masks] + [fill]
    return [np.ascontiguousarray(w.astype(np.uint8).view(_LE64).T, np.uint64) for w in words] \
        + [np.append(8 * shift.ravel(), [0, 0, 0]).astype(np.uint64)]


_IN_PLACE, _SHIFTED, _FILL, _SHIFT = _layouts()
_ZERO = 21 * 34                             # the class of 0; -0 and "%.17g" follow
_LINE = np.uint64((32 ^ 10) << 56)          # turns the separator of a cell into '\n'


def _cells(a, neg):
    """The cell words (3 x n) of each value of magnitude a in [1e-4, 1e17) and sign bit neg."""
    X, e, f, D = _scaled(a)
    half = f + 0.5
    D += (e > half) | ((e == half) & (D & 1).astype(bool))
    # No carry reaches 10**17: that would need a double within 5e-18 (relative)
    # below a power of ten, and in (1e-6, 1e17) the nearest lies 4.5e-17 away.
    k = np.full(D.size, 17)                     # digits kept: all but trailing zeros ...
    tenth, whole = _tenths(D.view(np.uint64))
    live = np.flatnonzero(whole)
    tenth = tenth[live]
    while live.size:
        k[live] -= 1
        tenth, whole = _tenths(tenth)
        live, tenth = live[whole], tenth[whole]
    np.maximum(k, X + 1, out=k)                 # ... after the point
    c = X * 34 + neg * 17 + k + (4 * 34 - 1)
    words = _words17(D)
    shift = _SHIFT.take(c)
    moved = words << shift                      # the cell as a 192-bit number, shifted
    moved[1:] |= words[:2] >> (_64 - shift)
    for word, up, in_place, shifted, fill in zip(words, moved, _IN_PLACE, _SHIFTED, _FILL):
        word &= in_place.take(c)
        up &= shifted.take(c)
        word |= up
        word |= fill.take(c)
    return words


def format_rows(values: np.ndarray) -> bytes:
    """The bytes of "%.17g" % v for every value: ' ' between values, a newline after each row.

    Each value gets a 24-byte cell of characters padded with void (zero) bytes;
    the voids are dropped once for the whole block.  Values with 1e-4 <= |v| < 1e17
    (written d.ddd or 0.000ddd) are laid out as arrays by one sequence of word
    operations: their 17 digits rounded half-even, the trailing zeros after the
    point masked off, and the prefix, point and separator placed by the tables of
    _layouts.  Exact zeros ("0", "-0" where the sign bit is set) take a fixed cell;
    the other values an empty one, and their text from "%.17g" itself.
    """
    vals = values.ravel()
    mag = np.abs(vals)
    neg = np.signbit(vals)
    fast = (mag >= 1e-4) & (mag < 1e17)
    if fast.all():
        words, slow = _cells(mag, neg), []
    else:                                       # the array values computed apart
        words = np.empty((3, vals.size), np.uint64)
        other = np.where(mag == 0, _ZERO + neg, _ZERO + 2)
        for word, fill in zip(words, _FILL):
            fill.take(other, out=word)
        idx = np.flatnonzero(fast)
        words[:, idx] = _cells(mag[idx], neg[idx])
        slow = np.flatnonzero(~fast & (mag != 0))
    words[2].reshape(values.shape[0], -1)[:, -1] ^= _LINE
    text = words.T.astype(_LE64, copy=False).tobytes()
    if len(slow):
        parts, start = [], 0
        for cut, v in zip((24 * slow).tolist(), vals[slow].tolist()):
            parts += [text[start:cut], b"%.17g" % v]
            start = cut
        parts.append(text[start:])
        text = b"".join(parts)
    return text.translate(None, b"\0")


# The reader's 24-byte windows hold a token right-aligned, as three little-endian
# words (byte j of the window is byte j % 8 of word j // 8); a block of windows
# is laid out word by word, 3 x n.
_WINDOW = 24
_KEEP = (255 * (np.arange(_WINDOW) >= _WINDOW - np.arange(_WINDOW + 1)[:, None])
         ).astype(np.uint8).view(_LE64).T.astype(np.uint64, order="C")  # column L: last L bytes
# word w times 0x01 in its byte i: the top byte is 23 - (8 w + i), the bytes after i
_AFTER = (np.arange(_WINDOW)[::-1].reshape(3, 8)[:, ::-1].astype(np.uint8).copy()
          .view(_LE64).astype(np.uint64))
_ONES = np.uint64(0x0101010101010101)
_MANTISSA = 2**52 - 1


def _digits(words, L):
    """(N, count, k, lead) of windows holding the last L bytes of each token (3 x n
    words, changed in place).

    Each byte that is not a digit is counted; where count is 1 it is taken as the
    point (the caller checks that it is '.'), read as a 0 digit, and k is the
    number of bytes after it.  The eight-digit words give N', the value with the
    point; lead is the first word's, and N' < 10**18 where lead < 100.  N is the
    value without the point: with f = N' mod 10**k, N = (N' - f) / 10 + f.
    Exact for the tokens the caller keeps: one point at most and lead < 100.
    """
    words ^= np.uint64(0x3030303030303030)              # digits -> 0..9
    words &= _KEEP.take(L, axis=1)
    # 0x80 in each byte >= 10: a byte < 0x8a has no carry out, a byte >= 0x80
    # marks itself, and a carry only ever marks a byte, never unmarks one
    odd = ((words + np.uint64(0x7676767676767676)) | words) & np.uint64(0x8080808080808080)
    odd >>= np.uint64(7)
    words -= odd * np.uint64(0x1E)                      # '.' ^ '0' -> 0
    places = odd * _AFTER                               # top byte: bytes after the odd one
    count = ((odd[0] + odd[1] + odd[2]) * _ONES) >> np.uint64(56)
    k = (places[0] + places[1] + places[2]) >> np.uint64(56)
    # eight digits per word (first digit in the low byte): pairs, fours, eight
    words = (words * np.uint64(1 + (10 << 8))) >> np.uint64(8)
    words = ((words & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(1 + (100 << 16))) >> np.uint64(16)
    words = ((words & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(1 + (10000 << 32))) >> np.uint64(32)
    N = words[0] * np.uint64(10**16) + words[1] * np.uint64(10**8) + words[2]
    count, k = count.view(np.int64), k.view(np.int64)
    # without a point, f = N' (modulus 10**18) and N = N'
    f = N % np.take(_POW10_INT, k + 18 * (count == 0), mode="clip").view(np.uint64)
    N = ((N - f) >> np.uint64(1)) * _FIFTH + f        # (N' - f) / 10, exact
    return N.view(np.int64), count, k, words[0]


def _nearest_quotients(q, N, k, live):
    """Round q[live] ~ N / 10**k to the binary64 nearest the exact quotient, ties to
    even, in place; N in [2**53, 10**17), k <= 22.

    With q * 10**k = p + e exactly, p is an integer and the residual N - q * 10**k
    is the integer N - p less e: s + t as a two-sum.  q is nearest when that
    residual lies within half the gap to each neighbour times 10**k (both exact:
    gaps are powers of two).  s - half gap is exact where the two are within a
    factor of 2 (Sterbenz), and elsewhere outweighs t, so the tests below have
    the sign of the exact differences and are 0 only where those are.  q moves
    one neighbour at a time until it stays.
    """
    while live.size:
        qi, ki = q[live], k[live]
        p, e = _times_pow10(qi, ki)
        d = (N[live] - p.astype(np.int64)).astype(np.float64)
        s = d - e
        z = s - d
        t = (d - (s - z)) - (e + z)
        bits = qi.view(np.int64)
        half = 0.5 * _POW10[ki]
        up = (s - ((bits + 1).view(np.float64) - qi) * half) + t
        down = (s + (qi - (bits - 1).view(np.float64)) * half) + t
        odd = (bits & 1).astype(bool)
        step = ((up > 0) | ((up == 0) & odd)).astype(np.int64) \
            - ((down < 0) | ((down == 0) & odd))
        q[live] = (bits + step).view(np.float64)
        live = live[step != 0]


def _read_block(text, windows, ends, lengths):
    """(values, fits) of a block of tokens: values[fits] are the strict tokens' floats."""
    L = np.where((lengths <= _WINDOW) & (ends >= _WINDOW), lengths, 0)
    neg = text.take(ends - L, mode="clip") == 45
    words = windows[np.maximum(ends - _WINDOW, 0)].view(_LE64).reshape(-1, 3).T.astype(
        np.uint64, order="C")
    N, count, k, lead = _digits(words, L - neg)
    fits = ((L - count - neg > 0) & (count <= 1) & (k <= 22) & (lead < 100) & (N < 10**17)
            & ((count == 0) | (text.take(ends - k - 1, mode="clip") == 46)))
    k = np.minimum(k, 22)
    P = _POW10[k]
    values = N.astype(np.float64) / P                   # nearest where N < 2**53
    close = np.flatnonzero(fits & (N >= 2**53))
    if close.size:
        # x: the residual N - q * 10**k in ulps of q times 10**k, good to 1e-15; q moves
        # by the nearest whole number of ulps unless x is near a half (or q near a
        # power of two, where the ulp changes)
        q = values[close]
        p, e = _times_pow10(q, k[close])
        bits = q.view(np.int64)
        x = ((N[close] - p.astype(np.int64)).astype(np.float64) - e) \
            / (((bits + 1).view(np.float64) - q) * P[close])
        j = np.rint(x)
        values[close] = (bits + j.astype(np.int64)).view(np.float64)
        unsure = (np.abs(x - j) > 0.49) | ((bits + 4) & _MANTISSA < 8)
        _nearest_quotients(values, N, k, close[unsure])
    values.view(np.int64)[:] |= neg.astype(np.int64) << 63         # the sign, -0 included
    return values, fits


def read_tokens(data: bytes, ends: np.ndarray, lengths: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """float() of every token data[end - length:end].

    Returns (values, failed): failed holds the indices of the tokens float()
    rejects, whose values are nan.  A token of the strict form -?digits[.digits],
    with at most 17 significant digits and at most 22 after the point, is read
    as an array, a CHUNK_VALUES block at a time: gathered right-aligned into a
    24-byte window, its digits become the integer N and its value is N / 10**k,
    Clinger's one correctly rounded division where N < 2**53, and otherwise
    that quotient moved to the nearest double by a residual test, which
    _nearest_quotients settles exactly where the test's 1% margin does not.
    Every other token is read by float().
    """
    text = np.frombuffer(data.ljust(_WINDOW), np.uint8)  # room for one window at least
    windows = np.ndarray((text.size - _WINDOW + 1,), f"V{_WINDOW}", text, strides=(1,))
    values = np.empty(ends.size)
    fits = np.empty(ends.size, bool)
    for c in range(0, ends.size, CHUNK_VALUES):
        block = slice(c, c + CHUNK_VALUES)
        values[block], fits[block] = _read_block(text, windows, ends[block], lengths[block])
    slow = np.flatnonzero(~fits)
    read = [_float(data[end - length:end])
            for end, length in zip(ends[slow].tolist(), lengths[slow].tolist())]
    values[slow] = [np.nan if value is None else value for value in read]
    return values, slow[[value is None for value in read]]


def _float(token: bytes):
    """float() of a token's UTF-8 text, or None where float() rejects it."""
    try:
        return float(token.decode())
    except ValueError:
        return None


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
