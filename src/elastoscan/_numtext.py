"""Decimal text of binary64 values at array speed, byte for byte Python's own.

Two formats, each computed for a block of values with exact array arithmetic:

* format_rows: the bytes of "%.17g" % x (the numbers of MSR/1 files);
* repr_words: the bytes of repr(x), the shortest decimal string that reads
  back to x, nearest to x among the shortest (the numbers of CSV fields).

Both rest on one exact scaling.  For 1e-6 < |x| < 1e17 the decimal exponent X
lies in -6..16, so 10**(16 - X) is exact in binary64 and Dekker's two-product
gives |x| * 10**(16 - X) = p + e exactly; p >= 2**53 is an integer, so the
scaled value is D + frac with the 17-digit integer D = p + floor(e) and
0 <= frac = e - floor(e) < 1, both exact.  format_rows takes the array path for
1e-4 <= |x| < 1e17, where "%.17g" writes d.ddd or 0.000ddd, repr for
1e-6 < |x| < 1e17, and both for 0 and -0.  Every other value (subnormals, tiny
values, |x| >= 1e17, non-finite) is formatted one at a time by Python itself.

Both lay out each number in a 24-byte cell held as three little-endian words,
by one sequence of word operations for the whole block: the 17 digit
characters of the integer to show, the digits past the last one shown masked
off, the digits after the point shifted up one byte to make room for it, and
the sign, point, leading '0.000', repr's exponent suffix and the separator
taken from tables indexed by the number's class (_layouts).

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
_POW10 = 10.0 ** np.arange(23)      # 10**k is exact in binary64 for k <= 22
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
_POW5_INT = 5 ** np.arange(23, dtype=np.int64)
_MANTISSA = 2**52 - 1
# A cell of 24 bytes is three little-endian words: byte j is byte j % 8 of word j // 8.
_LE64 = np.dtype("<u8")
_QUAD_WORDS = ((48 + np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10)
               << np.arange(0, 32, 8)).sum(axis=1).astype(np.uint64)   # "0000" .. "9999"
_PAIR_WORDS = _QUAD_WORDS[:100] >> np.uint64(16)                       # "00" .. "99"
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
    p = a * _POW10.take(k)
    a_hi, a_lo = _veltkamp(a)
    b_hi, b_lo = _POW10_HI.take(k), _POW10_LO.take(k)
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


def _digit_words(D):
    """The 17 digit characters of each D in [0, 10**17) in bytes 1..17 of a cell, as
    its three words (3 x n); byte 0 holds '0' and bytes 18..23 are void."""
    h = D // 100
    hi = h // 10**8                             # the first seven digits
    mid = (h - hi * 10**8).astype(np.uint32)    # the next eight
    hi = hi.astype(np.uint32)
    q, r = hi // 10000, mid // 10000
    words = np.empty((3, D.size), np.uint64)
    np.bitwise_or(_QUAD_WORDS.take(q), _QUAD_WORDS.take(hi - q * 10000) << _32, out=words[0])
    np.bitwise_or(_QUAD_WORDS.take(r), _QUAD_WORDS.take(mid - r * 10000) << _32, out=words[1])
    words[2] = _PAIR_WORDS.take(D - h * 100)
    return words


def _tenths(x):
    """(x / 10, whether 10 divides x) for uint64 x; the quotient is exact where it does.

    x * _FIFTH is x / 5 where 5 divides x; rotated right by one bit it is x / 10
    where 10 divides x, and otherwise exceeds (2**64 - 1) / 10.
    """
    r = x * _FIFTH
    r = (r >> _1) | (r << _63)
    return r, r <= _TENTH


def _trailing_zeros(x):
    """The number of trailing decimal zeros of each x in (0, 2**64)."""
    zeros = np.zeros(x.size, np.int64)
    tenth, whole = _tenths(x.view(np.uint64))
    live = np.flatnonzero(whole)
    tenth = tenth[live]
    while live.size:
        zeros[live] += 1
        tenth, whole = _tenths(tenth)
        live, tenth = live[whole], tenth[whole]
    return zeros


def _layouts(shortest: bool):
    """(in place, shifted, fill, shift, end) of every class of value: the tables a cell
    is laid out with, cell = (digits & in place) | ((digits << shift) & shifted) | fill,
    and the byte after the last one of the cell's text.

    The digits are those of _digit_words, in bytes 1..17, of the integer whose
    leading n digits (1..17) are the value's significant ones.  For "%.17g"
    (shortest false) a value in [1e-4, 1e17) of exponent X (-4..16) and sign bit
    neg is class 34 (X + 4) + 17 neg + n - 1, and the digits before the point are
    all shown.  For repr (shortest true) X runs from -6 and the class is
    34 (X + 6) + 17 neg + n - 1; repr writes d.ddd positionally for
    -4 <= X < 16, with ".0" after an integer, and d.ddde-05 / de+16 otherwise.
    Then come the classes of 0, of -0 and of a value written one at a time.

    The fill is the prefix ('-', and '0.000' for a positional X < 0) from byte 0,
    the point, repr's exponent suffix after the last digit, and the separator:
    ' ' in byte 23 for "%.17g", and for repr '\\n' right after the text (the end
    of a CSV line; alone in the cell of a value written one at a time, whose text
    goes before it).  A prefix of more than one byte moves the digits up by the
    excess, and a point after the digits before it moves the digits after it up
    by one byte.
    """
    low = -6 if shortest else -4
    X, neg, n = (a.reshape(-1, 1) for a in np.meshgrid(
        np.arange(low, 17), (0, 1), np.arange(1, 18), indexing="ij"))
    j = np.arange(24)
    sci = shortest & ((X < -4) | (X > 15))
    lead = np.where(sci, 1, np.maximum(X + 1, 0))           # digits before the point
    shown = np.maximum(n, lead + (shortest & ~sci & (X >= 0)))
    dotted = ((X >= 0) | sci) & (shown > lead)
    prefix = neg + np.where(~sci & (X < 0), 1 - X, 0)      # bytes of "-0.000"
    shift = np.maximum(prefix - 1, 0) + dotted
    end = 1 + shift + shown                                 # the byte after the last digit
    suffix = np.frombuffer(b"".join(b"e%+03d" % x for x in X.ravel().tolist()), np.uint8)
    fill = np.where(j < prefix, np.frombuffer(b"-0.000", np.uint8)[np.minimum(j + 1 - neg, 5)],
                    np.where(dotted & (j == 1 + lead), 46, 0))
    suffix = suffix.reshape(-1, 4)[np.arange(len(X))[:, None], np.clip(j - end, 0, 3)]
    fill = np.where(sci & (j >= end) & (j < end + 4), suffix, fill)
    masks = [(j >= 1) & (j < 1 + np.minimum(shown, lead)),
             (j >= 1 + shift + lead) & (j < end)]
    if shortest:                                # '\n' after the text
        fill = np.where(j == end + 4 * sci, 10, fill)
        other = (b"0.0\n", b"-0.0\n", b"\n")
    else:                                       # ' ' in byte 23
        fill[:, 23] = 32
        other = (b"0".ljust(23, b"\0") + b" ", b"-0".ljust(23, b"\0") + b" ", bytes(23) + b" ")
    fill = np.vstack([fill, np.frombuffer(b"".join(o.ljust(24, b"\0") for o in other), np.uint8)
                      .reshape(3, 24)])
    words = [np.vstack([255 * m, np.zeros((3, 24), int)]) for m in masks] + [fill]
    text = (words[0] | words[1] | words[2]) != 0
    return [np.ascontiguousarray(w.astype(np.uint8).view(_LE64).T, np.uint64) for w in words] \
        + [np.append(8 * shift.ravel(), [0, 0, 0]).astype(np.uint64),
           24 - np.argmax(text[:, ::-1], axis=1)]


_FIXED = _layouts(False)                    # "%.17g"
_SHORTEST = _layouts(True)                  # repr
_FIXED_ZERO, _SHORTEST_ZERO = 21 * 34, 23 * 34   # the class of 0; -0 and the others follow
_LINE = np.uint64((32 ^ 10) << 56)          # turns the separator of a cell into '\n'


def _laid_out(D, c, tables, out):
    """Write the cell words (3 x n) of the digits of each D in [0, 10**17), laid out in
    its class c, to out."""
    in_place, shifted, fill, shift, _ = tables
    words = _digit_words(D)
    shift = shift.take(c)
    moved = words << shift                      # the cell as a 192-bit number, shifted
    moved[1:] |= words[:2] >> (_64 - shift)
    for word, up, keep, keep_up, put, dest in zip(words, moved, in_place, shifted, fill, out):
        word &= keep.take(c)
        up &= keep_up.take(c)
        word |= up
        np.bitwise_or(word, put.take(c), out=dest)


def _fixed_cells(a, neg, out):
    """Write the "%.17g" cell words (3 x n) of each value of magnitude a in [1e-4, 1e17)
    and sign bit neg to out; return their classes."""
    X, e, f, D = _scaled(a)
    half = f + 0.5
    D += (e > half) | ((e == half) & (D & 1).astype(bool))
    # No carry reaches 10**17: that would need a double within 5e-18 (relative)
    # below a power of ten, and in (1e-6, 1e17) the nearest lies 4.5e-17 away.
    c = X * 34 + neg * 17 + (4 * 34 + 16) - _trailing_zeros(D)
    _laid_out(D, c, _FIXED, out)
    return c


def _shortest_cells(a, neg, out):
    """Write the repr cell words (3 x n) of each value of magnitude a in (1e-6, 1e17) and
    sign bit neg to out; return their classes."""
    R, n, X = _shortest(a)
    c = X * 34 + neg * 17 + n + (6 * 34 - 1)
    _laid_out(R, c, _SHORTEST, out)
    return c


def _block(vals, mag, fast, cells, tables, zero, out):
    """Write the cell words (3 x n) of every value to out: those of the fast ones by
    cells(magnitude, sign bit, out), those of zeros from their classes, and the others
    void but for the fill of the class zero + 2.  Returns (classes, slow): the class
    of every value and the indices of the others."""
    neg = np.signbit(vals)
    if fast.all():
        return cells(mag, neg, out), np.empty(0, np.intp)
    classes = np.where(mag == 0, zero + neg, zero + 2)
    for dest, fill in zip(out, tables[2]):
        dest[...] = fill.take(classes)
    idx = np.flatnonzero(fast)
    words = np.empty((3, idx.size), np.uint64)
    classes[idx] = cells(mag[idx], neg[idx], words)
    out[:, idx] = words
    return classes, np.flatnonzero(~fast & (mag != 0))


def insert_texts(text: bytes, at, texts) -> bytes:
    """text with each of texts inserted before its byte offset at (ascending)."""
    if not len(at):
        return text
    parts, start = [], 0
    for cut, piece in zip(np.asarray(at).tolist(), texts):
        parts += [text[start:cut], piece]
        start = cut
    parts.append(text[start:])
    return b"".join(parts)


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
    cells = np.empty((vals.size, 3), _LE64)
    _, slow = _block(vals, mag, (mag >= 1e-4) & (mag < 1e17), _fixed_cells, _FIXED,
                     _FIXED_ZERO, cells.T)
    cells[:, 2].reshape(values.shape[0], -1)[:, -1] ^= _LINE
    text = insert_texts(cells.tobytes(), 24 * slow, [b"%.17g" % v for v in vals[slow].tolist()])
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


def _shortest(a):
    """Shortest round-trip digits of each a in (1e-6, 1e17).

    A decimal value reads back to a when it lies in a's rounding interval: within
    half the gap to each neighbouring double (the gap below is half as wide where
    the mantissa is 0), an end included when the mantissa is even (reading rounds
    ties to even).  In the exact scaled form a * 10**(16 - X) = D + frac, the
    n-digit decimals are the multiples of 10**(17 - n), and repr keeps, of the
    fewest digits that land in the interval, the candidate nearest D + frac (of
    two as near, the one with an even last digit).

    The search is done once, without trying length after length.  D + frac, the
    half gaps and 1 are all whole multiples of u = 2**-52, so the least and
    greatest integers in the interval, low and high, follow from integer
    arithmetic in units of u: one subtraction or addition and one arithmetic
    shift by 52.  The interval is less than 23 wide and more than 1 (each half
    gap exceeds 1/2), so:

    * a multiple of 100 in [low, high] is the only one, high // 100 * 100, and
      its trailing zeros give the fewest digits;
    * else, with a multiple of 10 in it, the multiple of 10 nearest D + frac is
      kept, or where that one lies outside (only the unequal half gaps at a
      power of two allow it), its neighbour on the other side of D + frac;
    * else D + frac rounded half-even, always inside, takes all 17 digits.

    Returns (R, n, X): the digits are the n leading ones of the 17-digit integer
    R (10**17 carried back to 10**16, with X raised by one), and a is shown as
    d.ddd * 10**X.
    """
    X, e, f, D = _scaled(a)
    frac = e - f
    bits = a.view(np.int64)
    k = 16 - X
    # a * 10**k is the mantissa times 5**k * 2**(E + 2), E >= -52, so frac, the half
    # gaps and 1 are whole multiples of u = 2**-52; the half gap above is
    # 5**k * 2**(E + 1), below it half that where the mantissa is 0
    up = _POW5_INT.take(k) << ((bits >> 52) + (k - 1024))     # E + 53 = exponent + k - 1
    down = up >> ((bits & _MANTISSA) == 0).view(np.int8)
    odd = bits & 1                                  # an odd mantissa leaves the ends out
    up -= odd
    down -= odd
    fr = (frac * 2.0**52).astype(np.int64)
    down -= fr
    up += fr
    low = D - (down >> 52)
    high = D + (up >> 52)
    hundreds = high // 100
    tens = high // 10
    ten = tens * 10
    fr += fr                                        # frac in units of u / 2
    # below: the multiple of 10 nearest D + frac is ten - 10, not ten: ten - D - frac > 5,
    # or = 5 with an odd tens digit (in units of u / 2, plus the digit's parity)
    below = (((ten - D) << 53) - fr + (tens & 1)) > (5 << 53)
    below &= ten - low >= 10                        # ... and ten - 10 lies inside
    # without a multiple of 10 inside, D + frac rounded half-even
    np.subtract(ten, 10, out=ten, where=below)
    tenth = ten >= low
    R = np.where(tenth, ten, D + ((fr + (D & 1)) > 2**52))
    n = 17 - tenth
    ten = hundreds * 100
    inside = ten >= low
    np.copyto(R, ten, where=inside)
    hundred = np.flatnonzero(inside)
    n[hundred] = 15 - _trailing_zeros(hundreds[hundred])
    carry = hundred[n[hundred] == 0]
    R[carry], n[carry], X[carry] = 10**16, 1, X[carry] + 1
    return R, n, X


def repr_words(values: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Write the bytes of repr(v) and a newline for every value to out, as a 24-byte
    cell padded with void (zero) bytes held as three little-endian words (out is
    3 x n).  Returns (ends, slow): the byte after each cell's newline, and the
    indices of the values whose text is left out, for repr itself to write before
    their newline (alone in byte 0).

    Values with 1e-6 < |v| < 1e17 are laid out as arrays by one sequence of word
    operations: the shortest digits (_shortest), the point, the prefix and repr's
    exponent suffix placed by the tables of _layouts, positional d.ddd for
    1e-4 <= |v| < 1e16 with ".0" after an integer, d.ddde-05 / de+16 otherwise.
    The text starts in byte 0, or in byte 1 where it begins with a digit other
    than that of '0.000ddd'.  Zeros take the fixed cells of "0.0" and "-0.0";
    subnormals, tiny values, |v| >= 1e17 and non-finite values are left to repr.
    """
    vals = np.asarray(values, np.float64).ravel()
    mag = np.abs(vals)
    classes, slow = _block(vals, mag, (mag > 1e-6) & (mag < 1e17), _shortest_cells, _SHORTEST,
                           _SHORTEST_ZERO, out)
    return _SHORTEST[4].take(classes), slow       # the table of the byte after the text
