"""The text of float64 arrays, byte for byte what `repr` gives each number.

`repr_bytes(a)` returns one row of bytes per number of `a` (C order) whose
nonzero bytes are the number's `repr`: the shortest decimal that reads back to
the same double, the closest such decimal when several qualify, ties to an
even last digit, laid out as `float.__repr__` lays it out.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020) in uint64 arithmetic.  For a double v = c 2^q it picks k with
10^k <= 2^q, gets v and the ends of its rounding interval times 10^-k from a
126-bit g(k) ~ 10^-k 2^(125 - e(k)), and tries the multiples of ten next to
floor(v 10^-k) before that number's own neighbours.  Subnormals, infinities
and NaNs take `float.__repr__`: for the smallest subnormals one digit shorter
than floor(v 10^-k) is not short enough.

The text is one gather.  Each row's alphabet is its sign (a zero byte when
positive), its 17 digits and the characters "0123456789.-e+", and one
template of indices into that alphabet serves every number with the same
digit count and decimal point.  The 617 g(k) and the templates are built on
first use, never at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

K_MIN, K_MAX = -324, 292            # floor(log10 2^q) over normal q
WIDTH = 24                          # len(repr(-2.2250738585072014e-308))
# A row's alphabet: its sign (or a zero byte), two zero bytes, its 17
# digits, then the characters every row shares.
_SIGN, _PAD, _FIRST = 0, 1, 3
_SHARED = b"0123456789.-e+\0\0"
_ROW = _FIRST + 17 + len(_SHARED)
_CHAR = {ch: _FIRST + 17 + i for i, ch in enumerate("0123456789.-e+")}
_FIXED = range(-3, 17)              # decimal points `repr` writes without exponent
_DECPTS = range(-310, 311)          # decimal points of normal doubles and zero
_M32 = np.uint64(0xFFFFFFFF)
_M63 = np.uint64((1 << 63) - 1)
_C_MIN = np.uint64(1 << 52)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
CHUNK = 16384                       # numbers per pass: its temporaries stay in cache


@cache
def _table():
    """g(k) = floor(10^-k 2^(125 - e)) + 1 with e = floor(log2 10^-k): the
    high part g1 = g >> 63, the 32-bit halves of g1 and of g0 = g mod 2^63,
    and e."""
    rows = []
    for k in range(K_MIN, K_MAX + 1):
        p = 10 ** abs(k)
        if k <= 0:
            e = p.bit_length() - 1
            g = (p << 125 - e if e <= 125 else p >> e - 125) + 1
        else:  # 10^k is no power of two, so floor(-log2 10^k) = -bit_length
            e = -p.bit_length()
            g = (1 << 125 - e) // p + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        rows.append((g1, g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF, e))
    cols = np.array(rows, dtype=np.int64).T
    return cols[:5].astype(np.uint64), cols[5]


@cache
def _quads():
    """The four ASCII digits of 0..9999 as one uint32 each, in text order."""
    q = np.arange(10000)
    return (np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
            .astype(np.uint8) + ord("0")).view(np.uint32).ravel()


@cache
def _templates():
    """Template rows by (decimal point, digit count), their lengths, and
    which are built so far."""
    keys = len(_DECPTS) * 18
    return (np.full((keys, WIDTH), _PAD, dtype=np.uint8), np.zeros(keys, dtype=np.intp),
            np.zeros(keys, dtype=bool))


def _template(decpt: int, nd: int) -> list:
    """Alphabet indices of the text `repr` writes for nd digits with the
    decimal point decpt places right of the first digit's left edge."""
    digits = list(range(_FIRST, _FIRST + nd))
    zero, dot = _CHAR["0"], _CHAR["."]
    if decpt not in _FIXED:
        exp = decpt - 1
        seq = [digits[0], *([dot, *digits[1:]] if nd > 1 else []),
               _CHAR["e"], _CHAR["-" if exp < 0 else "+"],
               *(_CHAR[ch] for ch in f"{abs(exp):02d}")]
    elif decpt <= 0:
        seq = [zero, dot, *[zero] * -decpt, *digits]
    elif decpt < nd:
        seq = [*digits[:decpt], dot, *digits[decpt:]]
    else:
        seq = [*digits, *[zero] * (decpt - nd), dot, zero]
    return [_SIGN, *seq]


def _mulhi(ah, al, bh, bl):
    """High 64 bits of the product of two uint64 given as 32-bit halves."""
    hl, lh = ah * bl, al * bh
    mid = (al * bl >> 32) + (hl & _M32) + (lh & _M32)
    return ah * bh + (hl >> 32) + (lh >> 32) + (mid >> 32)


def _rop(g, cp):
    """floor(g cp / 2^127), its last bit set when the quotient is inexact."""
    g1, g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _M32
    z = (g1 * cp >> 1) + _mulhi(g0h, g0l, ch, cl)
    return _mulhi(g1h, g1l, ch, cl) + (z >> 63) | (z & _M63) + _M63 >> 63


def _digits(mag):
    """(d, k) with d 10^k the shortest correctly rounded decimal of each
    positive normal double, given by its bits."""
    g, e_of_k = _table()
    bq = (mag >> 52).astype(np.int64)
    c = mag & (_C_MIN - 1)
    # below v = 2^52 2^q the interval is half as wide: k = floor(log10 (3/4) 2^q)
    regular = (c != 0) | (bq == 1)
    c |= _C_MIN
    q = bq - 1075
    k = q * 661_971_961_083 + np.where(regular, 0, -274_743_187_321) >> 41
    g = g[:, k - K_MIN]
    h = (q + e_of_k[k - K_MIN] + 2).astype(np.uint64)
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - np.where(regular, 2, 1).astype(np.uint64) << h)
    vbr = _rop(g, cb + 2 << h)
    out = c & 1  # the interval's ends belong to it when c is even
    s = vb >> 2  # >= 2^52, so the shorter candidates always exist
    sp10 = s // 10 * 10
    t = s + 1
    upin = vbl + out <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    mid = (s << 2) + 2
    lower = (vb < mid) | (vb == mid) & (s & 1 == 0)
    d = np.where(uin != win, np.where(uin, s, t), np.where(lower, s, t))
    return np.where(upin != wpin, np.where(upin, sp10, sp10 + 10), d), k


def _text(bits):
    """The `repr_bytes` rows of the doubles with the given uint64 bits."""
    n = bits.size
    mag = bits & _M63
    bq = mag >> 52
    fallback = np.flatnonzero((bq == 0x7FF) | (bq == 0) & (mag != 0))
    zero = np.flatnonzero(mag == 0)
    mag[fallback] = mag[zero] = 0x3FF0000000000000  # 1.0 stands in
    d, k = _digits(mag)
    n_digits = np.searchsorted(_POW10, d, side="right")
    d17 = d * _POW10[17 - n_digits]
    decpt = n_digits + k
    d17[zero], decpt[zero] = 0, 1
    # the 17 digits as 1 + 4 x 4, each group's ASCII from one table lookup;
    # the first digit lands at _FIRST after its group's three leading zeros
    alpha = np.empty((n, _ROW // 4), dtype=np.uint32)
    head, last8 = np.divmod(d17, np.uint64(10**8))
    first, next8 = np.divmod(head.astype(np.uint32), np.uint32(10**8))
    last8 = last8.astype(np.uint32)
    quads = _quads()
    for col, x in enumerate((first, next8 // 10**4, next8 % 10**4, last8 // 10**4, last8 % 10**4)):
        alpha[:, col] = quads[x]
    alpha[:, 5:] = np.frombuffer(_SHARED, dtype=np.uint32)
    chars = alpha.view(np.uint8)
    chars[:, _SIGN] = np.where(bits >> 63 == 1, ord("-"), 0)
    chars[:, _PAD] = 0
    nd = 17 - np.argmax(chars[:, _FIRST + 16:_FIRST - 1:-1] != ord("0"), axis=1)
    nd[zero] = 1
    key = (decpt - _DECPTS.start) * 18 + nd
    table, length, built = _templates()
    for kk in set(key[~built[key]].tolist()):
        seq = _template(_DECPTS[kk // 18], int(kk % 18))
        table[kk, :len(seq)], length[kk], built[kk] = seq, len(seq), True
    width = max(length[key].max(), WIDTH if fallback.size else 0)
    index = np.add(table[:, :width][key], np.arange(0, n * _ROW, _ROW)[:, None], dtype=np.intp)
    text = chars.ravel().take(index)
    if fallback.size:
        special = [float.__repr__(x).encode().ljust(WIDTH, b"\0")
                   for x in bits[fallback].view(np.float64)]
        text[fallback] = np.frombuffer(b"".join(special), dtype=np.uint8).reshape(-1, WIDTH)
    return text


def _chunks(bits):
    """`_text` of `CHUNK` numbers at a time."""
    text = np.zeros((bits.size, WIDTH), dtype=np.uint8)
    width = 0
    for i in range(0, bits.size, CHUNK):
        part = _text(bits[i:i + CHUNK])
        text[i:i + len(part), :part.shape[1]] = part
        width = max(width, part.shape[1])
    return text[:, :width]


def repr_bytes(a) -> np.ndarray:
    """(a.size, w) uint8, w <= WIDTH: one row per number of `a` in C order,
    whose nonzero bytes are the number's `repr`.  A column that repeats
    bit patterns (f and h repeat along grid lines) formats each distinct
    pattern once: patterns are told apart by their bits, never by value, so
    0.0 and -0.0 keep their own text."""
    bits = np.ravel(np.asarray(a, dtype=np.float64)).view(np.uint64)
    ordered = np.sort(bits)
    if 2 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > bits.size:
        return _chunks(bits)
    distinct, inverse = np.unique(bits, return_inverse=True)
    return _chunks(distinct)[inverse]
