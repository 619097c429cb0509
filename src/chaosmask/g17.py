"""``'%.17g' % x`` for whole float64 arrays, exact, in numpy integer arithmetic.

The seventeen digits that ``%.17g`` prints are ``N = round_half_even(|x| *
10**k)`` with ``k = 16 - E`` and ``E = floor(log10|x|)``.  With ``x = m *
2**q`` (``m`` the 53-bit significand) that is ``m * 5**k * 2**(q + k)``: an
integer product, shifted right.  :func:`g17_rows` forms the product from
the 32-bit halves of ``m`` and 32-bit limbs of a tabulated ``5**k`` held in
``uint64``, keeps the bit below the shift (round) and whether any bit below
that is set (sticky), and rounds half to even.  ``E`` comes from
``floor(log10|x|)`` and is corrected where the product shows it off by one;
a carry to ``10**17`` bumps it.

The text is laid out in fixed columns (:data:`ROW` bytes per value): a
separator, a sign, ``0.``, the digits once from ``d0`` and once from ``d1``
with a decimal point between the two copies, and ``e-XX``.  Which columns a
value prints depends only on its layout (decimal exponent, digit count after
stripping trailing zeros, sign), so one boolean row per layout selects
them, and :func:`join_rows` turns rows of values into CSV lines with one
boolean selection.

The fast path covers normal numbers with ``2**-249 <= |x| < 2**50``, where
``k`` lies in ``[1, 92]`` and the shift is to the right.  Zeros are laid out
directly; NaN, infinities, subnormals and the rest of the range are
formatted one value at a time by ``%.17g`` itself.
"""

from __future__ import annotations

import functools
import types

import numpy as np

# Every uint64 operation below takes np.uint64 operands only, and Python ints
# meet signed arrays only, so no result depends on numpy's scalar promotion
# rules (NEP 50 or the value-based rules before numpy 2).
_U = np.uint64
_ZERO, _ONE, _B32, _B63 = _U(0), _U(1), _U(32), _U(63)
_LOW32 = _U(0xFFFFFFFF)
_FRAC = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_EXP_MASK = _U(0x7FF)
_P16, _P17 = _U(10 ** 16), _U(10 ** 17)
_P17_MINUS_P16 = _U(10 ** 17 - 10 ** 16)

#: Biased binary exponents of the fast path: ``2**-249 <= |x| < 2**50``.
_BIASED_LO, _BIASED_HI = _U(1023 - 249), _U(1023 + 50)
#: Decimal exponents of the fast path (after the carry) and the largest ``k``.
_E_MIN, _E_MAX = -75, 15
_K_MAX = 16 - _E_MIN + 1
#: Values that :func:`g17_rows` formats at a time, which bounds its
#: temporaries (about 0.18 kB a value, 1.5 MB a piece).  On 40 000 normal
#: values (2-core host, min of 15 calls) a value took 112 ns with pieces of
#: 2 048 values, 90 ns with 4 096, 77 ns with 8 192 and 109 ns with 16 384.
_PIECE = 8192

# Row columns, in 4-byte words: ",-0." | "000" d0..d16 | "." | d1..d16 | "e-XX".
ROW = 48
_SEP_COL, _SIGN_COL, _ZERO_COL = 0, 1, 2
_D0_COL = 7          # d_j at 7 + j, after three zeros
_DOT_COL = 24
_D1_COL = 28         # d_j at 27 + j for j >= 1
_EXP_COL = 44

#: Layout indices: ``((E - _E_MIN) * 17 + D - 1) * 2 + negative`` for the fast
#: path, then ``0``/``-0``, then text of length ``1 .. _FALLBACK_MAX`` from
#: column ``_SIGN_COL``.
_N_FAST = (_E_MAX - _E_MIN + 1) * 17 * 2
_ZERO_LAYOUT = _N_FAST
_FALLBACK_LAYOUT = _N_FAST + 2
_FALLBACK_MAX = 24   # len("-2.2250738585072014e-308")


def _layouts() -> np.ndarray:
    """One boolean row of :data:`ROW` columns per layout."""
    e = np.repeat(np.arange(_E_MIN, _E_MAX + 1), 34)
    d = np.tile(np.repeat(np.arange(1, 18), 2), _E_MAX - _E_MIN + 1)
    neg = np.tile(np.arange(2), _N_FAST // 2)
    fixed, below_one = e >= -4, e < 0
    lead = fixed & below_one                          # 0.000ddd
    before = np.where(fixed & ~below_one, e + 1, 1)   # digits before the point
    point = (d > before) & ~lead
    spans = [  # (first, stop) columns
        (_SIGN_COL, _SIGN_COL + neg),
        (_ZERO_COL, np.where(lead, _ZERO_COL + 2, _ZERO_COL)),
        (np.where(lead, _D0_COL + e + 1, _D0_COL), _D0_COL + np.where(lead, d, before)),
        (_DOT_COL, np.where(point, _DOT_COL + 1, _DOT_COL)),
        (_D1_COL - 1 + before, np.where(point, _D1_COL - 1 + d, 0)),
        (_EXP_COL, np.where(fixed, _EXP_COL, _EXP_COL + 4)),
    ]
    cols = np.arange(ROW)
    fast = np.zeros((_N_FAST, ROW), bool)
    for first, stop in spans:
        fast |= (cols >= np.reshape(first, (-1, 1))) & (cols < np.reshape(stop, (-1, 1)))
    zero = np.zeros((2, ROW), bool)
    zero[:, _ZERO_COL] = True
    zero[1, _SIGN_COL] = True
    fallback = (cols >= _SIGN_COL) & (cols < _SIGN_COL + np.arange(1, _FALLBACK_MAX + 1)[:, None])
    table = np.vstack([fast, zero, fallback])
    table[:, _SEP_COL] = True
    return table


def _ascii_words(codes: np.ndarray) -> np.ndarray:
    """Rows of four byte values as one little-endian uint32 each."""
    return np.ascontiguousarray(codes.astype(np.uint8)).view("<u4").ravel()


@functools.cache
def _tables() -> types.SimpleNamespace:
    """The lookup tables, built on first use (about 3 ms) rather than on import."""
    pow5 = [5 ** k for k in range(_K_MAX + 1)]
    q = np.arange(10000)
    digits = _ascii_words(np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], 1) + 48)
    trailing = ((q % 10 == 0).astype(np.uint64) + (q % 100 == 0) + (q % 1000 == 0)
                + (q == 0)).astype(np.uint64)
    e = -np.arange(_E_MIN, _E_MAX + 1)
    return types.SimpleNamespace(
        # The columns each layout prints, as one void row each.
        layouts=_layouts().view(f"V{ROW}").ravel(),
        # Every 5**k in 32-bit limbs: pow5_limbs[i, k] is limb i.
        pow5_limbs=np.array([[(p >> (32 * i)) & 0xFFFFFFFF for p in pow5]
                             for i in range(-(-pow5[-1].bit_length() // 32))], np.uint64),
        # Per four-digit group: its ASCII digits in the low word (in printed
        # byte order) and its trailing zeros (4 for 0000) in the high word.
        digits4=digits.astype(np.uint64) | (trailing << _B32),
        # "e-XX" by E - _E_MIN (used for E <= -5 only).
        exp_minus=_ascii_words(np.stack([np.full(e.size, ord("e")), np.full(e.size, ord("-")),
                                         e // 10 % 10 + 48, e % 10 + 48], 1)),
        # The constant words of a row: ",-0." and the point.
        head=np.frombuffer(b",-0.", "<u4")[0],
        point=np.frombuffer(b".\0\0\0", "<u4")[0],
    )


def _window(m, w, k):
    """``floor(m * 5**k / 2**w) mod 2**64``, from the product of the 32-bit
    halves of ``m`` and the 32-bit limbs of ``5**k``.  Only the limbs that
    the largest ``k`` needs take part (two for ``k <= 27``, which is 90 % of
    the values of the paper's tables), and the products are formed in place,
    to keep the temporaries few."""
    n = m.size
    limbs = -(-(5 ** int(k.max())).bit_length() // 32)
    five = np.take(_tables().pow5_limbs[:limbs], k, axis=1)
    acc = np.zeros((limbs + 4, n), np.uint64)
    part = (m & _LOW32) * five                 # < 2**64
    np.bitwise_and(part, _LOW32, out=acc[:limbs])
    part >>= _B32
    acc[1:limbs + 1] += part
    np.multiply(m >> _B32, five, out=part)     # < 2**53
    np.right_shift(part, _B32, out=five)
    acc[2:limbs + 2] += five
    del five
    part &= _LOW32
    acc[1:limbs + 1] += part
    del part
    for j in range(limbs + 1):
        acc[j + 1] += acc[j] >> _B32
        acc[j] &= _LOW32
    at = (w >> _U(5)).astype(np.intp) * n + np.arange(n)
    off = w & _U(31)
    up = _B32 - off
    flat = acc.ravel()
    return ((np.take(flat, at) >> off) | (np.take(flat, at + n) << up)
            | ((np.take(flat, at + 2 * n) << up) << _B32))


def _scaled(m, q, e):
    """``(T, N)`` for ``m * 2**q * 10**(16 - e)``: its floor, and its value
    rounded half to even."""
    k = 16 - e
    w = (-1 - q - k).astype(np.uint64)   # the round bit's position, >= 0
    window = _window(m, w, k)
    # floor(m * 5**k / 2**w) < 2**61: the quotient and its round bit.
    t = window >> _ONE
    # 5**k is odd, so the bits below the round bit are those of m.
    sticky = ((m & ((_ONE << np.minimum(w, _B63)) - _ONE)) != _ZERO).astype(np.uint64)
    return t, t + (window & (t | sticky) & _ONE)


def g17_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, layout)`` for a float64 array: ``rows`` is ``(n, ROW)``
    uint8, and the columns that layout ``layout[i]`` selects from ``rows[i]``
    are a comma followed by ``b'%.17g' % values[i]`` (see :func:`join_rows`)."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    words = np.empty((v.size, ROW // 4), "<u4")
    layout = np.empty(v.size, np.int16)
    for i in range(0, v.size, _PIECE):
        _fill(v[i:i + _PIECE], words[i:i + _PIECE], layout[i:i + _PIECE])
    return words.view(np.uint8), layout


def _fill(v: np.ndarray, words: np.ndarray, layout: np.ndarray) -> None:
    """:func:`g17_rows` of ``v`` into ``words`` (its rows as uint32) and ``layout``."""
    tables = _tables()
    bits = v.view(np.uint64)
    biased = (bits >> _U(52)) & _EXP_MASK
    fast = (biased >= _BIASED_LO) & (biased < _BIASED_HI)
    # Every value runs through the fast path, the others as 1.0; their rows
    # are overwritten at the end.
    x = np.where(fast, v, 1.0)
    xbits = x.view(np.uint64)
    m = (xbits & _FRAC) | _HIDDEN
    q = ((xbits >> _U(52)) & _EXP_MASK).astype(np.intp) - 1075
    e = np.floor(np.log10(np.abs(x))).astype(np.intp)
    del biased, x, xbits
    t, n = _scaled(m, q, e)
    todo = None
    # floor(log10) can be one off next to a power of ten: T then has 16 or
    # 18 digits, and the value is scaled again with E corrected.
    while (off := np.flatnonzero((t - _P16) >= _P17_MINUS_P16)).size:
        todo = off if todo is None else todo[off]
        e[todo] += np.where(t[off] < _P16, -1, 1)
        t, n[todo] = _scaled(m[todo], q[todo], e[todo])
    del t, m, q
    carry = n == _P17
    n[carry] = _P16
    e += carry

    # N = d0 | a1 a2 | b1 b2, the last four in four-digit groups.  N < 2**63,
    # so signed arithmetic gives the same groups as indices ready for take.
    n = n.view(np.int64)
    g0 = n // 10 ** 16
    r = n - g0 * 10 ** 16
    a = r // 10 ** 8
    b = r - a * 10 ** 8
    a1 = a // 10 ** 4
    b1 = b // 10 ** 4
    groups = [np.take(tables.digits4, g) for g in (a1, a - a1 * 10 ** 4, b1, b - b1 * 10 ** 4)]
    words[:, 0] = tables.head
    words[:, 1] = np.take(tables.digits4, g0)
    words[:, _DOT_COL // 4] = tables.point
    for col, group in enumerate(groups):
        words[:, 2 + col] = words[:, _D1_COL // 4 + col] = group
    words[:, _EXP_COL // 4] = np.take(tables.exp_minus, e - _E_MIN)
    zeros_a1, zeros_a2, zeros_b1, zeros_b2 = (group >> _B32 for group in groups)
    zeros_a = zeros_a2 + (zeros_a2 == _U(4)) * zeros_a1
    zeros_b = zeros_b2 + (zeros_b2 == _U(4)) * zeros_b1
    digits = 17 - (zeros_b + (zeros_b == _U(8)) * zeros_a).astype(np.intp)
    negative = (bits >> _B63).astype(np.intp)
    layout[:] = ((e - _E_MIN) * 17 + digits - 1) * 2 + negative

    if not fast.all():
        rows = words.view(np.uint8)
        zero = (bits << _ONE) == _ZERO
        layout[zero] = _ZERO_LAYOUT + negative[zero]
        other = np.flatnonzero(~(fast | zero))
        for i, value in zip(other.tolist(), v[other].tolist()):
            text = b"%.17g" % value
            rows[i, _SIGN_COL:_SIGN_COL + len(text)] = np.frombuffer(text, np.uint8)
            layout[i] = _FALLBACK_LAYOUT + len(text) - 1


def join_rows(rows: np.ndarray, layout: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The bytes of ``index.shape[0]`` CSV lines, each preceded by a newline:
    line ``r`` holds the values ``index[r, :]`` of :func:`g17_rows`' output,
    separated by commas."""
    lines, width = index.shape
    text = np.take(rows.view(f"V{ROW}").ravel(), index).view(np.uint8).reshape(lines, width, ROW)
    text[:, 0, _SEP_COL] = ord("\n")
    keep = np.take(_tables().layouts, np.take(layout, index)).view(bool)
    return text[keep.reshape(lines, width, ROW)]
