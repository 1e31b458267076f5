"""Python's '%.17g' text of float64 arrays, made in numpy.

``fields`` writes the bytes that ``'%.17g' % x`` gives for each entry x of
an array, without a Python call per value: a decimal exponent from
``np.log10``, the 17 digits from an error-free double-double product
(T. J. Dekker, "A floating-point technique for extending the available
precision", 1971) with a power of ten built from exact integers, and the
'%g' layout from masks over a (position, value) byte array.  The few entries
the product cannot decide are left to the caller, who formats them with
Python's correctly rounded conversion.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Byte layout of one CSV field, one position per row of a (position, value)
# array, 0 marking an absent byte: the sign, the "0.000" lead of a fixed
# field below 1, an area of 18 positions holding the 17 digits with the
# point inserted among them, the exponent "e+ddd", then the separator (','
# or '\r') and, after the last field of a row, '\n'.  Every '%.17g' and '%d'
# text, at most 24 bytes ("-9.9999999999999997e-307",
# "-9223372036854775808"), fits before SEP.
SIGN, LEAD, DIGITS, EXP, SEP = 0, 1, 6, 24, 29
WIDTH = SEP + 2
LEAD_TEXT = np.frombuffer(b"0.000", np.uint8)[:, None]
NAN_TEXT = np.frombuffer(b"nan", np.uint8)[:, None]
INF_TEXT = np.frombuffer(b"inf", np.uint8)[:, None]
# the "0.000" lead of a fixed field of decimal exponent e writes its first
# 1 - e bytes: position i is present while e <= LEAD_LAST[i]
LEAD_LAST = np.array([-1, -1, -2, -3, -4], np.int16)[:, None]
DIGIT_COUNT = np.arange(1, 18, dtype=np.uint8)[:, None]
AREA_INDEX = np.arange(18, dtype=np.int16)[:, None]

# y = |x| 10^(16 - E) is computed as a double-double within 2^-45 of its
# true value: relative to f (hi + lo) >= 1/4, the table is off by less than
# 2^-105 and each of the product's two roundings by at most 2^-106, and
# y < 2^57.  So a fraction of y this close to 1/2 or closer may round either
# way, and the field is left to Python's correctly rounded '%.17g'.  Where 10^(16 - E) is
# a double (0 <= 16 - E <= 22, the only powers with lo = 0), y is exact and
# a tie rounds to even, as Python's does.
TIE_WINDOW = 2.0**-30
SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting factor for doubles


@functools.lru_cache(maxsize=None)
def pow10(k):
    """10^k as (hi + lo) 2^b with hi in [1/2, 1), to a relative 2^-105.

    Returns (hi, hh, hl, lo, b), where hh + hl is Dekker's split of hi into
    two 26-bit halves.  Built from the exact integer 10^|k|.
    """
    n = 10 ** abs(k)
    bits = n.bit_length()
    if k >= 0:  # the top 110 bits of 10^k
        top = n << (110 - bits) if bits <= 110 else n >> (bits - 110)
        b = bits
    else:  # the top 110 bits of 1 / 10^-k, which is not a power of two
        top = (1 << (bits + 109)) // n
        b = 1 - bits
    hi = math.ldexp(top >> 57, -53)
    c = hi * SPLIT
    hh = c - (c - hi)
    return hi, hh, hi - hh, math.ldexp(top & ((1 << 57) - 1), -110), b


def pow10_rows(k):
    """The rows hi, hh, hl, lo, b of ``pow10`` for each entry of int array k,
    building the table only for the exponents present."""
    k0 = int(k.min())
    present = np.zeros(int(k.max()) - k0 + 1, dtype=bool)
    present[k - k0] = True
    ks = np.flatnonzero(present)
    table = np.zeros((5, len(present)))
    table[:, ks] = np.transpose([pow10(k0 + int(j)) for j in ks])
    return table.take(k - k0, axis=1)


def digits17(d):
    """(17, m) uint8 decimal digits, most significant first, of the int64
    array d in [10^16, 10^17): the lead digit, then four 4-digit uint16
    groups split one digit a pass."""
    g = np.empty((17, len(d)), np.uint8)
    g[0] = top = d // 10**16
    rest = d - top * 10**16
    half = rest // 10**8
    v = np.stack([half, rest - half * 10**8])
    q = v // 10**4
    groups = np.stack([q, v - q * 10**4], axis=1).astype(np.uint16).reshape(4, -1)
    cells = g[1:].reshape(4, 4, -1)
    for j in range(3, -1, -1):
        q = groups // 10
        cells[:, j] = groups - q * 10
        groups = q
    return g


def fields(x, out):
    """Write the '%.17g' text of each entry of the float array x into the
    matching column of out, a (SEP, len(x)) uint8 array, in the byte layout
    above; returns the mask of the entries left undecided (one decade off,
    or within TIE_WINDOW of a rounding tie of an inexact product), whose
    columns the caller must overwrite.

    The decimal exponent E is floor(log10 |x|), and the 17 digits are
    D = round(|x| 10^(16 - E)), formed as f (hi + lo) 2^(e2 + b) from
    |x| = f 2^e2 and ``pow10(16 - E)``, with f hi exact by Dekker's product.
    The decade is decided on the double-double sum, not its high part.
    Masks select bytes by multiplication, which numpy vectorizes, where
    ``np.where`` on bytes does not.
    """
    finite = np.isfinite(x)
    zero = x == 0
    ax = np.abs(x)
    ax[~finite | zero] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int16)
    hi, hh, hl, lo, b = pow10_rows(16 - e)
    f, e2 = np.frexp(ax)
    p = f * hi
    c = f * SPLIT
    fh = c - (c - f)
    fl = f - fh
    tail = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl + f * lo
    e2 += b.astype(np.int32)
    yh = np.ldexp(p, e2)  # an integer: y >= 2^53 in the decade
    yl = np.ldexp(tail, e2)
    whole = np.floor(yl)
    frac = yl - whole
    d = yh.astype(np.int64)
    d += whole.astype(np.int64)  # floor(y)
    undecided = (finite & ((d < 10**16) | (d >= 10**17))
                 | ((np.abs(frac - 0.5) < TIE_WINDOW) & (lo != 0)))
    d += (frac > 0.5) | ((frac == 0.5) & (d % 2 == 1))  # ties to even
    up = d == 10**17  # rounds up into the next decade
    d -= up * (9 * 10**16)
    e += up
    d[undecided] = 10**16
    g = digits17(d)
    g[0, zero] = 0

    nz = np.max((g != 0) * DIGIT_COUNT, axis=0)  # digits up to the last nonzero
    sci = (e < -4) | (e > 16)
    lead = ~sci & (e < 0)
    int_last = e * ~sci  # the digit before the point, < 0 if "0.000" leads
    pos = int_last + 1 + lead * (17 - int_last)  # of the point; 18: none

    out[SIGN] = np.signbit(x) * np.uint8(45)
    np.multiply(LEAD_TEXT, lead & (e <= LEAD_LAST), out=out[LEAD:DIGITS])
    # digit j at area position j before the point and j + 1 after it
    digits = np.zeros((19, len(x)), np.uint8)
    keep = DIGIT_COUNT <= np.maximum(nz, int_last + 1)
    np.multiply(g + np.uint8(48), keep, out=digits[1:18])
    area = out[DIGITS:EXP]
    np.subtract(digits[:18], digits[1:], out=area)
    area *= AREA_INDEX > pos
    area += digits[1:]
    point = np.flatnonzero(nz > pos)
    area[pos[point], point] = 46
    ae = np.abs(e)
    exp = out[EXP:SEP]
    exp[0] = sci * np.uint8(101)
    exp[1] = sci * (np.uint8(43) + (e < 0) * np.uint8(2))
    exp[2] = (sci & (ae >= 100)) * (ae // 100 + 48)
    exp[3] = sci * (ae // 10 % 10 + 48)
    exp[4] = sci * (ae % 10 + 48)
    # "inf", "-inf" and "nan", unsigned as Python prints it
    bad = np.flatnonzero(~finite)
    out[:, bad] = 0
    out[SIGN, bad] = (x[bad] < 0) * np.uint8(45)
    out[DIGITS:DIGITS + 3, bad] = np.where(np.isnan(x[bad]), NAN_TEXT, INF_TEXT)
    return undecided
