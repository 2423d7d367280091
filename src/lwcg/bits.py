"""Bit-level I/O: MSB-first bit streams, fixed-width fields, Elias delta.

Fixed-width fields go one per call (`write_fixed`/`read_fixed`) or a list
per call (`write_fields`, numpy-packed; `read_fields`), and `read_zeros`
skips a run of 0 bits with one C-level byte scan.  A bulk call moves the
same bits as the per-field calls it replaces.
"""

from __future__ import annotations

import re

import numpy as np

_BLOCK = 4096                     # fields per numpy pass in write_fields
_NONZERO = re.compile(rb"[^\x00]")


class CodecError(ValueError):
    """Compressed input is not a valid stream for this codec."""


class TruncatedStreamError(CodecError):
    """Raised when a read runs past the end of the stream."""


def width(x: int) -> int:
    """Field width 1 + floor(log2(max(x, 1))), so width(0) == width(1) == 1."""
    return max(x, 1).bit_length()


class BitWriter:
    """Append-only MSB-first bit sink.

    Bits accumulate in an integer buffer; whole bytes are flushed into a
    bytearray as they complete, so arbitrarily wide fields (the ranking
    codecs emit integers with millions of bits) cost O(width) amortized.
    """

    def __init__(self):
        self._bytes = bytearray()
        self._buf = 0      # pending bits, MSB-first
        self._nbits = 0    # number of pending bits, always < 8 after flush

    def __len__(self) -> int:
        return 8 * len(self._bytes) + self._nbits

    @property
    def bit_length(self) -> int:
        return len(self)

    def write_fixed(self, value: int, nbits: int) -> None:
        """Write `value` in exactly `nbits` bits, big-endian."""
        value = int(value)
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        total = self._nbits + nbits
        buf = (self._buf << nbits) | value
        rem = total & 7
        nbytes = total >> 3
        if nbytes:
            self._bytes += (buf >> rem).to_bytes(nbytes, "big")
        self._buf = buf & ((1 << rem) - 1)
        self._nbits = rem

    def write_fields(self, values, widths) -> None:
        """write_fixed(values[i], widths[i]) for every i, in bulk.

        Values are ints below 2**64, so a field wider than 64 bits starts
        with a run of zeros.  numpy ORs each field into the one or two
        64-bit words its value spans, _BLOCK fields per pass, so its
        temporaries hold a few words per field, none per bit.
        """
        if len(values) != len(widths):
            raise ValueError("values and widths differ in length")
        for start in range(0, len(widths), _BLOCK):
            try:
                v = np.array(values[start:start + _BLOCK], dtype=np.uint64)
            except OverflowError:
                raise ValueError("field value is negative or has over 64 bits") from None
            w = np.array(widths[start:start + _BLOCK], dtype=np.int64)
            if (w < 0).any() or ((w < 64) & (v >> np.minimum(w, 63).astype(np.uint64) != 0)).any():
                raise ValueError("a field value does not fit in its width")
            ends = np.cumsum(w)  # a field ends at bit r of word q, after a zero word
            q, r = (ends >> 6) + 1, (ends & 63).astype(np.uint64)
            words = np.zeros(int(ends[-1] >> 6) + 2, np.uint64)
            np.bitwise_or.at(words, q - 1, v >> r)
            np.bitwise_or.at(words, q, np.where(r > 0, v << ((64 - r) & 63), 0))
            self.write_fixed(int.from_bytes(words.astype(">u8").tobytes(), "big")
                             >> (64 - int(ends[-1] & 63)), int(ends[-1]))

    def write_elias_delta(self, n: int) -> None:
        """Prefix-free code for n >= 1: zeros, length-of-length, mantissa."""
        n = int(n)
        if n < 1:
            raise ValueError("Elias delta is defined for positive integers only")
        m = n.bit_length() - 1          # floor(log2 n)
        r = (m + 1).bit_length() - 1    # floor(log2 (m+1))
        self.write_fixed(0, r)
        self.write_fixed(m + 1, r + 1)
        self.write_fixed(n - (1 << m), m)

    def to_bytes(self) -> bytes:
        """Zero-pad to a byte boundary and return the stream."""
        out = bytearray(self._bytes)
        if self._nbits:
            out.append(self._buf << (8 - self._nbits))
        return bytes(out)


class BitReader:
    """Cursor over a byte string, MSB-first; raises on overrun."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # bit position

    @property
    def position(self) -> int:
        return self._pos

    def remaining(self) -> int:
        return 8 * len(self._data) - self._pos

    def read_fixed(self, nbits: int) -> int:
        if nbits < 0:
            raise ValueError("negative width")
        if self._pos + nbits > 8 * len(self._data):
            raise TruncatedStreamError(
                f"need {nbits} bits at position {self._pos}, "
                f"stream has {8 * len(self._data)}"
            )
        if nbits == 0:
            return 0
        start, end = self._pos >> 3, (self._pos + nbits + 7) >> 3
        chunk = int.from_bytes(self._data[start:end], "big")
        drop = 8 * (end - start) - (self._pos - 8 * start) - nbits
        self._pos += nbits
        return (chunk >> drop) & ((1 << nbits) - 1)

    def read_fields(self, widths) -> list:
        """[read_fixed(w) for w in widths], one read_fixed per 256 fields."""
        out = []
        for start in range(0, len(widths), 256):
            block = widths[start:start + 256]
            shift = sum(block)
            chunk = self.read_fixed(shift)
            out += [(chunk >> (shift := shift - w)) & ((1 << w) - 1) for w in block]
        return out

    def read_zeros(self, limit: int) -> int:
        """Skip the 0 bits before the next 1 bit, at most `limit` of them,
        and return how many were skipped; the 1 bit stays unread."""
        if limit < 0:
            raise ValueError("negative limit")
        pos, data = self._pos, self._data
        i = pos >> 3
        head = data[i] & (0xFF >> (pos & 7)) if i < len(data) else 0
        if head:
            one = 8 * i + 8 - head.bit_length()
        else:
            # Scan whole bytes up to the one holding bit pos + limit.
            stop = min(len(data), ((pos + limit) >> 3) + 1)
            found = _NONZERO.search(data, i + 1, stop)
            one = 8 * found.start() + 8 - data[found.start()].bit_length() if found else 8 * stop
        if one - pos >= limit:
            self._pos = pos + limit
            return limit
        if one >= 8 * len(data):
            raise TruncatedStreamError(f"stream ends in a run of zeros from bit {pos}")
        self._pos = one
        return one - pos

    def read_elias_delta(self) -> int:
        r = self.read_zeros(self.remaining())
        m = self.read_fixed(r + 1) - 1  # the 1 that ended the zeros leads
        if m > self.remaining():  # before 1 << m can ask for a huge int
            raise TruncatedStreamError(f"{m}-bit Elias delta mantissa at bit {self._pos}")
        return (1 << m) | self.read_fixed(m)
