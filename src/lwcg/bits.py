"""Bit-level I/O: MSB-first bit streams, fixed-width fields, Elias delta."""

from __future__ import annotations


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

    def write_bit(self, bit: int) -> None:
        self.write_fixed(bit, 1)

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

    def read_bit(self) -> int:
        return self.read_fixed(1)

    def read_elias_delta(self) -> int:
        r = 0
        while self.read_bit() == 0:
            r += 1
        m = ((1 << r) | self.read_fixed(r)) - 1
        return (1 << m) | self.read_fixed(m)
