"""Bit-level I/O: MSB-first bit streams, fixed-width fields, Elias delta.

The one module that knows how bits sit in a stream: fixed-width fields one
per call (`write_fixed`/`read_fixed`) or a numpy-packed column per call
(`write_fields`/`read_fields`), and a block of bits as the positions of its
1s (`write_bitmap`/`read_bitmap`), each bulk call moving the same bits.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4096  # fields per numpy pass in write_fields and read_fields


class CodecError(ValueError):
    """Compressed input is not a valid stream for this codec."""


class TruncatedStreamError(CodecError):
    """Raised when a read runs past the end of the stream."""


def width(x: int) -> int:
    """Field width 1 + floor(log2(max(x, 1))), so width(0) == width(1) == 1."""
    return max(x, 1).bit_length()


def _layout(widths):
    """A block of fields laid out in 64-bit words after a zero word: its
    length in bits, and per field the word q and bit r where it ends."""
    if (widths < 0).any():
        raise ValueError("negative width")
    ends = np.cumsum(widths)
    return int(ends[-1]), (ends >> 6) + 1, (ends & 63).astype(np.uint64)


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
        """write_fixed(values[i], widths[i]) for every i, in bulk: each value,
        below 2**64, is ORed into the one or two words of its _layout, _BLOCK
        fields a pass, so temporaries hold a few words per field."""
        if len(values) != len(widths):
            raise ValueError("values and widths differ in length")
        for start in range(0, len(widths), _BLOCK):
            v = values[start:start + _BLOCK]
            try:  # numpy would cast an array's negative values without a word
                if isinstance(v, np.ndarray) and (v.dtype.kind not in "iu" or v.min() < 0):
                    raise OverflowError
                v = np.array(v, dtype=np.uint64)
            except OverflowError:
                raise ValueError("field value is not an integer in 0..2**64 - 1") from None
            w = np.array(widths[start:start + _BLOCK], dtype=np.int64)
            total, q, r = _layout(w)  # numpy shifts a uint64 by 64 to 0
            if (v >> w.astype(np.uint64)).any():
                raise ValueError("a field value does not fit in its width")
            words = np.zeros((total >> 6) + 2, np.uint64)
            np.bitwise_or.at(words, q - 1, v >> r)
            np.bitwise_or.at(words, q, v << (64 - r))
            self.write_fixed(int.from_bytes(words.astype(">u8").tobytes(), "big")
                             >> (64 - (total & 63)), total)

    def write_bitmap(self, ones, nbits: int) -> None:
        """Write nbits bits, 1 at the positions in `ones` and 0 elsewhere."""
        block = np.zeros(nbits, dtype=np.uint8)
        block[ones] = 1
        self.write_fixed(int.from_bytes(np.packbits(block).tobytes(), "big") >> (-nbits % 8), nbits)

    def write_elias_delta(self, n: int) -> None:
        """Prefix-free code for n >= 1: zeros, length-of-length, mantissa."""
        n = int(n)
        if n < 1:
            raise ValueError("Elias delta is defined for positive integers only")
        m = n.bit_length() - 1          # floor(log2 n)
        r = (m + 1).bit_length() - 1    # floor(log2 (m+1))
        self.write_fixed(n + (m << m), 2 * r + 1 + m)  # (m + 1) << m | n - 2**m

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

    def read_fields(self, widths) -> np.ndarray:
        """The mirror of write_fields: [read_fixed(w) for w in widths] as uint64;
        CodecError if a field wider than 64 bits is not 0 above its last 64."""
        w = np.array(widths, dtype=np.int64)
        out = np.empty(len(w), np.uint64)
        for start in range(0, len(w), _BLOCK):
            block = w[start:start + _BLOCK]
            total, q, r = _layout(block)
            chunk = self.read_fixed(total) << (64 - (total & 63))
            words = np.frombuffer(chunk.to_bytes(8 * ((total >> 6) + 2), "big"), ">u8")
            v = words[q - 1] << r | words[q] >> (64 - r)
            v &= np.uint64(2**64 - 1) >> (64 - np.minimum(block, 64)).astype(np.uint64)
            if np.bitwise_count(words).sum() != np.bitwise_count(v).sum():
                raise CodecError(f"a field beyond 64 bits before bit {self._pos}")
            out[start:start + _BLOCK] = v
        return out

    def read_bitmap(self, nbits: int) -> np.ndarray:
        """Inverse of write_bitmap: the ascending positions of the 1s in nbits bits."""
        chunk = self.read_fixed(nbits) << (-nbits % 8)
        return np.flatnonzero(np.unpackbits(np.frombuffer(chunk.to_bytes(-(-nbits // 8), "big"),
                                                          dtype=np.uint8)))

    def read_elias_delta(self) -> int:
        """Inverse of write_elias_delta.  Its leading zeros are counted in one
        window: 64 of them would declare a mantissa longer than any stream."""
        chunk = self._data[self._pos >> 3:(self._pos >> 3) + 9]
        nbits = 8 * len(chunk) - (self._pos & 7)
        r = nbits - (int.from_bytes(chunk, "big") & ((1 << nbits) - 1)).bit_length()
        if r >= min(nbits, 64):
            raise TruncatedStreamError(f"Elias delta prefix at bit {self._pos} overruns the stream")
        self._pos += r
        m = self.read_fixed(r + 1) - 1  # the 1 that ended the zeros leads
        if m > self.remaining():  # before 1 << m can ask for a huge int
            raise TruncatedStreamError(f"{m}-bit Elias delta mantissa at bit {self._pos}")
        return (1 << m) | self.read_fixed(m)
