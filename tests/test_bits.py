import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lwcg.bits import BitReader, BitWriter, CodecError, TruncatedStreamError, width


def bit_string(writer: BitWriter) -> str:
    data = writer.to_bytes()
    return "".join(str((data[i // 8] >> (7 - i % 8)) & 1) for i in range(len(writer)))


@pytest.mark.parametrize("n,code", [(1, "1"), (2, "0100"), (5, "01101")])
def test_elias_delta_known_codewords(n, code):
    w = BitWriter()
    w.write_elias_delta(n)
    assert bit_string(w) == code


def test_elias_delta_rejects_zero():
    with pytest.raises(ValueError):
        BitWriter().write_elias_delta(0)


def test_elias_delta_roundtrip_and_length():
    w = BitWriter()
    values = list(range(1, 2000)) + [10**6, 10**9, 2**70, 2**70 + 12345]
    for n in values:
        w.write_elias_delta(n)
    r = BitReader(w.to_bytes())
    for n in values:
        before = r.position
        assert r.read_elias_delta() == n
        m = n.bit_length() - 1
        expected = m + 2 * ((m + 1).bit_length() - 1) + 1
        assert r.position - before == expected


def test_elias_delta_full_range_roundtrip():
    # Every value in 1..10^6, with the closed-form length per codeword.
    w = BitWriter()
    total = 0
    for n in range(1, 10**6 + 1):
        w.write_elias_delta(n)
        m = n.bit_length() - 1
        total += m + 2 * ((m + 1).bit_length() - 1) + 1
    assert len(w) == total
    r = BitReader(w.to_bytes())
    for n in range(1, 10**6 + 1):
        assert r.read_elias_delta() == n


def test_prefix_free_concatenation():
    rng = random.Random(11)
    values = [rng.randint(1, 10**9) for _ in range(100)]
    w = BitWriter()
    for n in values:
        w.write_elias_delta(n)
    r = BitReader(w.to_bytes())
    assert [r.read_elias_delta() for _ in values] == values


def test_truncated_elias_raises():
    r = BitReader(b"")
    with pytest.raises(TruncatedStreamError):
        r.read_elias_delta()
    # "01" is a strict prefix of the codeword for 2.
    w = BitWriter()
    w.write_fixed(0b01, 2)
    r = BitReader(w.to_bytes()[:0])
    with pytest.raises(TruncatedStreamError):
        r.read_fixed(2)


def test_fixed_known_fields():
    w = BitWriter()
    w.write_fixed(5, 4)
    assert bit_string(w) == "0101"
    w = BitWriter()
    w.write_fixed(0, 1)
    assert bit_string(w) == "0"


def test_fixed_roundtrip_width_10():
    w = BitWriter()
    for v in range(1024):
        w.write_fixed(v, 10)
    r = BitReader(w.to_bytes())
    assert [r.read_fixed(10) for _ in range(1024)] == list(range(1024))


def test_fixed_rejects_oversized_value():
    with pytest.raises(ValueError):
        BitWriter().write_fixed(4, 2)


def test_fixed_wide_values():
    big = (1 << 3000) - 12345
    w = BitWriter()
    w.write_fixed(1, 3)
    w.write_fixed(big, 3001)
    w.write_fixed(6, 3)
    r = BitReader(w.to_bytes())
    assert r.read_fixed(3) == 1
    assert r.read_fixed(3001) == big
    assert r.read_fixed(3) == 6


def test_read_past_end():
    w = BitWriter()
    w.write_fixed(3, 2)
    r = BitReader(w.to_bytes())
    r.read_fixed(2)
    # Padding allows reads up to the byte boundary but not beyond.
    with pytest.raises(TruncatedStreamError):
        r.read_fixed(16)


def test_width_helper():
    assert width(0) == 1
    assert width(1) == 1
    assert width(2) == 2
    assert width(3) == 2
    assert width(16) == 5
    assert width(255) == 8


def test_elias_delta_huge_mantissa_rejected_before_allocating_it():
    # 26 zeros, a 1, then 26 ones: a 7-byte stream whose length prefix
    # declares a mantissa of 2**27 - 2 bits, which 1 << m would build as a
    # 16 MB int before finding that the stream is too short.  64 zeros
    # declare one of 2**64 - 1 bits or more, refused on the zeros alone.
    for zeros, ones in ((26, 27), (64, 1)):
        w = BitWriter()
        w.write_fixed(0, zeros)
        w.write_fixed((1 << ones) - 1, ones)
        data = w.to_bytes()
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedStreamError):
                BitReader(data).read_elias_delta()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# Bulk field I/O must move exactly the bits of the per-field calls.

BULK = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def fields(draw, max_size=40):
    """(values, widths): widths 0..200, values that fit; the fields wider
    than 64 bits are zero runs."""
    widths = draw(st.lists(st.one_of(st.integers(0, 16), st.sampled_from([63, 64]),
                                     st.integers(65, 200)), max_size=max_size))
    values = [0 if w > 64 else draw(st.one_of(st.integers(0, (1 << w) - 1),
                                              st.just((1 << w) - 1)))
              for w in widths]
    return values, widths


def with_prefix(offset):
    """A writer already holding `offset` bits, so fields start mid-byte."""
    w = BitWriter()
    w.write_fixed((1 << offset) - 1 if offset else 0, offset)
    return w


@BULK
@given(fields(), st.integers(0, 7))
def test_write_fields_matches_write_fixed(fields, offset):
    values, widths = fields
    one, bulk = with_prefix(offset), with_prefix(offset)
    for value, nbits in zip(values, widths):
        one.write_fixed(value, nbits)
    bulk.write_fields(values, widths)
    assert bulk.to_bytes() == one.to_bytes()
    assert bulk.bit_length == one.bit_length


def test_write_fields_across_blocks_and_wide_runs():
    # More fields than one numpy pass takes, with 63-, 64- and >64-bit fields.
    rng = random.Random(61)
    widths = [rng.choice([0, 1, 5, 14, 63, 64, 65, 1000]) for _ in range(10000)]
    values = [0 if w > 64 else rng.getrandbits(w) for w in widths]
    one, bulk = with_prefix(3), with_prefix(3)
    for value, nbits in zip(values, widths):
        one.write_fixed(value, nbits)
    bulk.write_fields(values, widths)
    assert bulk.to_bytes() == one.to_bytes()
    r = BitReader(bulk.to_bytes())
    r.read_fixed(3)
    assert r.read_fields(widths).tolist() == values


@BULK
@given(st.integers(0, 70), st.integers(0, 7))
def test_write_fields_rejects_what_write_fixed_rejects(nbits, offset):
    for value in (1 << nbits, -1):
        with pytest.raises(ValueError):
            with_prefix(offset).write_fixed(value, nbits)
        with pytest.raises(ValueError):
            with_prefix(offset).write_fields([0, value], [3, nbits])


def test_write_fields_rejects_values_of_65_bits_and_bad_shapes():
    # write_fields values are below 2**64 even in wider fields.
    with pytest.raises(ValueError):
        BitWriter().write_fields([1 << 64], [100])
    # An array is refused where the same values as a list are: numpy's
    # cast to uint64 would write -1 as 64 one bits.
    for values in (np.array([-1]), np.array([0, -5]), np.array([1.0])):
        with pytest.raises(ValueError, match=r"not an integer in 0\.\.2\*\*64 - 1"):
            BitWriter().write_fields(values, [64] * len(values))
    with pytest.raises(ValueError):
        BitWriter().write_fields([0], [-1])
    with pytest.raises(ValueError):
        BitWriter().write_fields([1, 2], [4])


@BULK
@given(fields(), st.integers(0, 7))
def test_read_fields_matches_read_fixed(fields, offset):
    values, widths = fields
    w = with_prefix(offset)
    w.write_fields(values, widths)
    data = w.to_bytes()
    one, bulk = BitReader(data), BitReader(data)
    one.read_fixed(offset)
    bulk.read_fixed(offset)
    assert bulk.read_fields(widths).tolist() == [one.read_fixed(nbits) for nbits in widths] == values
    assert bulk.position == one.position
    # One bit more than the stream holds, past the padding.
    with pytest.raises(TruncatedStreamError):
        BitReader(data).read_fields(widths + [8 * len(data) - sum(widths) + 1])


def test_read_fields_refuses_bits_above_64():
    # A 65-bit field is read when its top bit is 0, as write_fields
    # writes it, and refused when it is 1, in any block of a column.
    widths = [3] * 5000 + [65, 7]
    w = with_prefix(5)
    w.write_fields([5] * 5000 + [2**64 - 1, 9], widths)
    data = w.to_bytes()
    r = BitReader(data)
    r.read_fixed(5)
    assert r.read_fields(widths).tolist() == [5] * 5000 + [2**64 - 1, 9]
    body = int.from_bytes(data, "big") | 1 << (8 * len(data) - 5 - 3 * 5000 - 1)
    r = BitReader(body.to_bytes(len(data), "big"))
    r.read_fixed(5)
    with pytest.raises(CodecError, match="field beyond 64 bits"):
        r.read_fields(widths)
    assert BitReader(b"").read_fields([]).tolist() == []


@BULK
@given(st.integers(0, 300).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, max(n - 1, 0)), max_size=n))),
    st.integers(0, 7))
def test_bitmap_matches_single_bits(block, offset):
    nbits, ones = block
    ones = sorted(ones)
    one, bulk = with_prefix(offset), with_prefix(offset)
    for k in range(nbits):
        one.write_fixed(int(k in ones), 1)
    bulk.write_bitmap(np.array(ones, dtype=np.int64), nbits)
    assert bulk.to_bytes() == one.to_bytes() and len(bulk) == len(one)
    r = BitReader(bulk.to_bytes())
    r.read_fixed(offset)
    assert r.read_bitmap(nbits).tolist() == ones
    assert r.position == offset + nbits
    with pytest.raises(TruncatedStreamError):
        r.read_bitmap(r.remaining() + 1)
