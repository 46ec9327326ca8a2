"""The input file reader: one binary read, and UTF-8 errors placed by line."""

import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from temporank import NetworkFormatError
from temporank.errors import decode, read_bytes

PIECES = st.sampled_from([
    b"\n", b"\r", b"\r\n", b" ", b"a", b"7", b"\t",
    "é".encode(), "€".encode(), "\U0001d11e".encode(),       # valid
    b"\xc3", b"\xe2\x82", b"\xf0\x9d\x84",                              # truncated
    b"\xff", b"\xfe", b"\x80", b"\xc0\xaf", b"\xed\xa0\x80", b"\xf5\x80\x80\x80",  # invalid
])


@given(st.lists(PIECES, max_size=40).map(b"".join))
def test_decode_places_errors_as_the_line_by_line_reference(raw):
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        want = oracles.not_utf8(raw, NetworkFormatError)
        with pytest.raises(NetworkFormatError) as got:
            decode(raw, NetworkFormatError)
        assert (str(got.value), got.value.line_number) == (str(want), want.line_number)
    else:
        assert decode(raw, NetworkFormatError) == text


def test_read_bytes(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes(b"a\r\nb\xff")
    assert read_bytes(pathlib.PurePosixPath(str(path)), "data file") == b"a\r\nb\xff"
    with pytest.raises(FileNotFoundError) as err:
        read_bytes(str(tmp_path / "gone.txt"), "data file")
    assert str(err.value) == f"data file not found: {tmp_path / 'gone.txt'}"
