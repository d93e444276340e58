"""The byte-block text parser against the line-loop parser it replaced.

``FileEdgeStream._parse_chunks`` reads newline-cut byte blocks, parses the
blocks whose every line is ``digits SP digits`` with ``np.fromstring``, and
sends every other block through the ``loadtxt`` batches the line loop used.
On any text - comments, blank lines, CRLF, tabs, signs, overflowing ids, a
BOM, undecodable bytes, lines cut by a block boundary - it must yield the
oracle's chunks (:mod:`text_parse_oracle`) and fail with the oracle's error
type and message, after the same chunks.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.streams.file as file_module
from repro.streams import FileEdgeStream
from text_parse_oracle import line_loop_parse_chunks

CHUNK_SIZES = (1, 7, 65536)
#: The smallest read size: one decode region, so short texts span blocks.
SMALL_BLOCK = file_module._TEXT_CHUNK

_IDS = st.one_of(
    st.integers(0, 12).map(str),
    st.sampled_from(
        ["007", "00", "+3", "-4", "9223372036854775807", "9223372036854775808",
         "99999999999999999999", "1.5", "x", "1_0"]
    ),
)
_SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", " \t ", "\x0c"])


@st.composite
def _data_line(draw):
    u, v = draw(_IDS), draw(_IDS)
    if draw(st.booleans()) and u.isdigit():
        v = u  # a self loop
    line = u + draw(_SEPARATORS) + v
    if draw(st.integers(0, 5)) == 0:
        line += draw(_SEPARATORS) + draw(_IDS)  # a third column
    if draw(st.integers(0, 5)) == 0:
        line += draw(st.sampled_from([" # note", "#x", "\t# 1 2"]))
    return draw(st.sampled_from(["", "", "", " ", "\t "])) + line + draw(
        st.sampled_from(["", "", "", " ", "\t"])
    )


_LINE = st.one_of(
    _data_line(),
    _data_line(),
    _data_line(),
    st.sampled_from(
        ["# comment", "#", "  # indented", "", " ", "   ", "\t", "7", "7 ", " 7", "1 2 \xe9"]
    ),
)
_BAD_BYTES = st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3", b"\x80 1"])


@st.composite
def edge_texts(draw):
    """Edge-list bytes; a valid prefix of varying length (0 or ~8 KB)
    moves the generated lines across block and decode-region boundaries."""
    lines = draw(st.lists(_LINE, max_size=25))
    endings = draw(
        st.lists(
            st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
            min_size=len(lines),
            max_size=len(lines),
        )
    )
    body = "".join(line + end for line, end in zip(lines, endings)).encode("utf-8")
    if draw(st.booleans()):
        body = body.rstrip(b"\r\n")  # no final line end
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(_BAD_BYTES) + body[at:]
    filler = b""
    if draw(st.booleans()):
        filler = b"1234567890 1234567891\n" * draw(st.integers(355, 375))
        filler += b"0" * draw(st.integers(0, 21)) + b"1 2\n"
    bom = b"\xef\xbb\xbf" if draw(st.integers(0, 9)) == 0 else b""
    return bom + filler + body


def _outcome(chunks):
    """The chunks a parse yields before it ends, and how it ends."""
    seen = []
    try:
        for chunk in chunks:
            seen.append(chunk.tolist())
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return seen, (type(exc).__name__, str(exc))
    return seen, None


def _compare(path, monkeypatch):
    for validate in (True, False):
        stream = FileEdgeStream(path, validate=validate)
        for chunk_size in CHUNK_SIZES:
            expected = _outcome(line_loop_parse_chunks(stream, chunk_size))
            for block in (file_module._BLOCK_BYTES, SMALL_BLOCK):
                with monkeypatch.context() as patch:
                    patch.setattr(file_module, "_BLOCK_BYTES", block)
                    got = _outcome(stream._parse_chunks(chunk_size))
                assert got == expected, (validate, chunk_size, block)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(text=edge_texts())
def test_block_parser_matches_the_line_loop(text, tmp_path, monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_bytes(text)
    _compare(path, monkeypatch)


@pytest.mark.parametrize(
    "text",
    [
        b"",
        b"1 2\n3 4",
        b"# header\n# more\n1 2\n3 4\n",
        b"1 2\r\n3 4\r\n",
        b"1 2 3\n4\n",
        b"1 \n 2\n",
        b"1 2\n99999999999999999999 3\n",
        b"9223372036854775807 1\n",
        b"\xef\xbb\xbf1 2\n",
        b"1 2\n3 4\n\xe2\x82",
        b"10 10 \r\xe2\x82",
        b"1 1\n2 3\n",
    ],
    ids=["empty", "no-final-newline", "header", "crlf", "token-count", "empty-side", "overflow",
         "int64-max", "bom", "cut-utf8-tail", "cr-before-cut-tail", "self-loop"],
)
def test_named_fallback_triggers(text, tmp_path, monkeypatch):
    path = tmp_path / "edges.txt"
    path.write_bytes(text)
    _compare(path, monkeypatch)


@pytest.mark.parametrize("bad_at", [8100, 8190, 8191, 8192, 8193, 16383, 16384])
def test_undecodable_byte_stops_at_the_line_text_reading_does(bad_at, tmp_path, monkeypatch):
    """An undecodable byte fails the parse at the line where reading the
    file as text first needs the 8 KB region holding it; a self loop on a
    line before that region fails first."""
    text = bytearray(b"10 20\n" * 3000)
    text[bad_at] = 0xFF
    text[:4] = b"1 1\n" if bad_at > 8192 else b"1 2\n"
    path = tmp_path / "edges.txt"
    path.write_bytes(bytes(text))
    _compare(path, monkeypatch)


@pytest.mark.parametrize(
    "tail",
    [b"1000 20\r\xff 3\n", b"1000 20\n\xff 3\n", b"100 20\r\xe2A 3\n", b"100 20\n\xe2A 3\n"],
    ids=["cr", "lf", "cr-then-cut-sequence", "lf-then-cut-sequence"],
)
def test_line_end_just_before_an_undecodable_region(tail, tmp_path, monkeypatch):
    """The 8 KB decode region ends after the tail's line end (or after a
    sequence start behind it): a bare ``\\r`` ending the decoded text waits
    for the next region, which does not decode; a ``\\n`` ends its line."""
    text = b"10 20\n" * 1364 + tail
    assert text[SMALL_BLOCK : SMALL_BLOCK + 1] in (b"\xff", b"A")
    path = tmp_path / "edges.txt"
    path.write_bytes(text)
    _compare(path, monkeypatch)


def _spans_blocks(text: bytes, tmp_path, monkeypatch, name="edges.txt"):
    """The outcome of a parse at the smallest block size, and the longest
    block the reader handed to the parser."""
    path = tmp_path / name
    path.write_bytes(text)
    _compare(path, monkeypatch)
    longest = []
    real = FileEdgeStream._block_pieces

    def spy(self, np, block, before):
        longest.append(len(block))
        return (yield from real(self, np, block, before))

    with monkeypatch.context() as patch:
        patch.setattr(file_module, "_BLOCK_BYTES", SMALL_BLOCK)
        patch.setattr(FileEdgeStream, "_block_pieces", spy)
        outcome = _outcome(FileEdgeStream(path)._parse_chunks(4096))
    return outcome, max(longest)


@pytest.mark.parametrize("bad", [False, True], ids=["clean", "malformed-line"])
def test_bare_cr_text_is_read_in_bounded_blocks(bad, tmp_path, monkeypatch):
    """A CR-only file over three blocks long gives the LF file's rows and
    line numbers, and no block carries more than one read's rest."""
    lines = [b"%d %d" % (i, i + 1) for i in range(6000)]
    if bad:
        lines[5000] = b"5000 x"
    lf, lf_longest = _spans_blocks(b"\n".join(lines) + b"\n", tmp_path, monkeypatch)
    cr, cr_longest = _spans_blocks(b"\r".join(lines) + b"\r", tmp_path, monkeypatch)
    assert len(b"\r".join(lines)) > 3 * SMALL_BLOCK
    assert cr == lf
    assert (cr[1] is not None) == bad and (not bad or ":5001: " in cr[1][1])
    assert max(lf_longest, cr_longest) < 2 * SMALL_BLOCK


def test_crlf_split_at_a_block_boundary_is_one_line_end(tmp_path, monkeypatch):
    """A ``\\r\\n`` whose ``\\r`` ends a read is one line end, between bare
    ``\\r`` lines: the lines after it are numbered as text reading does."""
    text = b"10 20\r" * 1364 + b"1 23456\r\n" + b"30 40\r" * 3000 + b"7 y\r"
    assert text[SMALL_BLOCK - 1 : SMALL_BLOCK + 1] == b"\r\n"
    (rows, error), _ = _spans_blocks(text, tmp_path, monkeypatch)
    assert [len(chunk) for chunk in rows] == [4096]  # the chunk the bad line cuts is lost
    assert error is not None and f":{1364 + 1 + 3000 + 1}: " in error[1]
