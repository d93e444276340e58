"""Every edge-list reader shares one grammar: the block parser's.

``FileEdgeStream.__iter__``, ``iter_chunks``, ``read_edgelist`` and a
``write_tape`` conversion read through the same parser, so on each line
below they give the same rows, or fail with the same
:class:`~repro.errors.StreamError` naming ``path:lineno``; ``repro stats``
and ``repro estimate`` report that error as their one stderr line.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import StreamError
from repro.io import read_edgelist
from repro.streams import FileEdgeStream, MmapEdgeStream, write_tape

INT64_MAX = (1 << 63) - 1

#: line -> its canonical edge, or the error after ``path:3: ``.
CASES = {
    "1_000 2": "non-integer vertex in '1_000 2'",
    "١ 2": "non-integer vertex in '١ 2'",
    "99999999999999999999 1": "vertex id out of int64 range in '99999999999999999999 1'",
    "9223372036854775807 1": (1, INT64_MAX),
    "1 2#c": (1, 2),
    "+3 4": (3, 4),
    "007 8": (7, 8),
    "1\t2": (1, 2),
    "1 2 3": (1, 2),
    "x 1": "non-integer vertex in 'x 1'",
    "7": "expected 'u v', got '7'",
}


def _readers(path, tmp_path):
    def tape_rows():
        tape = tmp_path / "edges.etape"
        write_tape(path, tape)
        return list(MmapEdgeStream(tape))

    return {
        "__iter__": lambda: list(FileEdgeStream(path)),
        "iter_chunks": lambda: [
            tuple(row) for chunk in FileEdgeStream(path).iter_chunks() for row in chunk.tolist()
        ],
        "read_edgelist": lambda: read_edgelist(path).edge_list(),
        "write_tape": tape_rows,
    }


def _outcome(read):
    try:
        return sorted(read())
    except StreamError as exc:
        return str(exc)


@pytest.mark.parametrize("line", list(CASES), ids=ascii)
def test_every_reader_shares_the_grammar(line, tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_text(f"# header\n5 6\n{line}\n0 9\n", encoding="utf-8")
    expected = CASES[line]
    if isinstance(expected, str):
        expected = f"{path}:3: {expected}"
    else:
        expected = sorted([(0, 9), (5, 6), expected])
    for name, read in _readers(path, tmp_path).items():
        assert _outcome(read) == expected, name
    if isinstance(expected, str):
        for argv in (["stats", str(path)], ["estimate", str(path), "--kappa", "2"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"repro {argv[0]}: {expected}\n"
    else:
        assert main(["stats", str(path)]) == 0


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_line_ends_count_as_text_mode_reading_does(ending, tmp_path, capsys):
    path = tmp_path / "edges.txt"
    path.write_bytes(f"# header{ending}1 2{ending}{ending}3 4{ending}".encode())
    for name, read in _readers(path, tmp_path).items():
        assert _outcome(read) == [(1, 2), (3, 4)], name
    path.write_bytes(f"# header{ending}1 2{ending}{ending}3 x{ending}5 6".encode())
    expected = f"{path}:4: non-integer vertex in '3 x'"
    for name, read in _readers(path, tmp_path).items():
        assert _outcome(read) == expected, name
    assert main(["stats", str(path)]) == 2
    assert capsys.readouterr().err == f"repro stats: {expected}\n"


def test_the_line_number_counts_blocks_before_it(tmp_path, monkeypatch):
    """A malformed line after several fast-path and fallback blocks is
    numbered from the start of the file."""
    import repro.streams.file as file_module

    monkeypatch.setattr(file_module, "_BLOCK_BYTES", file_module._TEXT_CHUNK)
    good = "".join(f"{i} {i + 1}\n" for i in range(3000))
    mixed = "".join(f"{i}\t{i + 1}\n# note\n\n" for i in range(3000))
    path = tmp_path / "edges.txt"
    path.write_text(good + mixed + "7 oops\n" + good, encoding="utf-8")
    expected = f"{path}:{3000 + 3 * 3000 + 1}: non-integer vertex in '7 oops'"
    for chunk_size in (1, 1000, 65536):
        with pytest.raises(StreamError) as error:
            for _ in FileEdgeStream(path).iter_chunks(chunk_size):
                pass
        assert str(error.value) == expected


def test_an_accepted_line_is_never_named(tmp_path):
    """``1 2#c`` parses, so the error names the malformed line after it (a
    per-line ``int()`` re-scan named the ``1 2#c`` line)."""
    path = tmp_path / "edges.txt"
    path.write_text("1 2#c\n3 4\nx y\n", encoding="utf-8")
    expected = f"{path}:3: non-integer vertex in 'x y'"
    for name, read in _readers(path, tmp_path).items():
        assert _outcome(read) == expected, name
