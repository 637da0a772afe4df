"""The text rows of the per-face CSV and of mesh files, from plain numbers.

Standard library only, so it also runs as a worker, ``python -S -I
_rowtext.py``, which starts far faster than the package imports.  The worker
reads ``(block_rows, [(form, n_rows, [(typecode, column bytes), ...]),
...])`` in ``marshal`` form on stdin and writes the rows on stdout, a
temporary file, ``block_rows`` rows at a time as it formats them.
"""

from __future__ import annotations

import itertools
import marshal
import sys

# the form of the per-face CSV rows; any other form is a %-format of one row
CSV = "csv"


def column_rows(form: str, columns, start: int, stop: int) -> list:
    """Each column's values of rows ``start`` to ``stop - 1``."""
    cells = 1 if form == CSV else form.count("%")
    return [col[start * cells:stop * cells] for col in columns]


def rows_text(form: str, columns, start: int, stop: int) -> str:
    """The text of rows ``start`` to ``stop - 1`` of numpy arrays or memoryviews.

    A CSV row has the face id, the seven float columns as ``repr`` (``k`` and
    ``eps_mu`` empty on a folded face) and the folded flag; no cell needs
    quoting, so these are the bytes of ``csv.writer``'s default dialect.  A
    %-format reads the cells of each row in turn from one flat column.
    """
    columns = [col.tolist() for col in column_rows(form, columns, start, stop)]
    if form != CSV:
        return (form * (stop - start)) % tuple(columns[0])
    ids, *floats, folded = columns
    abs_mu, k, eps_mu, avg, c0, c1, c2 = (list(map(repr, col)) for col in floats)
    for i in itertools.compress(range(stop - start), folded):
        k[i] = eps_mu[i] = ""
    rows = zip(map(str, ids), abs_mu, k, eps_mu, avg, c0, c1, c2,
               map(("false", "true").__getitem__, folded))
    return "\r\n".join(map(",".join, rows)) + "\r\n"


def write_share(write, share, block_rows: int) -> None:
    """``write`` the text of each ``(form, columns, start, stop)`` in turn, in
    blocks of ``block_rows``, which bound the Python objects made for it."""
    for form, columns, start, stop in share:
        for a in range(start, stop, block_rows):
            write(rows_text(form, columns, a, min(a + block_rows, stop)))


def _serve(stdin, stdout) -> None:
    block_rows, pieces = marshal.load(stdin)
    share = [(form, [memoryview(data).cast(code) for code, data in columns], 0, n)
             for form, n, columns in pieces]
    write_share(lambda text: stdout.write(text.encode("ascii")), share, block_rows)


if __name__ == "__main__":
    _serve(sys.stdin.buffer, sys.stdout.buffer)
