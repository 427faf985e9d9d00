"""Loss-trace rows as CSV text: the chunk formatter, the packed row and the helper.

This module imports nothing but ``sys``, so that it also runs as a bare
helper interpreter (``python -I -S tracetext.py``) that starts in about
14 ms instead of importing numpy and scipy.  ``loss.LossTraceWriter``
hands each block of a long trace's rows to such a helper of its own and
formats a trace too short for two helpers itself; both run
``encoded_chunks``, so the bytes do not depend on how many helpers ran.

A row is packed as seven native 8-byte fields in ``COLUMNS`` order:
``epoch``, ``sample_id`` and ``selected`` (0 or 1) as int64, the four
floats as float64, ``ROW_BYTES`` in all.  Packed rows concatenate, so a
helper's stdin is just its block's rows, sent whenever training hands the
writer some of them and closed as soon as the block is complete.  The
helper reads its stdin to the end in one call and writes the block's text
to stdout only then, so neither side ever blocks on a full pipe while the
other still writes; the text waits in the helper until the writer copies
it into the trace.  Input that is not a whole number of rows makes the
helper exit 1 with a message on stderr.
"""

import sys

# The trace's columns, in file order.
COLUMNS = ("epoch", "sample_id", "input_loss", "kappa", "threshold", "value", "selected")
HEADER = (",".join(COLUMNS) + "\r\n").encode()
ROW_BYTES = 8 * len(COLUMNS)
# Rows are formatted this many at a time; one chunk's text is the
# formatter's working memory.
CHUNK_ROWS = 1024
_SELECTED = ("false\r\n", "true\r\n")


def encoded_chunks(rows):
    """Yield the text of the packed rows in rows as UTF-8, CHUNK_ROWS rows at a time.

    rows is a C-contiguous bytes-like of whole packed rows.  Floats are
    written with repr so a reload round-trips bit-exactly.  The threshold
    holds at most two values per epoch, so it is repr'd once per distinct
    bit pattern in a chunk (bits, not values, keep -0.0 apart from 0.0).
    Every line ends in \\r\\n.
    """
    raw = memoryview(rows).cast("B")
    q, d = raw.cast("q"), raw.cast("d")
    width = len(COLUMNS)
    for a in range(0, len(q), CHUNK_ROWS * width):
        b = min(a + CHUNK_ROWS * width, len(q))
        epoch, sample_id, bits, selected = (q[a + j:b:width].tolist() for j in (0, 1, 4, 6))
        loss, kappa, threshold, value = (d[a + j:b:width].tolist() for j in (2, 3, 4, 5))
        threshold_text = {k: repr(t) for k, t in dict(zip(bits, threshold)).items()}
        yield "".join(map(",".join, zip(
            map(str, epoch), map(str, sample_id), map(repr, loss), map(repr, kappa),
            map(threshold_text.__getitem__, bits), map(repr, value),
            map(_SELECTED.__getitem__, selected),
        ))).encode()


def _helper_main():
    """Format the packed rows that arrive on stdin; write their text to stdout."""
    data = sys.stdin.buffer.read()
    if len(data) % ROW_BYTES:
        print(f"tracetext: {len(data)} bytes of input are not whole {ROW_BYTES}-byte rows",
              file=sys.stderr)
        return 1
    # all of the text before any is written: the writer reads it only when it
    # copies this block, and a full pipe would stop the formatting until then
    sys.stdout.buffer.writelines(list(encoded_chunks(data)))
    return 0


if __name__ == "__main__":
    sys.exit(_helper_main())
