"""Loss-trace rows as CSV text: the chunk formatter, the wire format and the helper.

This module imports nothing but ``sys``, so that it also runs as a bare
helper interpreter (``python -I -S tracetext.py``) that starts in about
15 ms instead of importing numpy and scipy.  ``loss.LossTraceWriter``
hands each block of a long trace's rows to such a helper of its own and
formats a trace too short for two helpers itself; both run
``encoded_chunks``, so the bytes do not depend on how many helpers ran.

A helper's stdin carries its block's rows as batches, each made by
``batch``: an 8-byte row count, then the rows' seven column buffers, one
after the other in ``COLUMNS`` order, all in native byte order.  The writer
sends a batch whenever training hands it rows of that block and closes
stdin as soon as the block is complete.  The helper reads its stdin to the
end in one call and writes the block's text to stdout only then, so
neither side ever blocks on a full pipe while the other still writes; the
text waits in the helper until the writer copies it into the trace.  A
batch cut short makes the helper exit 1 with a message on stderr.
"""

import sys

# (name, memoryview typecode) of each trace column, in file order.
COLUMNS = (("epoch", "q"), ("sample_id", "q"), ("input_loss", "d"), ("kappa", "d"),
           ("threshold", "d"), ("value", "d"), ("selected", "B"))
HEADER = (",".join(name for name, _ in COLUMNS) + "\r\n").encode()
# Rows are formatted this many at a time; one chunk's text is the
# formatter's working memory.
CHUNK_ROWS = 1024
_SELECTED = ("false\r\n", "true\r\n")
_WIDTHS = [1 if code == "B" else 8 for _, code in COLUMNS]
_COUNT_BYTES = 8


def encoded_chunks(cols, start, stop):
    """Yield the text of rows [start, stop) as UTF-8, CHUNK_ROWS rows at a time.

    cols holds the seven COLUMNS in order, each C-contiguous.  numpy arrays
    and memoryviews of these typecodes both serve: the formatter only slices
    them, calls tolist() and views the threshold column's bytes as int64.
    Floats are written with repr so a reload round-trips bit-exactly.  The
    threshold holds at most two values per epoch, so it is repr'd once per
    distinct bit pattern in a chunk (bits, not values, keep -0.0 apart from
    0.0).  selected holds 0 or 1.  Every line ends in \\r\\n.
    """
    threshold_bits = memoryview(cols[4]).cast("B").cast("q")
    for a in range(start, stop, CHUNK_ROWS):
        b = min(a + CHUNK_ROWS, stop)
        epoch, sample_id, loss, kappa, threshold, value, selected = (
            c[a:b].tolist() for c in cols)
        bits = threshold_bits[a:b].tolist()
        threshold_text = {k: repr(t) for k, t in dict(zip(bits, threshold)).items()}
        yield "".join(map(",".join, zip(
            map(str, epoch), map(str, sample_id), map(repr, loss), map(repr, kappa),
            map(threshold_text.__getitem__, bits), map(repr, value),
            map(_SELECTED.__getitem__, selected),
        ))).encode()


def batch(cols, start, stop):
    """The wire buffers of rows [start, stop) of the seven contiguous COLUMNS."""
    return [(stop - start).to_bytes(_COUNT_BYTES, sys.byteorder),
            *(c[start:stop] for c in cols)]


def _helper_main():
    """Format the rows whose batches arrive on stdin; write their text to stdout."""
    data = memoryview(sys.stdin.buffer.read())
    text, at = [], 0
    while at < len(data):
        n = int.from_bytes(data[at:at + _COUNT_BYTES], sys.byteorder)
        at += _COUNT_BYTES
        if at + n * sum(_WIDTHS) > len(data):  # also where the row count itself is cut
            print("tracetext: a batch is cut short", file=sys.stderr)
            return 1
        cols = []
        for width, (_, code) in zip(_WIDTHS, COLUMNS):
            cols.append(data[at:at + n * width].cast(code))
            at += n * width
        text += encoded_chunks(cols, 0, n)
    sys.stdout.buffer.writelines(text)
    return 0


if __name__ == "__main__":
    sys.exit(_helper_main())
