"""Loss-trace rows as CSV text: the chunk formatter and the helper that runs it.

This module imports nothing but ``sys``, so that it also runs as a bare
helper interpreter (``python -I -S tracetext.py``) that starts in about
15 ms instead of importing numpy and scipy.  ``loss.write_loss_trace``
formats the first range of a trace's rows itself and hands each further
range to such a helper; both run ``encoded_chunks``, so the bytes do not
depend on how many lanes ran.

As a helper, the module reads its rows from stdin as raw column buffers,
one after the other in ``COLUMNS`` order and native byte order, and writes
their text to stdout only when it has formatted them all, so it never
blocks on a full pipe while the parent is still formatting its own range.
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


def encoded_chunks(cols, threshold_bits, start, stop):
    """Yield the text of rows [start, stop) as UTF-8, CHUNK_ROWS rows at a time.

    cols holds the seven COLUMNS in order and threshold_bits the threshold
    column reinterpreted as int64.  numpy arrays and memoryviews of these
    typecodes both serve: the formatter only slices them and calls tolist().
    Floats are written with repr so a reload round-trips bit-exactly.  The
    threshold holds at most two values per epoch, so it is repr'd once per
    distinct bit pattern in a chunk (bits, not values, keep -0.0 apart from
    0.0).  selected holds 0 or 1.  Every line ends in \\r\\n.
    """
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


def _helper_main():
    """Format the rows whose column buffers arrive on stdin; write their text to stdout."""
    data = memoryview(sys.stdin.buffer.read())
    widths = [1 if code == "B" else 8 for _, code in COLUMNS]
    n, extra = divmod(len(data), sum(widths))
    if extra:
        print(f"tracetext: {len(data)} input bytes are not whole rows", file=sys.stderr)
        return 1
    buffers, offset = [], 0
    for width in widths:
        buffers.append(data[offset:offset + n * width])
        offset += n * width
    cols = [buf.cast(code) for buf, (_, code) in zip(buffers, COLUMNS)]
    text = list(encoded_chunks(cols, buffers[4].cast("q"), 0, n))
    sys.stdout.buffer.writelines(text)
    return 0


if __name__ == "__main__":
    sys.exit(_helper_main())
