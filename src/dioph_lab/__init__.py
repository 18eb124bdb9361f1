"""Approximation exponents of b-ary digit streams over restricted
denominator sequences, explicit Cantor-type constructions with prescribed
exponent pairs, and the closed-form dimension bounds they realize.

Import the submodules directly (`from dioph_lab import dimfx`): the package
itself loads none of them, nor `fractions`.  It holds the names that more
than one layer reads, each defined here once: `InvariantError`, which
`cli.main` catches, the mode names of the box-counting estimator, and
`write_file`, which writes every output file.
"""

import os

__version__ = "0.1.0"

ALL_DEPTHS = "all-depths"     # boxdim: least-squares slope over every depth
AT_BLOCK_ENDS = "block-ends"  # boxdim: liminf surrogate at block ends


class InvariantError(Exception):
    """A library invariant failed: a bug or corrupted input, never a user error.

    Not a ValueError, so handlers for bad input cannot swallow it, and raised
    explicitly, so it survives `python -O`.
    """


def write_file(path, write, binary=False) -> None:
    """Open `path` for writing (bytes, or text with no newline translation),
    pass the file to `write` and close it: the program's one file writer.

    A write that fails leaves no file behind, since a partial CSV would
    still read and a truncated digit file would load as a shorter stream;
    a device such as /dev/full is never removed.  Every file is closed
    before `cli.main` returns, which `cli.run`'s `os._exit` relies on.
    """
    fh = open(path, "wb") if binary else open(path, "w", newline="")
    try:
        with fh:
            write(fh)
    except OSError:
        if os.path.isfile(path):
            os.remove(path)
        raise
