"""Approximation exponents of b-ary digit streams over restricted
denominator sequences, explicit Cantor-type constructions with prescribed
exponent pairs, and the closed-form dimension bounds they realize.

Import the submodules directly (`from dioph_lab import dimfx`): the package
itself loads none of them, nor `fractions`.  It holds the three names the
command line reads before any command runs, each defined here once and
imported by the layers that use it: `InvariantError`, which `cli.main`
catches, and the mode names of the box-counting estimator.
"""

__version__ = "0.1.0"

ALL_DEPTHS = "all-depths"     # boxdim: least-squares slope over every depth
AT_BLOCK_ENDS = "block-ends"  # boxdim: liminf surrogate at block ends


class InvariantError(Exception):
    """A library invariant failed: a bug or corrupted input, never a user error.

    Not a ValueError, so handlers for bad input cannot swallow it, and raised
    explicitly, so it survives `python -O`.
    """
