"""Approximation exponents of b-ary digit streams over restricted
denominator sequences, explicit Cantor-type constructions with prescribed
exponent pairs, and the closed-form dimension bounds they realize.

Import the submodules directly (`from dioph_lab import dimfx`): the package
itself loads none of them, so a command that needs only exact arithmetic
loads only `dimfx`.
"""

__version__ = "0.1.0"
