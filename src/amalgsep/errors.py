"""The one library error class, and the rule for when to raise it.

InputError means the failing data came from outside the program: a file,
a command-line argument, or a value a command checks on the user's
behalf. The CLI maps it to exit code 2. Every other check raises
AssertionError explicitly, so that it also runs under ``python -O``: it
can fail only when amalgsep passed itself bad data, and the CLI reports
it as an internal error (exit code 4).
"""


class InputError(Exception):
    """Malformed or inconsistent input data."""
