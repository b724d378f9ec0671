"""The one exception type of the package.

A HilbertSignsError means the input was wrong: a document, a file or a
flag.  cli.main prints its message on one line and exits 2.  A function
called wrong from inside the package raises ValueError, and any
exception other than HilbertSignsError is a bug that keeps its traceback.
"""


class HilbertSignsError(Exception):
    """The input was wrong; the message says which rule it broke."""
