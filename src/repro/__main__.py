"""Allow ``python -m repro`` to invoke the command-line interface."""

import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        code = main()
        # Output that fits stdout's buffer reaches a closed pipe only here.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro run ... | head``).  Point stdout at
        # devnull so the interpreter's exit-time flush cannot raise again,
        # and exit non-zero, as Python's ``signal`` documentation advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)
