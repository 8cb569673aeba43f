"""The ``wadc`` process entry, behind ``python -m wadc`` and the ``wadc``
script: one process, one command, then exit."""

import gc
import sys

from .cli import main


def run():
    """Run the command on ``sys.argv`` and return its exit code.

    The numpy and SciPy imports leave about 40,000 objects that live
    until exit in the collector's care, and the interpreter's finalization
    runs full collections over them whether or not the collector is
    enabled: most of the time a process takes to exit.  Frozen here, once
    ``cli`` and its imports are loaded, they are never scanned again; the
    run's own objects are collected as before.  ``cli.main`` leaves the
    collector as it is, for the callers that run it in a process of their
    own."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
