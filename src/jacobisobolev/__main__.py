"""Process entry point of ``python -m jacobisobolev`` and the ``jacobisobolev`` script."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run one command with ``cli.main`` and return its exit code.

    Every object left once the command has returned dies with the process, so
    the collector is frozen and the shutdown collections skip those objects.
    Nothing the package builds needs a cyclic finalizer at exit: reports are
    written inside ``with`` blocks.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
