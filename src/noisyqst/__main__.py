"""``python -m noisyqst`` and the installed ``noisyqst`` script."""

import gc
import sys


def run() -> int:
    """Run the command line, with the objects made while it imports kept out of the collector.

    numpy's and the package's import-time objects live until exit, yet every
    collection would walk them, the last one at interpreter shutdown too.
    So the collector is off while :mod:`noisyqst.cli` imports, and what the
    import made is frozen before it is switched back on.  Only a launch does
    this: importing the package leaves the collector as it was.
    """
    gc.disable()
    try:
        from .cli import main

        gc.freeze()
    finally:
        gc.enable()
    return main()


if __name__ == "__main__":
    sys.exit(run())
