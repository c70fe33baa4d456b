"""``python -m deadtime`` and the ``deadtime`` script: :func:`deadtime.cli.main`.

As ``python -m deadtime.cli`` does, the launcher sets OPENBLAS_NUM_THREADS
to one, unless it names a count already, before NumPy loads.  Importing
:mod:`deadtime.cli` sets nothing.
"""

import os
import sys


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from deadtime.cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
