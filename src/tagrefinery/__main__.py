"""The console entry: ``tagrefinery`` and ``python -m tagrefinery``.

It parses the command line and resolves its configuration before numpy is
loaded, then sets the BLAS thread variables to the ``threads`` key, whatever
the environment held, and only then loads the stages (and numpy with them).
So a run replays bit for bit for a given ``threads`` value on any machine.
``python -m tagrefinery.cli`` runs the same stages but pins nothing.
"""

import os
import sys

from .config import load_command

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    command = load_command(argv)
    if command is None:
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(command[1]["threads"])
    from .cli import run_stages

    return run_stages(*command)


if __name__ == "__main__":
    sys.exit(main())
