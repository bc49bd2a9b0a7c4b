"""Run one heckedual CLI call as the installed console script would.

    python3 bench/launch.py MODE [heckedual arguments...]

MODE "-" runs the call; a file path runs it with the layer tracer installed
and writes its spans there, with one span for ``cli.main``; "--import"
only imports heckedual.cli and "--bare" does nothing, for start-up probes.
Stdout and the exit code are the CLI's own.
"""

import sys


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode == "--bare":
        return 0
    from heckedual import cli

    if mode == "--import":
        return 0
    if mode == "-":
        return cli.main(argv)
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return tracer.span("cli.main", cli.main)(argv)
    finally:
        tracer.dump(mode)


if __name__ == "__main__":
    sys.exit(main())
