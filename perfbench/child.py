"""Child process of the benchmark: one froblab CLI run.

    python3 child.py LIMIT_MB TRACE_FILE CLI_ARGS...

Sets an address-space limit on this process only, then runs
`froblab.cli.main(CLI_ARGS)` and exits with its code.  TRACE_FILE "-"
runs untraced; any other value runs under span tracing and writes the
trace there.
"""

import resource
import sys


def main() -> int:
    limit = int(sys.argv[1]) << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    trace_file, argv = sys.argv[2], sys.argv[3:]
    if trace_file == "-":
        from froblab.cli import main as cli_main

        return cli_main(argv)
    import tracing

    return tracing.traced_main(argv, trace_file)


if __name__ == "__main__":
    sys.exit(main())
