"""Run one cryptomix CLI command with the span recorder installed.

Usage: python bench/cli_traced.py SPAN_FILE SUBCOMMAND [ARGS...]

The traced `cli-cold` operations launch this in place of
`python -m cryptomix.cli`. It writes the spans, the targets that were
absent and whether scipy.optimize was loaded to SPAN_FILE as JSON, and
exits with the CLI's exit code.
"""

import json
import sys

import spans


def main() -> int:
    span_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    import cryptomix.cli as cli

    tracer.install()
    with tracer.span("op", 0):
        code = cli.run_cli(argv)
    tracer.uninstall()
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "spans": spans.span_rows(tracer.spans),
                "absent": tracer.absent,
                "scipy_loaded": "scipy.optimize" in sys.modules,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
