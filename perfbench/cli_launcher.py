"""Run one fracdim command with the layer wrappers installed.

    python perfbench/cli_launcher.py SPANS_JSON [fracdim arguments ...]

Behaves like ``python -m fracdim.cli``: same arguments, output and exit
code.  When the command exits it writes its spans to SPANS_JSON: a root
"cli.import" span for ``import fracdim.cli`` and a root "cli.main" span for
the command, under which the layer spans nest.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (stdlib only, so the import span stays clean)


def main(argv):
    spans_path, args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    code = 1
    try:
        with tracer.span("cli.import"):
            import fracdim.cli
        with tracing.installed(tracer):
            try:
                with tracer.operation(0, "cli.main"):
                    fracdim.cli.main.main(args=args, prog_name="fracdim", standalone_mode=True)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        Path(spans_path).write_text(json.dumps({"spans": tracer.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
