"""Run the stealthguard CLI in this process with the tracer on.

Usage: python3 bench/cli_child.py STATS_JSON CLI_ARGS...

Behaves like ``python -m stealthguard.cli CLI_ARGS...`` (same output, same
exit code, and an escaping exception still prints its traceback and exits
1) and also writes the import time, the number of modules the import
loaded and the per-layer span totals to STATS_JSON.
"""

import json
import sys

from tracer import Tracer, aggregate, import_package


def main() -> None:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    import_s, imported = import_package("stealthguard.cli")
    cli = sys.modules["stealthguard.cli"]
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "imported_modules": imported,
                       "trace": aggregate(tracer.spans, tracer.counts),
                       "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
