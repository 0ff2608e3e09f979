"""Run one plmonster CLI command in a child process with the tracer on.

    python3 perfbench/launcher.py TRACE_OUT ARG...

Times the import of ``plmonster.cli``, wraps every layer (see spans.py),
runs ``plmonster.cli.main(ARG...)`` and exits with its code, exactly as
``python -m plmonster.cli ARG...`` would; stdout and stderr are the
command's own.  The span totals and the import time go to TRACE_OUT as
JSON.
"""

import json
import sys
from time import perf_counter

import spans


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import plmonster.cli

    import_s = perf_counter() - start
    tracer = spans.Tracer()
    tracer.install(spans.library_specs())
    tracer.active = True
    try:
        code = plmonster.cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"import_s": import_s, "trace": tracer.dump()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
