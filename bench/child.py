"""Traced CLI child for the cli-mix workload.

    python bench/child.py OUT -- <k3dw arguments>

Installs the layer wrappers, times ``import k3dw.cli``, runs
``k3dw.cli.main`` on the arguments with the real stdout and exit code, and
writes its trace summary to OUT as JSON for the parent to merge.
"""

import time

START = time.monotonic()  # the parent reads spawn time against this

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.stderr.write("usage: child.py OUT -- <k3dw arguments>\n")
        return 1
    t0 = time.perf_counter()
    import k3dw.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = Tracer()
    tracer.import_ms.append(import_ms)
    tracer.install()
    tracer.op = 0
    code = k3dw.cli.main(argv)
    tracer.uninstall()
    sys.stdout.flush()
    Path(out).write_text(json.dumps({"start": START, **tracer.dump()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
