"""``python -m repro serve ...`` with the benchmark's span wrappers.

    python benchmarks/e2e/serve_traced.py TRACE_JSON serve --listen ...

Installs :func:`tracing.install`, hands the remaining arguments to
repro's CLI unchanged, and writes the spans plus the process's codegen
counters to TRACE_JSON when the server exits.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.__main__ import main as cli
    from repro.kernels.codegen import codegen_stats

    try:
        return cli(argv)
    finally:
        tracer.dump(out, extra={"codegen": codegen_stats()})


if __name__ == "__main__":
    sys.exit(main())
