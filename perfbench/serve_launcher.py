"""Start the serving daemon with the benchmark's tracer installed.

The traced counterpart of ``python -m repro serve --socket PATH``: installs
the wrappers of ``tracer.py`` in the daemon process, calls
``repro.serve.serve_forever`` and, once the daemon has stopped, writes the
spans as JSON lines plus a summary (counters, space peaks, one result
summary per computed job, admission waits).

Usage::

    python3 perfbench/serve_launcher.py --socket PATH --trace-file FILE --summary FILE
"""

from __future__ import annotations

import argparse
import json
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--socket", required=True)
    parser.add_argument("--trace-file", required=True)
    parser.add_argument("--summary", required=True)
    args = parser.parse_args()

    import tracer as tracing
    from repro.serve import serve_forever
    from tape_worker import summarize

    tracer = tracing.Tracer()
    tracing.install(tracer, serve=True)
    code = serve_forever(socket_path=args.socket, echo=lambda line: print(line, flush=True))
    tracer.write_jsonl(args.trace_file)
    with open(args.summary, "w", encoding="utf-8") as out:
        json.dump(
            {
                "counters": dict(tracer.counters),
                "space_peaks": tracing.meter_peaks(tracer.meters),
                "results": [summarize(result) for result in tracer.outcomes],
                "admit_waits": tracer.admit_waits,
            },
            out,
        )
    return code


if __name__ == "__main__":
    sys.path.insert(0, "src")
    sys.exit(main())
