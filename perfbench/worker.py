"""One round of the benchmark: a fresh process runs a job list in-process.

    python3 perfbench/worker.py <checkout root>

Protocol, one JSON object per line:
  stdin   {"jobs": [argv, ...], "trace_file": path or null}
  stdout  "ready" once `cylsym` is imported and the jobs are read, then the
          result object when the last job has finished.

The jobs run one at a time, each through `cylsym.cli.main` with its standard
output captured.  With a trace file, the public functions of `cylsym` are
wrapped by `tracer.Tracer` first and the spans are written to that file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main() -> int:
    src = os.path.join(os.path.abspath(sys.argv[1]), "src")
    sys.path.insert(0, src)
    import cylsym
    import cylsym.cli

    if not os.path.abspath(cylsym.__file__).startswith(src + os.sep):
        print(f"cylsym imported from {cylsym.__file__}, not {src}", file=sys.stderr)
        return 2
    request = json.loads(sys.stdin.readline())
    tracer = None
    if request["trace_file"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(cylsym)
    channel = sys.stdout
    channel.write("ready\n")
    channel.flush()

    results = []
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    for job, argv in enumerate(request["jobs"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.job = job
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cylsym.cli.main(list(argv))
        except Exception as exc:  # a crash fails this job; the round goes on
            code = None
            err.write(repr(exc))
        elapsed = time.perf_counter() - start
        results.append({"exit": code, "seconds": elapsed, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:]})
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    payload = {
        "jobs": results,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.write_spans(request["trace_file"])
        payload["trace"] = tracer.summary()
    channel.write(json.dumps(payload) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
