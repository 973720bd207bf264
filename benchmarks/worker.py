"""Run one macx command in a fresh interpreter and report how it went.

Reads one JSON request on stdin: ``argv`` for ``macx.cli.main``, ``files``
(name -> text) to write into ``workdir`` first, ``trace`` (wrap the layers
with :mod:`spans`) and ``setup_only`` (stop just before the command). Writes
one JSON object on stdout: ``t_start`` (the ``time.perf_counter`` reading
when the command starts; on Linux this clock is system-wide, so the parent
can subtract its spawn time), and unless ``setup_only`` the command's
seconds, exit code, captured stdout and peak resident set.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; not meant to be run by
hand.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

from macx import cli


def peak_rss_kb():
    """High-water resident set of this process's own address space.

    ``ru_maxrss`` is not used: Linux carries the high-water mark of the
    address space replaced by ``execve`` into it, so a worker would report at
    least the size of the benchmark process that spawned it."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    req = json.load(sys.stdin)
    os.chdir(req["workdir"])
    for name, text in req["files"].items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    tracer = None
    if req["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    t_start = time.perf_counter()
    out = {"t_start": t_start}
    if not req["setup_only"]:
        buf = io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(req["argv"])
        except Exception:
            rc, error = None, traceback.format_exc()
        out["seconds"] = time.perf_counter() - t_start
        out["rss_kb"] = peak_rss_kb()
        out.update(rc=rc, error=error, stdout=buf.getvalue())
        if tracer is not None:
            out["trace"] = tracer.summary(out["seconds"])
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
