"""Run one ``dynbc.cli.main`` invocation in this fresh interpreter.

    python3 perfbench/child.py RECORD MODE -- <dynbc arguments>

MODE is ``run`` (time the subcommand), ``probe`` (return at subcommand
entry, so only set-up is measured) or ``trace`` (run with the layer spans of
``spans.py`` installed and save them to RECORD with ``.npz`` appended).
RECORD receives a JSON object with the monotonic clock at subcommand entry
and exit, the CPU seconds of the subcommand, the exit code of ``main``, the
peak resident set size and the BLAS thread count.  The exit code of this
process is that of ``main``; a traceback means the invocation failed.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def blas_threads():
    """Thread count OpenBLAS runs with, or None when it cannot be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    try:
        getter = ctypes.CDLL(sorted(glob.glob(pattern))[0]).scipy_openblas_get_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None
    getter.restype = ctypes.c_int
    return getter()


def main(argv):
    record_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("run", "probe", "trace"):
        raise SystemExit("usage: child.py RECORD run|probe|trace -- <dynbc arguments>")
    sys.path.insert(0, SRC)
    import dynbc.cli as cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"dynbc was imported from {cli.__file__}, not from {SRC}")
    record = {"mode": mode}
    command_name = cli_args[0]
    command = cli._COMMANDS[command_name]

    def timed(cfg, out, threads):
        record["entry"] = time.monotonic()
        cpu0 = time.process_time()
        if mode == "probe":
            record["exit"], record["cpu_s"] = record["entry"], 0.0
            return 0
        try:
            return command(cfg, out, threads)
        finally:
            record["exit"] = time.monotonic()
            record["cpu_s"] = time.process_time() - cpu0

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    cli._COMMANDS[command_name] = timed
    try:
        code = cli.main(cli_args)
    finally:
        cli._COMMANDS[command_name] = command
        if tracer is not None:
            tracer.uninstall()
    record["exit_code"] = code
    record["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["blas_threads"] = blas_threads()
    if tracer is not None:
        record["restored"] = tracer.restored()
        tracer.save(record_path + ".npz")
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
