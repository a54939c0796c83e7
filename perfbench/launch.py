"""Start the walklab CLI as its console script does, and time the import.

    python3 perfbench/launch.py STAMP_FILE TRACE_FILE|- CLI_ARGS...

Writes time.monotonic_ns() to STAMP_FILE as soon as `import walklab.cli`
returns; the caller subtracts its own reading from before it started this
process, which gives the set-up time from process start. With a TRACE_FILE
instead of `-`, wraps the layer functions (see tracing.py) before main()
runs and writes the recorded spans there once main() has returned.
"""
import sys
import time

HERE = sys.path.pop(0)  # this directory must not shadow the CLI's imports

started = time.perf_counter_ns()
import walklab.cli  # noqa: E402

imported = time.monotonic_ns()
import_ns = time.perf_counter_ns() - started

stamp_path, trace_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
with open(stamp_path, "w") as fh:
    fh.write(str(imported))

if trace_path == "-":
    sys.exit(walklab.cli.main(cli_args))

sys.path.insert(0, HERE)
import tracing  # noqa: E402

recorder = tracing.install()
try:
    code = walklab.cli.main(cli_args)
finally:
    recorder.dump(trace_path, import_ns)
sys.exit(code)
