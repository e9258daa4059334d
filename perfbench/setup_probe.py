"""One fresh-process CLI invocation for the set-up measurement.

Runs ``grayscott.cli.main`` (the console-script entry point) on the
given arguments; the benchmark times the whole process, so the wall
time covers interpreter start, package import, config parsing and the
first basis, grid plan and integrator a one-step run builds.
"""

import contextlib
import io
import sys

if __name__ == "__main__":
    from grayscott.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(sys.argv[1:])
    sys.exit(code)
