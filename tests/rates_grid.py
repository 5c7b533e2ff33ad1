"""The grid of `cubeforms rates` runs that tests/test_cli.py pins to
tests/rates_grid.txt: P and Qminus for n = 2, 3 and k = 0..2, serendipity
for n = 2, 3, SLambda1_2d, and one custom space.  Prints each command line,
then its output.  Run from the repository root with cubeforms importable:

    PYTHONPATH=src python tests/rates_grid.py
"""

import contextlib
import io
import shlex
import sys

GRID = (
    [
        ["rates", "--kind", kind, "--n", str(n), "--k", str(k), "--r", "1..4"]
        for kind in ("P", "Qminus")
        for n in (2, 3)
        for k in range(3)
    ]
    + [["rates", "--kind", "serendipity", "--n", str(n), "--r", "1..4"] for n in (2, 3)]
    + [
        ["rates", "--kind", "SLambda1_2d", "--n", "2", "--k", "1", "--r", "1..5"],
        ["rates", "--kind", "custom", "--n", "2", "--k", "1",
         "--forms", "dx(1); x2*dx(1); dx(2); x1*dx(2)"],
    ]
)


def render() -> str:
    """Every grid command line and its output; raises if a run fails."""
    from cubeforms import cli

    out = []
    for argv in GRID:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cubeforms {shlex.join(argv)} exited {code}")
        out.append(f"$ cubeforms {shlex.join(argv)}\n{buf.getvalue()}")
    return "".join(out)


if __name__ == "__main__":
    sys.stdout.write(render())
