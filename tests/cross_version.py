"""List each argv of test_cli.CLI_CONTRACT whose exit code, stdout or
stderr differ among interpreters; pytest does not collect this file.

    python tests/cross_version.py [PYTHON ...]

Each interpreter, python3.11, python3.12 and python3.13 by default,
runs foliar.cli.main in-process on this checkout's src, with -W error.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).parent
SRC = str(HERE.parent / "src")
sys.path[:0] = [str(HERE), SRC]
from test_cli import CLI_CONTRACT  # noqa: E402

CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from foliar.cli import main
def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]
json.dump([run(argv) for argv in json.load(sys.stdin)], sys.stdout)
"""


def main(pythons):
    argvs = [argv for argv, *_ in CLI_CONTRACT.values()]
    runs = {
        python: json.loads(subprocess.run(
            [python, "-W", "error", "-c", CHILD, SRC],
            input=json.dumps(argvs), capture_output=True, text=True,
            check=True,
        ).stdout)
        for python in pythons
    }
    differ = [i for i in range(len(argvs))
              if len({json.dumps(got[i]) for got in runs.values()}) > 1]
    for i in differ:
        print(json.dumps(argvs[i])[:200])
        for python, got in runs.items():
            print(f"  {python}: {json.dumps(got[i])[:200]}")
    print(f"{len(differ)} of {len(argvs)} argv differ across", *pythons)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["python3.11", "python3.12", "python3.13"]))
