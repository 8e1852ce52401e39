"""Replay every case of tests/data/cli_golden.json and diff stdout byte for byte.

It needs the standard library only, so it runs without site-packages:

    python -I -S tests/golden_replay.py

Each case runs in process, as test_cli.py runs it.  The script prints how
many cases matched, names each case whose exit code or stdout differs on
stderr, and exits 1 if there is one.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from elephantine import cli  # noqa: E402


def main() -> int:
    data = ROOT / "tests" / "data"
    cases = json.loads((data / "cli_golden.json").read_text(encoding="utf-8"))
    differing = 0
    for case in cases:
        argv = [arg.replace("{data}", str(data)) for arg in case["argv"]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        if code != 0 or out.getvalue() != case["stdout"]:
            differing += 1
            print(f"differs (exit {code}): {argv}", file=sys.stderr)
    print(f"{len(cases) - differing} of {len(cases)} cli_golden.json cases byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
