"""Write every CLI document of the shipped chains, for a byte-for-byte comparison.

Runs each of the 9 commands in both formats on each chain in chains/, with
default options, through the CLI's own parser and ``skipfree.cli.run``.  The
stdout of each run goes to DIR/<chain>.<command>.<format>, and the exit
codes to DIR/exit_codes.csv.  Exits 1, after writing everything, if a
``--format json`` run printed anything that is not one JSON document.  Two
checkouts then compare with one ``diff -r``:

    PYTHONPATH=src python scripts/cli_documents.py --out DIR

LAPACK and BLAS kernels differ in the last bit across hosts, so compare only
runs made on the same host.
"""

import argparse
import contextlib
import io
import json
import pathlib
import sys

from skipfree.cli import COMMANDS, build_parser, run

REPO = pathlib.Path(__file__).resolve().parents[1]
FORMATS = ("csv", "json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, required=True,
                        help="directory to write the documents to")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    cli = build_parser()
    codes = ["chain,command,format,exit_code"]
    not_json = []
    for path in sorted((REPO / "chains").glob("*.json")):
        for command in COMMANDS:
            for fmt in FORMATS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = run(cli.parse_args([command, str(path), "--format", fmt]))
                name = f"{path.stem}.{command}.{fmt}"
                text = stdout.getvalue()
                (args.out / name).write_text(text)
                codes.append(f"{path.stem},{command},{fmt},{code}")
                if fmt == "json" and text and not _is_json(text):
                    not_json.append(name)
    (args.out / "exit_codes.csv").write_text("\n".join(codes) + "\n")
    print(f"wrote {len(codes) - 1} documents to {args.out}")
    if not_json:
        print(f"error: not a JSON document: {', '.join(not_json)}", file=sys.stderr)
        return 1
    return 0


def _is_json(text):
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
