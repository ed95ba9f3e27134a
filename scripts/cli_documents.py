"""Write every CLI document of the shipped chains, for a byte-for-byte comparison.

Runs each of the 9 commands in both formats on each chain in chains/, with
default options, through ``skipfree.cli.run``.  The stdout of each run goes
to DIR/<chain>.<command>.<format>, and the exit codes to DIR/exit_codes.csv.
Two checkouts then compare with one ``diff -r``:

    PYTHONPATH=src python scripts/cli_documents.py --out DIR

LAPACK and BLAS kernels differ in the last bit across hosts, so compare only
runs made on the same host.
"""

import argparse
import contextlib
import io
import pathlib

from skipfree.cli import COMMANDS, RunConfig, run

REPO = pathlib.Path(__file__).resolve().parents[1]
FORMATS = ("csv", "json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, required=True,
                        help="directory to write the documents to")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    codes = ["chain,command,format,exit_code"]
    for path in sorted((REPO / "chains").glob("*.json")):
        for command in COMMANDS:
            for fmt in FORMATS:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = run(RunConfig(command=command, input_path=str(path), output_format=fmt))
                (args.out / f"{path.stem}.{command}.{fmt}").write_text(stdout.getvalue())
                codes.append(f"{path.stem},{command},{fmt},{code}")
    (args.out / "exit_codes.csv").write_text("\n".join(codes) + "\n")
    print(f"wrote {len(codes) - 1} documents to {args.out}")


if __name__ == "__main__":
    main()
