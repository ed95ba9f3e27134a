"""Command-line front end.

One command per invocation: validate, spectrum, law, pmf, pdf, cdf,
moments, sample or verify, each taking a chain-spec JSON file and emitting
a CSV or JSON document on stdout (or ``--out``).  All numbers render with
17 significant digits so emitted doubles reconstruct bit-faithfully.  Each
option and its default is defined once, in :func:`build_parser`, and
:func:`run` reads the namespace it returns.

Exit codes: 0 success, 1 invalid input (an :class:`InputError`), 2
numerical failure (a :class:`NumericalError`, or a failed ``verify``), 3 I/O
failure.  Diagnostics, and a table's ``--histogram`` bars, go to stderr.
"""

import argparse
import json
import sys

import numpy as np

from . import law as law_mod
from .chains import parse_chain
from .errors import InputError, NumericalError
from .oracle import SamplerConfig, sample_hitting_times
from .spectral import DEFAULT_REAL_TOL
from .verify import verification_reports

COMMANDS = ("validate", "spectrum", "law", "pmf", "pdf", "cdf", "moments", "sample", "verify")
HISTOGRAM_COLUMNS = 60

# the commands that build the chain's law, and those of them that print its table
_LAW_COMMANDS = ("spectrum", "law", "moments", "pmf", "pdf", "cdf")
_TABLE_COMMANDS = ("pmf", "pdf", "cdf")


def _f17(x):
    return format(float(x), ".17g")


def _cell(x):
    """One CSV cell: text as it is, a bool in lower case, a number in round-trip digits."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, np.integer)):
        return str(x)
    if isinstance(x, complex):
        return f"{_f17(x.real)}{x.imag:+.17g}j"
    return _f17(x)


def _document(fmt, value, header, rows, indent=2):
    """``value`` as JSON, or ``header`` and the comma-joined ``rows`` as CSV.

    ``rows`` is read only for CSV, so a JSON document formats no CSV cell.
    """
    if fmt == "json":
        return json.dumps(value, indent=indent)
    return "\n".join([header, *(",".join(map(_cell, row)) for row in rows)])


def _histogram_lines(table):
    masses = table.mass_or_density
    top = masses.max() if masses.size else 0.0
    lines = []
    for label, m in zip(table.support.tolist(), masses.tolist()):
        width = 0 if top <= 0.0 else int(round(HISTOGRAM_COLUMNS * m / top))
        lines.append(f"{_cell(label):>12} |{'#' * width}")
    return lines


def emit_table(table, output_format="csv"):
    """Render a DistributionTable as a CSV or JSON document string."""
    support, masses, cumulative = (
        table.support.tolist(), table.mass_or_density.tolist(), table.cumulative.tolist()
    )
    value = {"support": support, "mass_or_density": masses, "cumulative": cumulative,
             "tail_bound": table.tail_bound}
    return _document(output_format, value, "n_or_t,mass_or_density,cumulative",
                     zip(support, masses, cumulative))


def _values(spectrum):
    """A spectrum's values as JSON records."""
    return [{"real": v.real, "imag": v.imag} for v in spectrum.values]


def _doc_spectrum(spectrum, fmt):
    cls = spectrum.classification.value
    value = {"values": _values(spectrum), "classification": cls,
             "tolerance_used": spectrum.tolerance_used}
    rows = ((i, v.real, v.imag, cls) for i, v in enumerate(spectrum.values))
    return _document(fmt, value, "index,real,imag,classification", rows)


def _doc_law(law, fmt):
    # each property is read once, in the document's order: law.denom costs O(d^3) a read
    law_mod.check_phase_mean(law)  # so a spectrum that misses the mean fails before it
    phases = law_mod.phase_representation(law)
    phases = None if phases is None else list(phases)
    head = {"kind": law.kind, "d": law.d, "leading": law.leading}
    coeffs, spectrum = list(law.denom.coeffs), law.spectrum
    cls = spectrum.classification.value
    value = {**head, "denom": coeffs,
             "spectrum": {"values": _values(spectrum), "classification": cls},
             "phase_parameters": phases}
    rows = [*head.items(), *((f"denom_{k}", c) for k, c in enumerate(coeffs))]
    rows += [(f"lambda_{i}", v) for i, v in enumerate(spectrum.values)]
    rows += [("classification", cls)] + [(f"phase_{i}", x) for i, x in enumerate(phases or ())]
    return _document(fmt, value, "field,value", rows)


_VERIFY_FIELDS = ("max_abs_err", "mean_err", "n_points", "threshold", "passed", "margin")


def _doc_verify(reports, fmt):
    value = [{"check": name, **{f: getattr(r, f) for f in _VERIFY_FIELDS}} for name, r in reports]
    return _document(fmt, value, ",".join(("check",) + _VERIFY_FIELDS),
                     (record.values() for record in value))


def run(args):
    """Execute the command of ``args``, the namespace :func:`build_parser` returns.

    Emits the document and returns the exit code.
    """
    try:
        with open(args.input_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input_path}: {exc}", file=sys.stderr)
        return 3

    exit_code = 0
    try:
        chain = parse_chain(text)
        fmt = args.output_format
        cmd = args.command
        if cmd in _LAW_COMMANDS:
            law = law_mod.build_law(chain, tol=args.tol)
        if cmd == "validate":
            value = {"valid": True, "type": chain.kind, "d": chain.d}
            document = _document(fmt, value, "field,value", value.items(), indent=None)
        elif cmd == "spectrum":
            law_mod.check_phase_mean(law)  # a spectrum that misses the mean is not printed
            document = _doc_spectrum(law.spectrum, fmt)
        elif cmd == "law":
            document = _doc_law(law, fmt)
        elif cmd == "moments":
            mean, variance = law_mod.moments(law)
            document = _document(fmt, {"mean": mean, "variance": variance}, "mean,variance",
                                 [(mean, variance)], indent=None)
        elif cmd in _TABLE_COMMANDS:  # the chain's own table, whichever of the three
            if law.kind == "discrete":
                table = law_mod.pmf_table(law, eps=args.eps)
            else:
                grid = law_mod.default_grid(law, args.grid_points, args.grid_max)
                table = law_mod.pdf_cdf_table(law, grid, method=args.method)
            document = emit_table(table, fmt)
            if args.histogram:
                print("\n".join(_histogram_lines(table)), file=sys.stderr)
        elif cmd == "sample":
            cfg = SamplerConfig(seed=args.seed, paths=args.paths, start_state=args.start_state)
            samples = sample_hitting_times(chain, cfg).tolist()
            document = _document(fmt, samples, "sample", ((x,) for x in samples), indent=None)
        elif cmd == "verify":
            reports = verification_reports(chain, seed=args.seed)
            document = _doc_verify(reports, fmt)
            failed = [name for name, r in reports if not r.passed]
            if failed:
                print(f"error: verification failed: {', '.join(failed)}", file=sys.stderr)
                exit_code = 2
    except InputError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2

    try:
        if args.out is None:
            print(document)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(document + "\n")
    except OSError as exc:
        target = "stdout" if args.out is None else args.out
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
        return 3
    return exit_code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skipfree",
        description="Exact hitting-time laws of finite skip-free Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    helps = {
        "validate": "check a chain-spec file against the schema and invariants",
        "spectrum": "print the transient-block eigenvalues and classification",
        "law": "print the hitting law (leading constant, denominator, spectrum)",
        "pmf": "tabulate the absorption-time PMF (a continuous chain gets its density table)",
        "pdf": "tabulate the absorption-time density (a discrete chain gets its PMF table)",
        "cdf": "tabulate the absorption-time CDF (the same table as pmf and pdf)",
        "moments": "print mean and variance of the absorption time",
        "sample": "draw Monte Carlo absorption times",
        "verify": "run every oracle cross-check; exit 0 iff all pass",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("input_path", help="chain-spec JSON file")
        p.add_argument("--format", dest="output_format", choices=("csv", "json"),
                       default="csv", help="output document format (default %(default)s)")
        p.add_argument("--out", help="write the document to a file instead of stdout")
        if name in _LAW_COMMANDS:
            p.add_argument("--tol", type=float, default=DEFAULT_REAL_TOL,
                           help="realness tolerance (on v/|v| for a continuous chain): it "
                                "labels and snaps the spectrum, and picks no route")
        if name in _TABLE_COMMANDS:
            p.add_argument("--eps", type=float, default=law_mod.DEFAULT_PMF_EPS,
                           help="PMF tables extend until cumulative >= 1-eps")
            p.add_argument("--histogram", action="store_true",
                           help="also print a 60-column text histogram, to stderr")
            p.add_argument("--grid-max", type=float,
                           help="largest grid time (default 5x the mean)")
            p.add_argument("--grid-points", type=int, default=law_mod.DEFAULT_GRID_POINTS,
                           help="number of grid points (default %(default)s)")
            p.add_argument("--method", choices=("auto", "partial_fractions", "uniformization"),
                           default="auto", help="density evaluation route")
        if name in ("sample", "verify"):
            p.add_argument("--seed", type=int, default=2023,
                           help="random seed (default %(default)s)")
        if name == "sample":
            p.add_argument("--paths", type=int, default=10000,
                           help="number of trajectories (default %(default)s)")
            p.add_argument("--start", dest="start_state", metavar="START", type=int,
                           default=0, help="initial state")
    return parser


def config_from_args(args):
    """``args`` itself: :func:`run` reads the parsed namespace directly.

    Kept because the benchmark's traced ``cli`` workload calls
    ``run(config_from_args(args))`` (``benchmarks/ops.py``).
    """
    return args


def main(argv=None):
    sys.exit(run(build_parser().parse_args(argv)))


if __name__ == "__main__":
    main()
