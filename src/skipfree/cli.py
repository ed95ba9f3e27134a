"""Command-line front end.

One command per invocation: validate, spectrum, law, pmf, pdf, cdf,
moments, sample or verify, each taking a chain-spec JSON file and emitting
a CSV or JSON document on stdout (or ``--out``).  All numbers render with
17 significant digits so emitted doubles reconstruct bit-faithfully.

Exit codes: 0 success, 1 invalid input (an :class:`InputError`), 2
numerical failure (a :class:`NumericalError`, or a failed ``verify``), 3 I/O
failure.  Diagnostics go to stderr.
"""

import argparse
import json
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import law as law_mod
from .chains import parse_chain
from .errors import InputError, NumericalError
from .law import DistributionTable
from .oracle import SamplerConfig, sample_hitting_times
from .spectral import DEFAULT_REAL_TOL
from .verify import verification_reports

COMMANDS = ("validate", "spectrum", "law", "pmf", "pdf", "cdf", "moments", "sample", "verify")
HISTOGRAM_COLUMNS = 60

# the commands that build the chain's law, and those of them that print its table
_LAW_COMMANDS = ("spectrum", "law", "moments", "pmf", "pdf", "cdf")
_TABLE_COMMANDS = ("pmf", "pdf", "cdf")


@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation: the command plus every optional override."""

    command: str
    input_path: str
    output_format: str = "csv"
    out: str = None
    eps: float = law_mod.DEFAULT_PMF_EPS
    tol: float = DEFAULT_REAL_TOL
    grid_max: float = None
    grid_points: int = law_mod.DEFAULT_GRID_POINTS
    method: str = "auto"
    seed: int = 2023
    paths: int = 10000
    start_state: int = 0
    histogram: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.output_format!r}")


# the optional fields' defaults, which the parser offers and config_from_args falls back on
_DEFAULTS = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}


def _f17(x):
    return format(float(x), ".17g")


def _cell(x):
    return str(x) if isinstance(x, (int, np.integer)) else _f17(x)


def _histogram_lines(table):
    masses = table.mass_or_density
    top = masses.max() if masses.size else 0.0
    lines = []
    for label, m in zip(table.support.tolist(), masses.tolist()):
        width = 0 if top <= 0.0 else int(round(HISTOGRAM_COLUMNS * m / top))
        lines.append(f"{_cell(label):>12} |{'#' * width}")
    return lines


def emit_table(table, output_format="csv", histogram=False):
    """Render a DistributionTable as a CSV or JSON document string."""
    support, masses, cumulative = (
        table.support.tolist(), table.mass_or_density.tolist(), table.cumulative.tolist()
    )
    if output_format == "json":
        doc = {
            "support": support,
            "mass_or_density": masses,
            "cumulative": cumulative,
            "tail_bound": table.tail_bound,
        }
        text = json.dumps(doc, indent=2)
    else:
        lines = ["n_or_t,mass_or_density,cumulative"]
        for n, m, c in zip(support, masses, cumulative):
            lines.append(f"{_cell(n)},{_f17(m)},{_f17(c)}")
        text = "\n".join(lines)
    if histogram:
        text += "\n" + "\n".join(_histogram_lines(table))
    return text


def parse_table_csv(text):
    """Read a table back from its CSV rendering (tail bound is not encoded)."""

    def cell(token):
        try:
            return int(token)
        except ValueError:
            return float(token)

    rows = [line.split(",") for line in text.strip().splitlines()[1:] if line]
    support = [cell(r[0]) for r in rows]
    masses = [float(r[1]) for r in rows]
    cum = [float(r[2]) for r in rows]
    return DistributionTable(support=support, mass_or_density=masses, cumulative=cum, tail_bound=0.0)


def _kv_csv(pairs):
    return "\n".join(["field,value"] + [f"{k},{v}" for k, v in pairs])


def _doc_validate(chain, fmt):
    if fmt == "json":
        return json.dumps({"valid": True, "type": chain.kind, "d": chain.d})
    return _kv_csv([("valid", "true"), ("type", chain.kind), ("d", chain.d)])


def _doc_spectrum(spectrum, fmt):
    cls = spectrum.classification.value
    if fmt == "json":
        return json.dumps(
            {
                "values": [{"real": v.real, "imag": v.imag} for v in spectrum.values],
                "classification": cls,
                "tolerance_used": spectrum.tolerance_used,
            },
            indent=2,
        )
    lines = ["index,real,imag,classification"]
    for i, v in enumerate(spectrum.values):
        lines.append(f"{i},{_f17(v.real)},{_f17(v.imag)},{cls}")
    return "\n".join(lines)


def _doc_law(law, fmt):
    phases = law_mod.phase_representation(law)
    phase_field = None if phases is None else list(phases)
    if fmt == "json":
        return json.dumps(
            {
                "kind": law.kind,
                "d": law.d,
                "leading": law.leading,
                "denom": list(law.denom.coeffs),
                "spectrum": {
                    "values": [{"real": v.real, "imag": v.imag} for v in law.spectrum.values],
                    "classification": law.spectrum.classification.value,
                },
                "phase_parameters": phase_field,
            },
            indent=2,
        )
    pairs = [("kind", law.kind), ("d", law.d), ("leading", _f17(law.leading))]
    pairs += [(f"denom_{k}", _f17(c)) for k, c in enumerate(law.denom.coeffs)]
    pairs += [
        (f"lambda_{i}", f"{_f17(v.real)}{v.imag:+.17g}j")
        for i, v in enumerate(law.spectrum.values)
    ]
    pairs.append(("classification", law.spectrum.classification.value))
    if phase_field is not None:
        pairs += [(f"phase_{i}", _f17(x)) for i, x in enumerate(phase_field)]
    return _kv_csv(pairs)


def _doc_moments(law, fmt):
    mean, variance = law_mod.moments(law)
    if fmt == "json":
        return json.dumps({"mean": mean, "variance": variance})
    return f"mean,variance\n{_f17(mean)},{_f17(variance)}"


def _doc_samples(samples, fmt):
    values = samples.tolist()
    if fmt == "json":
        return json.dumps(values)
    return "\n".join(["sample"] + [_cell(x) for x in values])


def _doc_verify(reports, fmt):
    if fmt == "json":
        return json.dumps(
            [
                {
                    "check": name,
                    "max_abs_err": r.max_abs_err,
                    "mean_err": r.mean_err,
                    "n_points": r.n_points,
                    "threshold": r.threshold,
                    "passed": r.passed,
                    "margin": r.margin,
                }
                for name, r in reports
            ],
            indent=2,
        )
    lines = ["check,max_abs_err,mean_err,n_points,threshold,passed,margin"]
    for name, r in reports:
        lines.append(
            f"{name},{_f17(r.max_abs_err)},{_f17(r.mean_err)},{r.n_points},"
            f"{_f17(r.threshold)},{str(r.passed).lower()},{_f17(r.margin)}"
        )
    return "\n".join(lines)


def run(config):
    """Execute one command; emits the document and returns the exit code."""
    try:
        with open(config.input_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {config.input_path}: {exc}", file=sys.stderr)
        return 3

    exit_code = 0
    try:
        chain = parse_chain(text)
        fmt = config.output_format
        cmd = config.command
        if cmd in _LAW_COMMANDS:
            law = law_mod.build_law(chain, tol=config.tol)
        if cmd == "validate":
            document = _doc_validate(chain, fmt)
        elif cmd == "spectrum":
            document = _doc_spectrum(law.spectrum, fmt)
        elif cmd == "law":
            document = _doc_law(law, fmt)
        elif cmd == "moments":
            document = _doc_moments(law, fmt)
        elif cmd in _TABLE_COMMANDS:  # the chain's own table, whichever of the three
            if law.kind == "discrete":
                table = law_mod.pmf_table(law, eps=config.eps)
            else:
                grid = law_mod.default_grid(law, config.grid_points, config.grid_max)
                table = law_mod.pdf_cdf_table(law, grid, method=config.method)
            document = emit_table(table, fmt, histogram=config.histogram)
        elif cmd == "sample":
            cfg = SamplerConfig(seed=config.seed, paths=config.paths, start_state=config.start_state)
            document = _doc_samples(sample_hitting_times(chain, cfg), fmt)
        elif cmd == "verify":
            reports = verification_reports(chain, seed=config.seed)
            document = _doc_verify(reports, fmt)
            if not all(r.passed for _, r in reports):
                failed = [name for name, r in reports if not r.passed]
                print(f"error: verification failed: {', '.join(failed)}", file=sys.stderr)
                exit_code = 2
        else:  # unreachable; RunConfig rejects unknown commands
            raise ValueError(config.command)
    except InputError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 2

    try:
        if config.out is None:
            print(document)
        else:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(document + "\n")
    except OSError as exc:
        target = "stdout" if config.out is None else config.out
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
                       default=_DEFAULTS["output_format"],
                       help="output document format (default %(default)s)")
        p.add_argument("--out", default=_DEFAULTS["out"],
                       help="write the document to a file instead of stdout")
        if name in _LAW_COMMANDS:
            p.add_argument("--tol", type=float, default=_DEFAULTS["tol"],
                           help="realness tolerance for spectrum classification, applied "
                                "to v/|v| for a continuous chain")
        if name in _TABLE_COMMANDS:
            p.add_argument("--eps", type=float, default=_DEFAULTS["eps"],
                           help="PMF tables extend until cumulative >= 1-eps")
            p.add_argument("--histogram", action="store_true",
                           help="append a 60-column text histogram")
            p.add_argument("--grid-max", type=float, default=_DEFAULTS["grid_max"],
                           help="largest grid time (default 5x the mean)")
            p.add_argument("--grid-points", type=int, default=_DEFAULTS["grid_points"],
                           help="number of grid points (default %(default)s)")
            p.add_argument("--method", choices=("auto", "partial_fractions", "uniformization"),
                           default=_DEFAULTS["method"], help="density evaluation route")
        if name in ("sample", "verify"):
            p.add_argument("--seed", type=int, default=_DEFAULTS["seed"],
                           help="random seed (default %(default)s)")
        if name == "sample":
            p.add_argument("--paths", type=int, default=_DEFAULTS["paths"],
                           help="number of trajectories (default %(default)s)")
            p.add_argument("--start", dest="start_state", metavar="START", type=int,
                           default=_DEFAULTS["start_state"], help="initial state")
    return parser


def config_from_args(args):
    """The RunConfig of parsed arguments; options a command lacks keep their defaults."""
    ns = vars(args)
    options = {name: ns[name] for name in _DEFAULTS.keys() & ns.keys()}
    return RunConfig(command=ns["command"], input_path=ns["input_path"], **options)


def main(argv=None):
    args = build_parser().parse_args(argv)
    sys.exit(run(config_from_args(args)))


if __name__ == "__main__":
    main()
