"""One operation per workload, the check of its outputs, and the timed loop.

An operation is timed from its first call into the program to its last;
extracting and checking the outputs happens after the clock stops.  The
program is reached through module attributes (``sf.law.build_law``) at call
time, so the tracer can wrap them from outside.

Nothing here imports skipfree: the worker passes the modules in, and the
``cli`` workload reaches the program only through a fresh interpreter.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from collections import Counter

import checks

SAMPLE_PATHS = 10_000


# --- laws -------------------------------------------------------------------

def laws_perform(sf, item):
    chain = sf.chains.parse_chain(item["text"])
    law = sf.law.build_law(chain)
    mean, variance = sf.law.moments(law)
    phases = sf.law.phase_representation(law)
    table = sf.law.pmf_table(law) if item["kind"] == "discrete" else None
    return law, mean, variance, phases, table


def laws_judge(item, out):
    law, mean, variance, phases, table = out
    ref = item["ref"]
    margins = checks.moments(mean, variance, ref["mean"], ref["variance"])
    margins.update(checks.spectrum(law.spectrum.values, ref["eigs"]))
    params = phases if isinstance(phases, tuple) else None  # else NotApplicable
    margins.update(checks.phases(params, item["kind"], ref["eigs"]))
    if table is not None:
        margins.update(checks.pmf(table.support, table.mass_or_density, ref["pmf"]))
    return margins


# --- crosscheck -------------------------------------------------------------

def crosscheck_perform(sf, item):
    chain = item["chain"]
    law = sf.law.build_law(chain)
    if item["kind"] == "discrete":
        tables = [sf.law.pmf_table(law)]
    else:
        tables = [sf.law.pdf_cdf_table(law)]
        if item["pf"]:
            tables.append(sf.law.pdf_cdf_table(law, method="uniformization"))
    reports = sf.verify.verification_reports(chain, seed=item["seed"])
    cfg = sf.oracle.SamplerConfig(seed=item["seed"], paths=SAMPLE_PATHS)
    samples = sf.oracle.sample_hitting_times(chain, cfg)
    return law, tables, reports, samples


def crosscheck_judge(item, out):
    law, tables, reports, samples = out
    ref = item["ref"]
    margins = checks.spectrum(law.spectrum.values, ref["eigs"])
    for i, t in enumerate(tables):
        if item["kind"] == "discrete":
            got = checks.pmf(t.support, t.mass_or_density, ref["pmf"])
        else:
            got = checks.cdf_table(t.support, t.mass_or_density, t.cumulative,
                                   ref["grid"], ref["density"], ref["cdf"])
        margins.update({f"{name}[{i}]": m for name, m in got.items()})
    margins.update(checks.reports([(n, r.max_abs_err, r.passed) for n, r in reports]))
    margins.update(checks.samples(samples, item["kind"], item["d"], SAMPLE_PATHS,
                                  ref["mean"], ref["variance"]))
    return margins


# --- cli --------------------------------------------------------------------

def cli_subprocess(timeout):
    """Run one CLI call in a fresh interpreter, as a shell user would.

    The child inherits this process's environment, which puts the program
    on its path.
    """
    def perform(item):
        proc = subprocess.run(
            [sys.executable, "-m", "skipfree.cli", *item["argv"]],
            capture_output=True, text=True, timeout=timeout, check=False,
        )
        return proc.returncode, proc.stdout
    return perform


def cli_in_process(sf):
    """Run one CLI call through ``cli.run`` in this interpreter (traced runs)."""
    def perform(item):
        args = sf.cli.build_parser().parse_args(item["argv"])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = sf.cli.run(sf.cli.config_from_args(args))
        return code, buf.getvalue()
    return perform


def cli_judge(item, out):
    code, text = out
    if code != 0:
        return {"exit_code": math.inf}
    doc, ref, command = item["doc"], item["ref"], item["argv"][0]
    got = json.loads(text)
    if command == "validate":
        ok = got == {"valid": True, "type": doc["type"], "d": doc["d"]}
        return {"validate": 0.0 if ok else math.inf}
    if command == "spectrum":
        return checks.spectrum(_complex(got["values"]), ref["eigs"])
    if command == "law":
        margins = checks.denominator(got["denom"], got["leading"], doc, ref["eigs"])
        margins.update(checks.spectrum(_complex(got["spectrum"]["values"]), ref["eigs"]))
        margins.update(checks.phases(got["phase_parameters"], doc["type"], ref["eigs"]))
        return margins
    if command == "moments":
        return checks.moments(got["mean"], got["variance"], ref["mean"], ref["variance"])
    if command == "pmf":
        return checks.pmf(got["support"], got["mass_or_density"], ref["pmf"])
    if command in ("pdf", "cdf"):
        return checks.cdf_table(got["support"], got["mass_or_density"], got["cumulative"],
                                ref["grid"], ref["density"], ref["cdf"])
    if command == "sample":
        return checks.samples(got, doc["type"], doc["d"], SAMPLE_PATHS,
                              ref["mean"], ref["variance"])
    if command == "verify":
        return checks.reports([(r["check"], r["max_abs_err"], r["passed"]) for r in got])
    raise ValueError(f"no check for command {command!r}")


def _complex(values):
    return [complex(v["real"], v["imag"]) for v in values]


# --- the timed loop ---------------------------------------------------------

PROBE = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "for m in sys.argv[1:]:\n"
    "    importlib.import_module(m)\n"
    "print(time.perf_counter() - t)\n"
)
PROBE_TIMEOUT = 60


def import_seconds(modules):
    """Import time of ``modules`` in a fresh interpreter.

    The child inherits this process's environment, which puts the program
    on its path.
    """
    proc = subprocess.run([sys.executable, "-c", PROBE, *modules], capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT, check=True)
    return float(proc.stdout)


def run_rounds(rounds, perform, judge, seconds, probe=None, probes=0):
    """Closed loop, one operation at a time, in whole rounds.

    Rounds are taken in turn until ``seconds`` of wall time have passed;
    the round in progress then finishes, so every run attempts whole rounds
    and the failed share stays exactly that of one round.  ``probe``, when
    given, is called ``probes`` times between operations, at evenly spaced
    moments of the first ``seconds``, outside any timed span.  Returns the
    per-operation latencies in seconds, the failed count, a tally of failed
    checks by name, the keys of the items that failed and the probe values.
    """
    latencies, tally, bad_items, probed = [], Counter(), set(), []
    failed = 0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for item in rounds[r % len(rounds)]:
            if probe and len(probed) < probes and (
                    time.perf_counter() - start >= seconds * len(probed) / probes):
                probed.append(probe())
            t0 = time.perf_counter()
            try:
                out = perform(item)
            except Exception as exc:  # a failed operation is data, not the end of the run
                latencies.append(time.perf_counter() - t0)
                margins = {f"raised:{type(exc).__name__}": math.inf}
            else:
                latencies.append(time.perf_counter() - t0)
                try:
                    margins = judge(item, out)
                except (KeyError, TypeError, ValueError) as exc:
                    margins = {f"malformed:{type(exc).__name__}": math.inf}
            bad = checks.failed_names(margins)
            if bad:
                failed += 1
                tally.update(bad)
                bad_items.add(item["key"])
        r += 1
    while probe and len(probed) < probes:  # the last round ended before its moment
        probed.append(probe())
    return latencies, failed, tally, bad_items, probed
