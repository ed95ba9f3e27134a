"""Benchmark worker: runs one workload's operations in this interpreter.

Started by ``run.py`` with ``src`` on PYTHONPATH; reads one pickled job
from stdin and prints one JSON result line.  It holds the program, numpy
and the job: the inputs and the reference answers they are checked against.

    job = {"workload", "trace", "seconds", "rounds", "fill", "imports", "probes"}

``fill`` maps a workload name to one round of items; a traced run performs
it, untimed and unchecked, for each layer its own operations never reached.
An untraced run times ``probes`` fresh-interpreter imports of ``imports``
between its operations, for ``setup_s``.
"""

import json
import pickle
import sys
from types import SimpleNamespace

import ops
import tracing

LAYER_METRICS = (
    "chains.parse_ms", "chains.block_ms", "charpoly.seq_ms", "spectral.eigen_ms",
    "law.build_ms", "law.build_self_ms", "law.moments_ms", "law.pmf_ms", "law.pmf_terms",
    "law.pdf_pf_ms", "law.pdf_unif_ms", "oracle.cdf_unif_ms", "oracle.matrix_power_ms",
    "oracle.solve_ms", "oracle.sample_ms", "verify.reports_ms", "verify.checks",
    "cli.run_ms",
)


def program():
    import skipfree.chains
    import skipfree.cli
    import skipfree.law
    import skipfree.oracle
    import skipfree.verify

    return SimpleNamespace(chains=skipfree.chains, law=skipfree.law, oracle=skipfree.oracle,
                           verify=skipfree.verify, cli=skipfree.cli)


def operations(sf, workload, traced):
    if workload == "laws":
        return (lambda item: ops.laws_perform(sf, item)), ops.laws_judge
    if workload == "crosscheck":
        return (lambda item: ops.crosscheck_perform(sf, item)), ops.crosscheck_judge
    if workload == "cli" and traced:
        return ops.cli_in_process(sf), ops.cli_judge
    raise ValueError(f"the worker does not run {workload!r} untraced")


def main():
    job = pickle.load(sys.stdin.buffer)
    sf = program()
    # a crosscheck operation starts from a parsed chain; a laws one parses its own
    parsed = list(job["fill"].get("crosscheck", []))
    if job["workload"] == "crosscheck":
        parsed += [item for items in job["rounds"] for item in items]
    for item in parsed:
        item["chain"] = sf.chains.parse_chain(item["text"])

    tracer = tracing.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    perform, judge = operations(sf, job["workload"], bool(tracer))
    probe = None if tracer else (lambda: ops.import_seconds(job["imports"]))
    latencies, failed, tally, bad_items, setup = ops.run_rounds(
        job["rounds"], perform, judge, job["seconds"], probe, job.get("probes", 0))
    result = {"latencies": latencies, "failed": failed, "tally": dict(tally),
              "bad_items": sorted(bad_items), "setup": setup}

    if tracer:
        samples = tracing.layer_samples(tracer.spans)
        for workload, items in job["fill"].items():
            if all(m in samples for m in LAYER_METRICS):
                break
            tracer.spans.clear()
            fill_perform, _ = operations(sf, workload, True)
            for item in items:
                fill_perform(item)
            for metric, values in tracing.layer_samples(tracer.spans).items():
                samples.setdefault(metric, values)
        tracer.uninstall()
        result["layers"] = tracing.medians(samples)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
