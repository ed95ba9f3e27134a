"""Spans around the program's public functions, installed from outside.

:class:`Tracer` replaces each traced function, in every ``skipfree`` module
that holds it, with a wrapper that records a span: layer name, start, end,
the span open when it was called (its parent), and for some layers a count
taken from the call.  Spans stay in memory; :func:`layer_metrics` reduces
them to the per-layer metrics when the run ends.
"""

import functools
import statistics
import sys
import time

# layer -> (module, public functions); a layer spans every function listed
LAYERS = {
    "chains.parse": ("chains", ("parse_chain",)),
    "chains.block": ("chains", ("transient_block",)),
    "charpoly.seq": ("charpoly", ("discrete_charpoly_seq", "continuous_charpoly_seq")),
    "spectral.eigen": ("spectral", ("eigenvalues_discrete", "eigenvalues_continuous")),
    "law.build": ("law", ("build_law",)),
    "law.moments": ("law", ("moments",)),
    "law.pmf": ("law", ("pmf_table",)),
    "law.pdf": ("law", ("pdf_cdf_table",)),
    "oracle.profile": ("oracle", ("transient_profile",)),
    "oracle.cdf_unif": ("oracle", ("cdf_by_uniformization",)),
    "oracle.matrix_power": ("oracle", ("pmf_by_matrix_power",)),
    "oracle.solve": ("oracle", ("expected_hitting_times",)),
    "oracle.sample": ("oracle", ("sample_hitting_times",)),
    "verify.reports": ("verify", ("verification_reports",)),
    "cli.run": ("cli", ("run",)),
}


def _last_block(args, kwargs, result):
    """transient_block(chain, n): is this the whole block, n = d - 1?"""
    chain = args[0] if args else kwargs["chain"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return n == chain.d - 1


# layer -> function of (args, kwargs, result) giving the span's count
COUNTS = {
    "chains.block": _last_block,
    "law.pmf": lambda args, kwargs, result: len(result.support),
    "verify.reports": lambda args, kwargs, result: len(result),
}


class Span:
    __slots__ = ("layer", "parent", "start", "end", "count")

    def __init__(self, layer, parent):
        self.layer = layer
        self.parent = parent
        self.start = self.end = None
        self.count = None

    @property
    def ms(self):
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []
        self._patched = []

    def install(self):
        """Wrap every traced function wherever a ``skipfree`` module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "skipfree" or name.startswith("skipfree."))]
        for layer, (module, names) in LAYERS.items():
            home = sys.modules[f"skipfree.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        count = COUNTS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced


def layer_samples(spans):
    """Per-layer-metric lists of per-call values from a list of spans."""
    samples = {}

    def add(metric, value):
        samples.setdefault(metric, []).append(value)

    children = {}
    for s in spans:
        if s.parent is not None and s.end is not None:
            children.setdefault(id(s.parent), []).append(s)
    simple = {
        "chains.parse": "chains.parse_ms",
        "charpoly.seq": "charpoly.seq_ms",
        "spectral.eigen": "spectral.eigen_ms",
        "law.moments": "law.moments_ms",
        "oracle.cdf_unif": "oracle.cdf_unif_ms",
        "oracle.matrix_power": "oracle.matrix_power_ms",
        "oracle.solve": "oracle.solve_ms",
        "oracle.sample": "oracle.sample_ms",
        "cli.run": "cli.run_ms",
    }
    for s in spans:
        if s.end is None:
            continue
        kids = children.get(id(s), [])
        if s.layer in simple:
            add(simple[s.layer], s.ms)
        elif s.layer == "chains.block" and s.count:
            add("chains.block_ms", s.ms)
        elif s.layer == "law.build":
            add("law.build_ms", s.ms)
            inner = sum(k.ms for k in kids if k.layer in ("charpoly.seq", "spectral.eigen"))
            add("law.build_self_ms", s.ms - inner)
        elif s.layer == "law.pmf" and s.count is not None:
            add("law.pmf_ms", s.ms)
            add("law.pmf_terms", s.count)
        elif s.layer == "law.pdf":
            uniformized = any(k.layer == "oracle.profile" for k in kids)
            add("law.pdf_unif_ms" if uniformized else "law.pdf_pf_ms", s.ms)
        elif s.layer == "verify.reports" and s.count is not None:
            add("verify.reports_ms", s.ms)
            add("verify.checks", s.count)
    return samples


def medians(samples):
    """(median, number of calls) per metric."""
    return {metric: (statistics.median(v), len(v)) for metric, v in samples.items()}
