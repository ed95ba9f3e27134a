"""Exact hitting-time distributions for finite skip-free Markov chains.

Build a chain, then a law, then evaluate:

    >>> from skipfree import parse_chain, build_law, pmf_table
    >>> chain = parse_chain('{"type":"discrete","d":1,"rows":[{"r":0.5,"p":0.5}]}')
    >>> law = build_law(chain)
    >>> pmf_table(law).mass_or_density[:3].tolist()
    [0.5, 0.25, 0.125]
"""

from .chains import (
    ContinuousChain,
    DiscreteChain,
    parse_chain,
    transient_block,
)
from .charpoly import (
    Polynomial,
    continuous_charpoly_seq,
    discrete_charpoly_seq,
)
from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    InputError,
    InvariantError,
    NumericalError,
    PoleError,
    RangeError,
    RunawayPathError,
    SchemaError,
    SkipFreeError,
    TailError,
    ValidationError,
)
from .law import (
    DistributionTable,
    HittingLaw,
    build_law,
    laplace,
    moments,
    pdf_cdf_table,
    pgf,
    phase_representation,
    pmf_table,
    transient_profile,
)
from .oracle import (
    ComparisonReport,
    SamplerConfig,
    cdf_by_uniformization,
    expected_hitting_times,
    geometric_sum_pmf,
    ks_critical_value,
    ks_two_sample,
    pmf_by_matrix_power,
    pmf_by_transform_inversion,
    sample_hitting_times,
)
from .spectral import (
    Spectrum,
    SpectrumClass,
    classify,
    eigenvalues_continuous,
    eigenvalues_discrete,
)
from .verify import verification_reports

__version__ = "0.1.0"
