"""Skip-free chain models: validation, JSON ingestion, transient blocks.

A skip-free (upward) chain on {0..d} moves up by exactly one state at a
time; downward jumps are unrestricted.  State d is absorbing and is never
stored explicitly: a discrete chain keeps, per transient state i, the hold
probability r_i, the up probability p_i and the down-jump row q_{i,j}
(j < i); a continuous chain keeps the up rate alpha_i and the down-jump
rates beta_{i,j}.  Chains are plain immutable values holding only those
rows; :func:`transient_block` builds a new dense block from them on every
call.

A discrete row sums to 1 only within ROW_SUM_TOL, so 1 - r_i and
p_i + sum_j q_{i,j} may differ by that much, and each route reads one of
them.  The stored r_i enters through the block: the PMF table and the
transforms (step 1 - r_i s) read it there.  The moments, the first-step
solve (the block below its diagonal) and the sampler's hold runs and jumps
take 1 - r_i as p_i + sum_j q_{i,j} (:func:`jump_totals`) and read no r_i.
"""

import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, RangeError, SchemaError, ValidationError

ROW_SUM_TOL = 1e-12


def is_integer(x):
    """Is ``x`` a Python or numpy integer, and not a bool?"""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _real_rows(rows):
    """A list of ``rows`` in floats; ValidationError unless every entry is a real number, not a bool."""
    entries = itertools.chain.from_iterable
    if not {float, int}.issuperset(map(type, entries(rows))):  # one pass in C
        for kind in set(map(type, entries(rows))) - {float, int}:
            if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
                raise ValidationError(f"chain entries must be real numbers, got {kind.__name__}")
    return [tuple(map(float, row)) for row in rows]


def _as_down_rows(down, d):
    """Check a down-jump table's shape: d rows, row i of length i; zeros when None."""
    if down is None:
        return tuple((0.0,) * i for i in range(d))
    rows = tuple(map(tuple, down))
    for i, row in enumerate(rows):
        if len(row) != i:
            raise ValidationError(f"down-jump row {i} must have length {i}, got {len(row)}", row=i)
    if len(rows) != d:
        raise ValidationError(f"down-jump table must have {d} rows, got {len(rows)}")
    return rows


def _sum_of_rates(rates):
    """math.fsum of nonnegative rates, or inf where their exact sum passes the largest double."""
    try:
        return math.fsum(rates)
    except OverflowError:  # fsum raises instead of returning inf
        return math.inf


@dataclass(frozen=True)
class DiscreteChain:
    """Irreducible skip-free-up random walk on {0..d} with absorbing state d.

    Parameters
    ----------
    d : int
        Index of the absorbing state (so there are d transient states).
    hold : sequence of float
        Hold probabilities r_0..r_{d-1}.
    up : sequence of float
        Up-step probabilities p_0..p_{d-1}; all must be positive.
    down : sequence of sequences, optional
        Down-jump probabilities; row i lists q_{i,j} for j = 0..i-1.
        Omitted rows mean no down jumps.

    Every row must satisfy r_i + p_i + sum_j q_{i,j} = 1 within 1e-12.
    Instances are immutable and safe to share across threads.
    """

    d: int
    hold: tuple
    up: tuple
    down: tuple = None

    def __post_init__(self):
        if not (is_integer(self.d) and self.d >= 1):
            raise ValidationError(f"d must be a positive integer, got {self.d}")
        d = int(self.d)
        hold, up = tuple(self.hold), tuple(self.up)
        if len(hold) != d or len(up) != d:
            raise ValidationError(
                f"need exactly d={d} hold and up entries, got {len(hold)} and {len(up)}"
            )
        hold, up, *down = _real_rows((hold, up) + _as_down_rows(self.down, d))
        down = tuple(down)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "hold", hold)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        for i in range(d):
            entries = (hold[i], up[i]) + down[i]
            for x in entries:
                if not 0.0 <= x <= 1.0:  # NaN and inf fail this too
                    raise ValidationError(f"row {i} has entry {x} outside [0,1]", row=i)
            if up[i] <= 0.0:
                raise ValidationError(f"row {i}: up probability must be > 0, got {up[i]}", row=i)
            residual = math.fsum(entries) - 1.0
            if abs(residual) > ROW_SUM_TOL:
                raise ValidationError(
                    f"row {i} sums to 1{residual:+.3e}", row=i, residual=residual
                )

    @property
    def kind(self):
        return "discrete"


@dataclass(frozen=True)
class ContinuousChain:
    """Skip-free-up continuous-time chain on {0..d} with absorbing state d.

    Parameters
    ----------
    d : int
        Index of the absorbing state.
    up : sequence of float
        Up-jump rates alpha_0..alpha_{d-1}; all must be positive.
    down : sequence of sequences, optional
        Down-jump rates; row i lists beta_{i,j} for j = 0..i-1.

    The total exit rate gamma_i = alpha_i + sum_j beta_{i,j} is derived by
    :func:`jump_totals`, never stored, so generator rows balance exactly by
    construction.
    """

    d: int
    up: tuple
    down: tuple = None

    def __post_init__(self):
        if not (is_integer(self.d) and self.d >= 1):
            raise ValidationError(f"d must be a positive integer, got {self.d}")
        d = int(self.d)
        up = tuple(self.up)
        if len(up) != d:
            raise ValidationError(f"need exactly d={d} up rates, got {len(up)}")
        up, *down = _real_rows((up,) + _as_down_rows(self.down, d))
        down = tuple(down)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        for i in range(d):
            if not math.isfinite(up[i]) or up[i] <= 0.0:
                raise ValidationError(f"row {i}: up rate must be > 0, got {up[i]}", row=i)
            for x in down[i]:
                if not math.isfinite(x) or x < 0.0:
                    raise ValidationError(f"row {i} has down rate {x} < 0", row=i)

    @property
    def kind(self):
        return "continuous"


def _require_keys(obj, required, optional, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object, got {type(obj).__name__}")
    missing = [k for k in required if k not in obj]
    if missing:
        raise SchemaError(f"{where} missing field(s): {', '.join(missing)}")
    extra = [k for k in obj if k not in required and k not in optional]
    if extra:
        raise SchemaError(f"{where} has unknown field(s): {', '.join(extra)}")


def _number(x, where, index=None):
    """float(x) for a JSON number; the error names ``where``, and ``[index]`` when given."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        at = where if index is None else f"{where}[{index}]"
        raise SchemaError(f"{at} must be a number, got {type(x).__name__}")
    return float(x)


def _number_list(x, where):
    """The entries of a JSON array of numbers, as floats; the error names the first bad one."""
    if not isinstance(x, list):
        raise SchemaError(f"{where} must be an array")
    return [_number(v, where, j) for j, v in enumerate(x)]


def parse_chain(text):
    """Parse a chain-spec JSON document into a validated chain.

    Parameters
    ----------
    text : str or bytes
        UTF-8 JSON document with fields
        ``type`` ("discrete" | "continuous"), ``d`` and ``rows``.  Row i
        carries ``r``/``p``/optional ``q`` (discrete) or ``alpha``/optional
        ``beta`` (continuous); ``q[j]`` is the probability of jumping from
        i down to j, ascending j, and likewise ``beta``.

    Returns
    -------
    DiscreteChain or ContinuousChain

    Raises
    ------
    SchemaError
        Malformed document (bad JSON, missing/extra/ill-typed fields).
    ValidationError
        Structurally sound document violating a chain invariant.
    TypeError
        If ``text`` is neither str nor bytes.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    # The document and each row pass a fast test of their key sets and entry types; only what
    # fails it goes through _require_keys, _number and _number_list, which raise the SchemaError
    # and format its location.
    if type(doc) is not dict or doc.keys() != {"type", "d", "rows"}:
        _require_keys(doc, ("type", "d", "rows"), (), "chain spec")
    kind = doc["type"]
    if kind not in ("discrete", "continuous"):
        raise SchemaError(f'type must be "discrete" or "continuous", got {kind!r}')
    d = doc["d"]
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise SchemaError(f"d must be an integer >= 1, got {d!r}")
    rows = doc["rows"]
    if not isinstance(rows, list) or len(rows) != d:
        raise SchemaError(f"rows must be an array of length d={d}")

    down = []
    if kind == "discrete":
        hold, up = [], []
        for i, row in enumerate(rows):
            if type(row) is not dict or row.keys() - {"q"} != {"r", "p"}:
                _require_keys(row, ("r", "p"), ("q",), f"row {i}")
            r, p, q = row["r"], row["p"], row.get("q", [])
            if type(r) not in (float, int) or type(p) not in (float, int):
                r, p = _number(r, f"row {i}.r"), _number(p, f"row {i}.p")
            if type(q) is not list or not {float, int}.issuperset(map(type, q)):
                q = _number_list(q, f"row {i}.q")
            if len(q) not in (0, i):
                raise SchemaError(f"row {i}.q must have length {i}, got {len(q)}")
            hold.append(r)
            up.append(p)
            down.append(q + [0.0] * (i - len(q)))
        return DiscreteChain(d=d, hold=hold, up=up, down=down)

    up = []
    for i, row in enumerate(rows):
        if type(row) is not dict or row.keys() - {"beta"} != {"alpha"}:
            _require_keys(row, ("alpha",), ("beta",), f"row {i}")
        alpha, beta = row["alpha"], row.get("beta", [])
        if type(alpha) not in (float, int):
            alpha = _number(alpha, f"row {i}.alpha")
        if type(beta) is not list or not {float, int}.issuperset(map(type, beta)):
            beta = _number_list(beta, f"row {i}.beta")
        if len(beta) not in (0, i):
            raise SchemaError(f"row {i}.beta must have length {i}, got {len(beta)}")
        up.append(alpha)
        down.append(beta + [0.0] * (i - len(beta)))
    return ContinuousChain(d=d, up=up, down=down)


def jump_totals(chain, size):
    """Jump totals p_i + sum_j q_{i,j} resp. gamma_i of states 0..size-1, as a list.

    A continuous total past the largest double, which no engine can work
    with, raises InvariantError.
    """
    totals = [chain.up[i] + _sum_of_rates(chain.down[i]) for i in range(size)]
    if math.inf in totals:
        row = totals.index(math.inf)
        raise InvariantError(f"the total exit rate of row {row} passes the largest double")
    return totals


def transient_block(chain, n):
    """Principal (n+1)x(n+1) submatrix over states 0..n.

    Returns P_n for a discrete chain or Q_n for a continuous chain, as a new
    dense lower-Hessenberg ndarray built from the chain's rows on every call:
    entry (i, i+1) is p_i (resp. alpha_i) and everything above the
    superdiagonal is zero.

    Raises
    ------
    RangeError
        If n is not an integer in 0..d-1.
    InvariantError
        If a continuous chain's total exit rate gamma_i, i <= n, passes the
        largest double, which no engine can work with.
    """
    if not (is_integer(n) and 0 <= n <= chain.d - 1):
        raise RangeError(f"n must be in 0..{chain.d - 1}, got {n}")
    size = n + 1
    if isinstance(chain, DiscreteChain):
        diagonal = chain.hold[:size]
    else:
        diagonal = [-g for g in jump_totals(chain, size)]
    block = np.zeros((size, size))
    for i in range(1, size):
        block[i, :i] = chain.down[i]
    block.flat[:: size + 1] = diagonal
    block.flat[1 :: size + 1] = chain.up[:n]
    return block
