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
them.  The stored r_i enters through the block: the PMF table, the
transforms (step 1 - r_i s) and the first-step solve (I - P) h = 1 read it
there, and so do the path enumeration and the sampler's hold runs.  The
moments and the sampler's jump totals take 1 - r_i as p_i + sum_j q_{i,j}
and read no r_i.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, RangeError, SchemaError, ValidationError

ROW_SUM_TOL = 1e-12


def _as_down_rows(down, d):
    """Normalize a down-jump table into a tuple of row tuples, row i of length i."""
    if down is None:
        return tuple(tuple(0.0 for _ in range(i)) for i in range(d))
    rows = []
    for i, row in enumerate(down):
        row = tuple(map(float, row))
        if len(row) != i:
            raise ValidationError(f"down-jump row {i} must have length {i}, got {len(row)}", row=i)
        rows.append(row)
    if len(rows) != d:
        raise ValidationError(f"down-jump table must have {d} rows, got {len(rows)}")
    return tuple(rows)


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
        d = int(self.d)
        if d < 1:
            raise ValidationError(f"d must be a positive integer, got {self.d}")
        hold = tuple(map(float, self.hold))
        up = tuple(map(float, self.up))
        if len(hold) != d or len(up) != d:
            raise ValidationError(
                f"need exactly d={d} hold and up entries, got {len(hold)} and {len(up)}"
            )
        down = _as_down_rows(self.down, d)
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

    The total exit rate gamma_i = alpha_i + sum_j beta_{i,j} is derived,
    never stored, so generator rows balance exactly by construction.
    """

    d: int
    up: tuple
    down: tuple = None

    def __post_init__(self):
        d = int(self.d)
        if d < 1:
            raise ValidationError(f"d must be a positive integer, got {self.d}")
        up = tuple(map(float, self.up))
        if len(up) != d:
            raise ValidationError(f"need exactly d={d} up rates, got {len(up)}")
        down = _as_down_rows(self.down, d)
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
    def gamma(self):
        """Total exit rates gamma_i = alpha_i + sum_j beta_{i,j}; inf past the largest double."""
        return tuple(self.up[i] + _sum_of_rates(self.down[i]) for i in range(self.d))

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
    """The entries of a JSON array of numbers; the chain constructors convert them to float."""
    if not isinstance(x, list):
        raise SchemaError(f"{where} must be an array")
    if {float, int}.issuperset(map(type, x)):  # plain numbers, no bool: one pass in C
        return x
    return [_number(v, where, j) for j, v in enumerate(x)]


def parse_chain(text):
    """Parse a chain-spec JSON document into a validated chain.

    Parameters
    ----------
    text : str, bytes or dict
        UTF-8 JSON document (or already-decoded object) with fields
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
    """
    if isinstance(text, (str, bytes)):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
    else:
        doc = text
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
            _require_keys(row, ("r", "p"), ("q",), f"row {i}")
            hold.append(_number(row["r"], f"row {i}.r"))
            up.append(_number(row["p"], f"row {i}.p"))
            q = _number_list(row.get("q", []), f"row {i}.q")
            if len(q) not in (0, i):
                raise SchemaError(f"row {i}.q must have length {i}, got {len(q)}")
            down.append(q + [0.0] * (i - len(q)))
        return DiscreteChain(d=d, hold=hold, up=up, down=down)

    up = []
    for i, row in enumerate(rows):
        _require_keys(row, ("alpha",), ("beta",), f"row {i}")
        up.append(_number(row["alpha"], f"row {i}.alpha"))
        beta = _number_list(row.get("beta", []), f"row {i}.beta")
        if len(beta) not in (0, i):
            raise SchemaError(f"row {i}.beta must have length {i}, got {len(beta)}")
        down.append(beta + [0.0] * (i - len(beta)))
    return ContinuousChain(d=d, up=up, down=down)


def serialize_chain(chain):
    """Render a chain back into its JSON document form (round-trip exact)."""
    rows = []
    for i in range(chain.d):
        if isinstance(chain, DiscreteChain):
            row = {"r": chain.hold[i], "p": chain.up[i]}
            if any(x != 0.0 for x in chain.down[i]):
                row["q"] = list(chain.down[i])
        else:
            row = {"alpha": chain.up[i]}
            if any(x != 0.0 for x in chain.down[i]):
                row["beta"] = list(chain.down[i])
        rows.append(row)
    return json.dumps({"type": chain.kind, "d": chain.d, "rows": rows}, indent=2)


def transient_block(chain, n):
    """Principal (n+1)x(n+1) submatrix over states 0..n.

    Returns P_n for a discrete chain or Q_n for a continuous chain, as a new
    dense lower-Hessenberg ndarray built from the chain's rows on every call:
    entry (i, i+1) is p_i (resp. alpha_i) and everything above the
    superdiagonal is zero.

    Raises
    ------
    RangeError
        If n is outside 0..d-1.
    InvariantError
        If a continuous chain's total exit rate gamma_i, i <= n, passes the
        largest double, which no engine can work with.
    """
    if not 0 <= n <= chain.d - 1:
        raise RangeError(f"n must be in 0..{chain.d - 1}, got {n}")
    size = n + 1
    if isinstance(chain, DiscreteChain):
        diagonal = chain.hold[:size]
    else:
        gamma = chain.gamma[:size]
        if math.inf in gamma:
            row = gamma.index(math.inf)
            raise InvariantError(f"the total exit rate of row {row} passes the largest double")
        diagonal = [-g for g in gamma]
    block = np.zeros((size, size))
    for i in range(1, size):
        block[i, :i] = chain.down[i]
    block.flat[:: size + 1] = diagonal
    block.flat[1 :: size + 1] = chain.up[:n]
    return block
