import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipfree import (
    ContinuousChain,
    DiscreteChain,
    InvariantError,
    RangeError,
    SchemaError,
    ValidationError,
    parse_chain,
    serialize_chain,
    transient_block,
)
from skipfree.corpus import random_continuous_chain, random_discrete_chain


def test_parse_smallest_chain():
    text = '{"type":"discrete","d":1,"rows":[{"r":0.5,"p":0.5}]}'
    chain = parse_chain(text)
    assert isinstance(chain, DiscreteChain)
    assert chain.d == 1 and chain.hold == (0.5,) and chain.up == (0.5,)
    assert parse_chain(text.encode()) == chain
    with pytest.raises(TypeError):  # a document, not its decoded object
        parse_chain(json.loads(text))


def test_parse_down_jump_row():
    doc = {
        "type": "discrete",
        "d": 2,
        "rows": [{"r": 0.2, "p": 0.8}, {"r": 0.3, "p": 0.4, "q": [0.3]}],
    }
    chain = parse_chain(json.dumps(doc))
    assert chain.down[1][0] == 0.3
    # oracle: sum every row by hand
    assert chain.hold[0] + chain.up[0] == 1.0
    assert chain.hold[1] + chain.up[1] + chain.down[1][0] == 1.0


def test_parse_rejects_bad_row_sum():
    with pytest.raises(ValidationError) as err:
        parse_chain('{"type":"discrete","d":1,"rows":[{"r":0.6,"p":0.5}]}')
    assert err.value.row == 0
    assert err.value.residual == pytest.approx(0.1, abs=1e-12)


def test_parse_continuous():
    chain = parse_chain(
        '{"type":"continuous","d":2,"rows":[{"alpha":1.0},{"alpha":1.0,"beta":[1.0]}]}'
    )
    assert isinstance(chain, ContinuousChain)
    assert chain.gamma == (1.0, 2.0)


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ("{not json", "JSON"),
        ('{"type":"discrete","d":1}', "missing"),
        ('{"type":"discrete","d":1,"rows":[{"r":0.5,"p":0.5}],"x":1}', "unknown"),
        ('{"type":"markov","d":1,"rows":[]}', "type"),
        ('{"type":"discrete","d":0,"rows":[]}', "d must be"),
        ('{"type":"discrete","d":1,"rows":[{"r":0.5,"p":0.5,"z":1}]}', "unknown"),
        ('{"type":"discrete","d":1,"rows":[{"r":"a","p":0.5}]}', "number"),
        ('{"type":"discrete","d":2,"rows":[{"r":0.5,"p":0.5},{"r":0.5,"p":0.4,"q":[0.1,0.2]}]}', "length"),
        ('{"type":"continuous","d":1,"rows":[{"beta":[]}]}', "missing"),
        ("[1]", "chain spec must be an object, got list"),
        ('{"type":"discrete","rows":[],"x":1,"y":2}', "chain spec missing field(s): d"),
    ],
)
def test_schema_errors(doc, fragment):
    with pytest.raises(SchemaError) as err:
        parse_chain(doc)
    assert fragment.lower() in str(err.value).lower()


def test_validation_rejects_zero_up_probability():
    with pytest.raises(ValidationError):
        DiscreteChain(d=1, hold=[1.0], up=[0.0])
    with pytest.raises(ValidationError):
        ContinuousChain(d=1, up=[0.0])


def test_validation_rejects_entry_outside_unit_interval():
    with pytest.raises(ValidationError):
        DiscreteChain(d=1, hold=[-0.5], up=[1.5])
    # d is a Python or numpy integer, not a bool, and every entry a real number
    for d in (1.9, 2.5, "2", True, np.float64(2.0)):
        with pytest.raises(ValidationError, match="d must be a positive integer"):
            DiscreteChain(d=d, hold=[0.5, 0.5], up=[0.5, 0.5])
        with pytest.raises(ValidationError, match="d must be a positive integer"):
            ContinuousChain(d=d, up=[1.0, 1.0])
    for hold, up in ((["0.5"], [0.5]), ([0.5], [True]), ([0.5], [0.5 + 0j])):
        with pytest.raises(ValidationError, match="entries must be real numbers"):
            DiscreteChain(d=1, hold=hold, up=up)
    for up, down in ((["2"], None), ([1.0, 1.0], [[], [True]]), ([1.0, 1.0], [[], ["1"]])):
        with pytest.raises(ValidationError, match="entries must be real numbers"):
            ContinuousChain(d=len(up), up=up, down=down)
    chain = ContinuousChain(d=np.int64(2), up=np.array([1.0, 2.0]),
                            down=[[], np.array([1], dtype=np.int32)])
    assert type(chain.d) is int and chain == ContinuousChain(d=2, up=[1, 2], down=[[], [1.0]])
    assert DiscreteChain(d=np.int32(1), hold=[np.float32(0.5)], up=[0.5]).hold == (0.5,)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_roundtrip_discrete(seed, d):
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    again = parse_chain(serialize_chain(chain))
    assert again == chain  # bit-exact: doubles survive the JSON round trip


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 8))
def test_roundtrip_continuous(seed, d):
    chain = random_continuous_chain(np.random.default_rng(seed), d)
    assert parse_chain(serialize_chain(chain)) == chain


def test_transient_block_values(d1_geometric, d2_mixed):
    assert transient_block(d1_geometric, 0).tolist() == [[0.5]]
    assert transient_block(d2_mixed, 1).tolist() == [[0.2, 0.8], [0.3, 0.3]]
    chain = ContinuousChain(d=2, up=[1.0, 2.0])
    assert transient_block(chain, 1).tolist() == [[-1.0, 1.0], [0.0, -2.0]]


@pytest.mark.parametrize("d", [1, 2, 5, 64])
@pytest.mark.parametrize("make", [random_discrete_chain, random_continuous_chain])
def test_transient_block_equals_per_entry_reference(make, d):
    chain = make(np.random.default_rng(d), d)
    if isinstance(chain, DiscreteChain):
        diagonal = chain.hold
    else:
        diagonal = [-g for g in chain.gamma]
    for n in range(d):
        expected = np.zeros((n + 1, n + 1))
        for i in range(n + 1):
            for j, x in enumerate(chain.down[i]):
                expected[i, j] = x
            expected[i, i] = diagonal[i]
            if i < n:
                expected[i, i + 1] = chain.up[i]
        assert np.array_equal(transient_block(chain, n), expected)
    # every call builds a new, writable array and leaves the chain as it was
    first, again = transient_block(chain, d - 1), transient_block(chain, d - 1)
    assert not np.shares_memory(first, again) and first.flags.writeable
    assert set(vars(chain)) == {f.name for f in dataclasses.fields(chain)}
    # a chain is its rows, so a copy compares equal and builds an equal block
    for copied in (pickle.loads(pickle.dumps(chain)), copy.deepcopy(chain)):
        assert copied == chain
        assert np.array_equal(transient_block(copied, d - 1), first)


def test_transient_block_range(d2_mixed):
    with pytest.raises(RangeError):
        transient_block(d2_mixed, 2)
    with pytest.raises(RangeError):
        transient_block(d2_mixed, -1)
    for n in (0.5, 1.0, True, "1"):
        with pytest.raises(RangeError, match="n must be in 0..1"):
            transient_block(d2_mixed, n)
    assert np.array_equal(transient_block(d2_mixed, np.int64(1)), transient_block(d2_mixed, 1))


@pytest.mark.parametrize(
    "up,down",
    [
        ([1e308, 1e308], [[], [1e308]]),  # alpha + beta overflows
        ([1.0, 1.0, 1.0], [[], [0.0], [1e308, 1e308]]),  # fsum of the betas overflows
    ],
)
def test_total_rate_past_the_largest_double_raises(up, down):
    chain = ContinuousChain(d=len(up), up=up, down=down)
    assert chain.gamma[-1] == math.inf
    transient_block(chain, chain.d - 2)  # the rows above it are fine
    with pytest.raises(InvariantError, match=f"total exit rate of row {chain.d - 1} passes"):
        transient_block(chain, chain.d - 1)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 9))
def test_block_is_lower_hessenberg_with_stochastic_rows(seed, d):
    chain = random_discrete_chain(np.random.default_rng(seed), d)
    for n in range(d):
        block = transient_block(chain, n)
        assert np.all(np.triu(block, 2) == 0.0)
        # row sums plus the implicit absorption/overflow mass
        for i in range(n + 1):
            implicit = chain.up[i] if i == n else 0.0
            assert block[i].sum() + implicit == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 9))
def test_continuous_rows_balance(seed, d):
    chain = random_continuous_chain(np.random.default_rng(seed), d)
    block = transient_block(chain, d - 1)
    assert np.all(np.triu(block, 2) == 0.0)
    for i in range(d):
        off = block[i].sum() - block[i, i]
        assert off + (chain.up[i] if i == d - 1 else 0.0) == pytest.approx(
            chain.gamma[i], rel=1e-12
        )


def _rows_doc(kind, rows):
    return json.dumps({"type": kind, "d": len(rows), "rows": rows})


_DISCRETE_ROWS = [{"r": 0.5, "p": 0.5}, {"r": 0.5, "p": 0.25, "q": [0.25]},
                  {"r": 0.5, "p": 0.25, "q": [0.125, 0.125]}]
_CONTINUOUS_ROWS = [{"alpha": 1.0}, {"alpha": 1.0, "beta": [2]}, {"alpha": 1.0, "beta": [0.5, 0.5]}]


@pytest.mark.parametrize(
    "kind,i,row,message",
    [
        ("discrete", 0, 0.5, "row 0 must be an object, got float"),
        ("discrete", 1, [0.5, 0.5], "row 1 must be an object, got list"),
        ("continuous", 2, "row", "row 2 must be an object, got str"),
        ("continuous", 1, None, "row 1 must be an object, got NoneType"),
        ("discrete", 1, {"r": 0.5, "p": 0.25, "q": 0.25}, "row 1.q must be an array"),
        ("discrete", 2, {"r": 0.5, "p": 0.25, "q": {"0": 0.125}}, "row 2.q must be an array"),
        ("continuous", 1, {"alpha": 1.0, "beta": 2.0}, "row 1.beta must be an array"),
        ("continuous", 2, {"alpha": 1.0, "beta": None}, "row 2.beta must be an array"),
        ("discrete", 1, {"r": True, "p": 0.25, "q": [0.25]}, "row 1.r must be a number, got bool"),
        ("discrete", 1, {"r": "0.5", "p": 0.25, "q": [0.25]}, "row 1.r must be a number, got str"),
        ("discrete", 2, {"r": 0.5, "p": False, "q": [0.125, 0.125]}, "row 2.p must be a number, got bool"),
        ("discrete", 2, {"r": 0.5, "p": "x", "q": [0.125, 0.125]}, "row 2.p must be a number, got str"),
        ("discrete", 2, {"r": 0.5, "p": 0.25, "q": [0.125, True]}, "row 2.q[1] must be a number, got bool"),
        ("discrete", 2, {"r": 0.5, "p": 0.25, "q": ["0.125", 0.125]}, "row 2.q[0] must be a number, got str"),
        ("continuous", 1, {"alpha": True}, "row 1.alpha must be a number, got bool"),
        ("continuous", 1, {"alpha": "1"}, "row 1.alpha must be a number, got str"),
        ("continuous", 2, {"alpha": 1.0, "beta": [0.5, False]}, "row 2.beta[1] must be a number, got bool"),
        ("continuous", 2, {"alpha": 1.0, "beta": ["0.5", 0.5]}, "row 2.beta[0] must be a number, got str"),
        ("discrete", 1, {"r": 0.5, "q": [0.25]}, "row 1 missing field(s): p"),
        ("discrete", 2, {"p": 0.25}, "row 2 missing field(s): r"),
        ("discrete", 1, {"r": 0.5, "p": 0.25, "q": [0.25], "z": 1}, "row 1 has unknown field(s): z"),
        ("continuous", 1, {"beta": [2]}, "row 1 missing field(s): alpha"),
        ("continuous", 2, {"alpha": 1.0, "gamma": 1.0, "b": 0}, "row 2 has unknown field(s): gamma, b"),
        # the first fault of a row in the order the fields are read: r, p, then q
        ("discrete", 1, {"r": "a", "p": True}, "row 1.r must be a number, got str"),
        ("discrete", 1, {"r": 0.5, "p": "x", "q": "y"}, "row 1.p must be a number, got str"),
        ("discrete", 2, {"r": 0.5, "p": 0.25, "q": [0.25]}, "row 2.q must have length 2, got 1"),
    ],
)
def test_row_schema_error_messages(kind, i, row, message):
    rows = list(_DISCRETE_ROWS if kind == "discrete" else _CONTINUOUS_ROWS)
    parse_chain(_rows_doc(kind, rows))  # the document is valid before the fault goes in
    rows[i] = row
    with pytest.raises(SchemaError) as err:
        parse_chain(_rows_doc(kind, rows))
    assert str(err.value) == message


def test_first_faulty_row_is_reported():
    rows = list(_DISCRETE_ROWS)
    rows[1] = {"r": "a", "p": 0.25, "q": [0.25]}
    rows[2] = {"r": 0.5}
    with pytest.raises(SchemaError, match=r"^row 1\.r must be a number, got str$"):
        parse_chain(_rows_doc("discrete", rows))
