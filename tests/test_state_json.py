"""The JSON state codec: one [re, im] pair array for both kinds, bits kept, malformed documents refused."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalab import DensityState, PureVector, state_from_json, state_to_json
from manalab import states as states_module
from manalab.cli import main

# signed zeros, subnormals, the smallest normal and huge magnitudes among ordinary floats
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, -1.5e-310, 2.2250738585072014e-308, 1e300, -1e300]
PARTS = st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats(allow_nan=False, allow_infinity=False))
# parts small enough that a vector with one unit entry stays normalized within PureVector's tolerance
SMALL_PARTS = st.one_of(st.sampled_from(SPECIAL_PARTS[:7]), st.floats(-1e-7, 1e-7))


def reference_json(dims, kind, values) -> str:
    """The format written entry by entry, independent of state_to_json."""

    def pair(z):
        return [float(z.real), float(z.imag)]

    data = [pair(z) for z in values] if kind == "pure" else [[pair(z) for z in row] for row in values]
    return json.dumps({"dims": dims, "kind": kind, "data": data})


def complex_array(shape, parts):
    return st.lists(st.tuples(parts, parts), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda zs: np.array([complex(re, im) for re, im in zs], dtype=complex).reshape(shape)
    )


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: complex_array((n, n), PARTS)))
def test_mixed_round_trip_keeps_every_bit(mat):
    n = len(mat)
    rho = DensityState((n,), mat, validate=False)
    text = state_to_json(rho)
    assert text == reference_json([n], "mixed", mat)
    # the density checks would refuse most of these matrices; switch them off so the codec alone is tested
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(states_module, "check_density", lambda mats: None)
        back = state_from_json(text)
    assert back.dims == (n,) and same_bits(back.matrix, rho.matrix)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(complex_array((n,), SMALL_PARTS), st.integers(0, n - 1), st.sampled_from([1, -1, 1j, -1j]))
    )
)
def test_pure_round_trip_keeps_every_bit(case):
    amps, j, unit = case
    amps[j] = unit
    psi = PureVector(len(amps), amps)
    text = state_to_json(psi)
    assert text == reference_json([len(amps)], "pure", amps)
    back = state_from_json(text)
    assert back.dims == (len(amps),) and same_bits(back.matrix, psi.density().matrix)


# |0><0| in each kind; malformed_data breaks one thing about it
VALID_DATA = {
    "pure": [[1, 0], [0, 0], [0, 0]],
    "mixed": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]],
}
HUGE_INTS = st.one_of(st.integers(min_value=2**64), st.integers(max_value=-(2**63) - 1), st.just(10**400))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.floats(-2, 2), st.text(max_size=4), HUGE_INTS),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6,
)
JSON_OBJECTS = st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2)
# a leaf that makes the data array non-numeric or ragged
BAD_LEAVES = st.one_of(st.none(), st.text(max_size=4), HUGE_INTS, st.lists(JSON_VALUES, max_size=3), JSON_OBJECTS)


def _leaf_paths(data, prefix=()):
    if isinstance(data, list):
        for i, item in enumerate(data):
            yield from _leaf_paths(item, prefix + (i,))
    else:
        yield prefix


@st.composite
def malformed_data(draw, kind):
    data = json.loads(json.dumps(VALID_DATA[kind]))
    how = draw(st.sampled_from(["leaf", "drop", "rank", "scalar", "empty", "string_numbers"]))
    if how == "leaf":
        *head, last = draw(st.sampled_from(list(_leaf_paths(data))))
        node = data
        for i in head:
            node = node[i]
        node[last] = draw(BAD_LEAVES)
    elif how == "drop":  # one entry of any list: a ragged array, or too few rows or pairs
        lists = {p[:k] for p in _leaf_paths(data) for k in range(len(p))}  # every list node, the data included
        path = draw(st.sampled_from(sorted(lists)))
        node = data
        for i in path:
            node = node[i]
        node.pop(draw(st.integers(0, len(node) - 1)))
    elif how == "rank":
        data = draw(st.sampled_from([VALID_DATA["mixed" if kind == "pure" else "pure"], [data], data[0], [[data]]]))
    elif how == "scalar":
        data = draw(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4), JSON_OBJECTS))
    elif how == "empty":
        data = draw(st.sampled_from([[], [[]], [[[]]]]))
    else:
        data = json.loads(json.dumps(data).replace("1", '"1.5"'))
    return data


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["pure", "mixed"]).flatmap(lambda kind: st.tuples(st.just(kind), malformed_data(kind))))
def test_malformed_data_is_a_value_error(case):
    kind, data = case
    text = json.dumps({"dims": [3], "kind": kind, "data": data})
    with pytest.raises(ValueError):
        state_from_json(text)


def test_state_file_with_an_integer_too_large_for_a_float_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"dims": [3], "kind": "pure", "data": [[1%s, 0], [0, 0], [0, 0]]}' % ("0" * 400))
    code = main(["measure", "--state-file", str(path), "--measures", "mana"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "error:" in captured.err


def test_only_a_state_serializes():
    with pytest.raises(TypeError, match="^cannot serialize <class 'object'>$"):
        state_to_json(object())


def test_state_file_of_an_unknown_kind_exits_2(tmp_path, capsys):
    path = tmp_path / "ket.json"
    path.write_text('{"dims": [3], "kind": "ket", "data": [[1, 0], [0, 0], [0, 0]]}')
    code = main(["measure", "--state-file", str(path), "--measures", "mana"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == "error: unknown state kind 'ket'\n"
