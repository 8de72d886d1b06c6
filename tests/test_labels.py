"""Subset keys, atom texts and complemented lists: written and read by `imeasure._labels`."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imeasure import Atom, EntropyVector, IMeasureVector
from imeasure._labels import (
    BAR,
    atom_cmasks,
    atom_complements,
    atom_texts,
    barred,
    subset_keys,
    subset_masks,
)

from oracles import subset_mask_by_pattern


def spelled_key(n, m):
    return ",".join(str(v) for v in range(1, n + 1) if (m >> (v - 1)) & 1)


def spelled_text(n, c):
    return " ".join(f"{v}'" if (c >> (v - 1)) & 1 else str(v) for v in range(1, n + 1))


# -- round trips -----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.data())
def test_writers_and_readers_round_trip(n, data):
    full = (1 << n) - 1
    masks = data.draw(st.lists(st.integers(1, full), max_size=12))
    keys = subset_keys(n, masks)
    assert keys == [spelled_key(n, m) for m in masks]
    assert subset_masks(keys, n, "entropy JSON") == masks
    cmasks = data.draw(st.lists(st.integers(0, full - 1), max_size=12))
    texts = atom_texts(n, cmasks)
    assert texts == [spelled_text(n, c) for c in cmasks]
    assert atom_cmasks(texts, n, "atoms") == cmasks  # the piece dicts
    assert atom_cmasks([barred(t) for t in texts], n, "atoms") == cmasks  # the general parser
    lists = atom_complements(n, cmasks)
    assert lists == [[v for v in range(1, n + 1) if (c >> (v - 1)) & 1] for c in cmasks]
    assert [sum(1 << (v - 1) for v in vs) for vs in lists] == cmasks


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.data())
def test_atom_text_and_json_round_trip_up_to_24_variables(n, data):
    a = Atom(n, data.draw(st.integers(0, (1 << n) - 2)))
    assert a.to_text() == spelled_text(n, a.complemented)
    assert str(a) == spelled_text(n, a.complemented).replace("'", BAR)
    assert Atom.from_text(a.to_text()) == a  # n read as the largest variable
    assert Atom.from_text(str(a), n) == a
    assert a.to_json() == {"n": n, "complemented": sorted(a.complemented_set)}
    assert Atom.from_json(json.loads(json.dumps(a.to_json()))) == a


def test_lattice_json_keys_are_the_written_labels():
    for n in (1, 8, 9, 12):
        h = EntropyVector(n, 2.0, np.arange(1 << n, dtype=float))
        assert list(h.to_json()["h"]) == [spelled_key(n, m) for m in range(1, 1 << n)]
        mu = IMeasureVector(n, 2.0, h.table)
        assert list(mu.to_json()["values"]) == [spelled_text(n, c) for c in range((1 << n) - 1)]


# -- the subset-key reader against a pattern oracle ------------------------------------------

KEY_EDITS = [
    lambda k: k,
    lambda k: "0" + k,  # a leading zero is still ASCII digits
    lambda k: k + ",",
    lambda k: "," + k,
    lambda k: k.replace(",", ",,", 1),
    lambda k: k.replace(",", "_", 1),  # int() reads "1_2" as 12
    lambda k: " " + k,
    lambda k: k + "\n",
    lambda k: "+" + k,
    lambda k: "-" + k,
    lambda k: k.replace("1", "١", 1),  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
    lambda k: k.replace("2", "²", 1),  # SUPERSCRIPT TWO, a digit to str.isdigit
    lambda k: k + "," + k.split(",")[0],  # a repeated vertex
    lambda k: k + ",0",
    lambda k: k + ",17",
    lambda k: k + ",x",
    lambda k: "",
]


def verdict(read, *args):
    try:
        return read(*args)
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 16), st.data())
def test_subset_masks_match_the_pattern_oracle(n, data):
    keys = subset_keys(n, data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=4)))
    i = data.draw(st.integers(0, len(keys) - 1))
    keys[i] = data.draw(st.sampled_from(KEY_EDITS))(keys[i])
    want = verdict(lambda: [subset_mask_by_pattern(k, n) for k in keys])
    assert verdict(subset_masks, keys, n, "entropy JSON") == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="0123, _+١²", max_size=6), max_size=4), st.integers(1, 4))
def test_subset_masks_match_the_pattern_oracle_on_any_key(keys, n):
    want = verdict(lambda: [subset_mask_by_pattern(k, n) for k in keys])
    assert verdict(subset_masks, keys, n, "entropy JSON") == want


# -- the token rule: ASCII digits, each vertex once -------------------------------------------


def entropy_json_with(n, old, new):
    h = {spelled_key(n, m): 1.0 for m in range(1, 1 << n)}
    h[new] = h.pop(old)
    return {"n": n, "base": 2.0, "h": h}


@pytest.mark.parametrize(
    "old, new",
    [("10", "1_0"), ("1", " 1"), ("1", "1 "), ("1", "+1"), ("1", "١"), ("1,2", "1,²")],
)
def test_entropy_keys_spell_vertices_in_ascii_digits(old, new):
    with pytest.raises(ValueError, match=r"^entropy JSON key .* is not a comma-separated vertex list$"):
        EntropyVector.from_json(entropy_json_with(10, old, new))


def test_entropy_keys_name_each_vertex_once():
    with pytest.raises(ValueError, match=r"^entropy JSON key '1,1' names vertex 1 twice$"):
        EntropyVector.from_json(entropy_json_with(3, "1", "1,1"))
    with pytest.raises(ValueError, match=r"^entropy JSON key '2,3,2' names vertex 2 twice$"):
        EntropyVector.from_json(entropy_json_with(3, "2,3", "2,3,2"))
    with pytest.raises(ValueError, match=r"^entropy JSON key '1,1,9' names vertex 9 outside 1..3$"):
        EntropyVector.from_json(entropy_json_with(3, "1", "1,1,9"))  # a repeat is the last fault looked for


@pytest.mark.parametrize(
    "text, n, token",
    [("١ 2", 2, "١"), ("1 ²", 2, "²"), ("1 2" + BAR + " ٣", 3, "٣"), ("+1 2", 2, "+1"), ("1 2_", 2, "2_")],
)
def test_atom_texts_spell_vertices_in_ascii_digits(text, n, token):
    message = f"^bad atom token {re.escape(repr(token))}$"
    with pytest.raises(ValueError, match=message):
        Atom.from_text(text)
    with pytest.raises(ValueError, match=message):
        atom_cmasks([spelled_text(n, 1), text], n, "atoms")


def test_measure_json_atom_texts_spell_vertices_in_ascii_digits():
    values = {"1 2": 1.0, "1 2'": 0.5, "١' 2": 0.25}
    with pytest.raises(ValueError, match="^bad atom token"):
        IMeasureVector.from_json({"n": 2, "base": 2.0, "values": values})


def test_atom_texts_name_each_variable_once():
    for text in ("1 2 1", "1 1' 2"):
        with pytest.raises(ValueError, match="must list each variable 1..3 once"):
            Atom.from_text(text, 3)
    with pytest.raises(ValueError, match=f"must list each variable 1..{'9' * 30} once"):
        Atom.from_text("1 " + "9" * 30)  # n is the largest variable; no list of 10^30 is built


def test_writers_stop_at_24_variables():
    assert atom_texts(24, [(1 << 24) - 2]) == [spelled_text(24, (1 << 24) - 2)]
    with pytest.raises(ValueError, match="variable count 25 outside 1..24"):
        atom_texts(25, [0])
