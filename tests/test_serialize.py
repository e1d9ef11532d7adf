"""Canonical JSON writer: determinism, float fidelity, refusal of junk."""

import json
import math
import os
import stat

import numpy as np
import pytest

from torsionlab._serialize import dumps_canonical, write_atomic


def test_floats_round_trip_17_digits():
    values = [1.0 / 3.0, math.pi, 2.3209479177387814, 1e-300, -0.0]
    text = dumps_canonical(values)
    assert json.loads(text) == values


def test_sorted_keys_and_stability():
    a = dumps_canonical({"b": 1, "a": {"d": 2.5, "c": [True, None]}})
    b = dumps_canonical({"a": {"c": [True, None], "d": 2.5}, "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_numpy_scalars_coerce():
    text = dumps_canonical({"x": np.float64(0.5), "y": np.int64(3)})
    assert json.loads(text) == {"x": 0.5, "y": 3}


def test_non_finite_refused():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps_canonical([float("inf")])


def test_unserializable_refused():
    with pytest.raises(TypeError):
        dumps_canonical({"x": object()})


def test_write_atomic(tmp_path):
    path = tmp_path / "out.json"
    write_atomic(str(path), "payload\n")
    assert path.read_text() == "payload\n"
    # no temp droppings left behind
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_write_atomic_mode_matches_plain_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_atomic(str(tmp_path / "atomic.json"), "{}\n")
        with open(tmp_path / "plain.json", "w") as handle:
            handle.write("{}\n")
    finally:
        os.umask(old)
    mode = stat.S_IMODE((tmp_path / "atomic.json").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain.json").stat().st_mode)
    assert mode == 0o666 & ~umask
