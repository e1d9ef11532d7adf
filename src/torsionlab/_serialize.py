"""Deterministic JSON emission and atomic file writes.

Floats are rendered with 17 significant digits (enough to round-trip any
double), keys are sorted, and no whitespace depends on the environment, so
two runs with the same inputs produce byte-identical files.  A numpy scalar
is written as its Python value; any other non-JSON type raises TypeError.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np


def _render(obj) -> str:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError(f"non-finite float {obj!r} cannot be serialized")
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(str(k))}:{_render(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    return _render(obj) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename.  The file
    gets the mode a plain open(path, "w") would give it, not mkstemp's 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
