"""Small shared helpers."""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

_JSON_TYPES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string"}

def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via a temp sibling and rename, so readers never see a
    partial file and failed writes leave the old content in place."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates 0600; match what a plain open() would have done
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def json_value(d, key, kind, name: str | None = None):
    """``d[key]`` as read from a JSON file, checked to have the shape
    ``kind``: int, float, bool or str; ``[kind]`` for an array of that kind,
    or a tuple of kinds for an array of exactly those items (arrays come
    back as tuples). Else ValueError naming ``name or key``. Booleans are not
    numbers, integers count as floats (returned as float), floats must be
    finite, and tuples count as arrays, so that a config's ``asdict`` reads
    back."""
    value, name = d[key], name or key
    if isinstance(kind, (list, tuple)):
        array = type(value) in (list, tuple)
        kinds = kind * len(value) if isinstance(kind, list) and array else kind
        if not array or len(value) != len(kinds):
            size = "" if isinstance(kind, list) else f" of {len(kind)} items"
            raise ValueError(f"{name} must be an array{size}, not {value!r}")
        return tuple(json_value(value, i, k, f"{name}[{i}]") for i, k in enumerate(kinds))
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, not {value!r}")
    return value
