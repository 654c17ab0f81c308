"""Small shared helpers."""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

_JSON_TYPES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object"}

def quoted(value) -> str:
    """``repr(value)`` for an error message, cut to 80 characters and its
    length when longer: a bad input value cannot fill an error line."""
    text = repr(value)
    return text if len(text) <= 80 else f"{text[:80]}... ({len(text)} characters)"


def check_disjoint(first: str, a, second: str, b) -> None:
    """ValueError naming both id lists when they share a set: a held-out
    set that also trains scores the fit, not a prediction."""
    shared = sorted(set(a) & set(b))
    if shared:
        raise ValueError(f"{first} and {second} both name set indexes {quoted(shared)}")


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write a file via a temp sibling and rename, so readers never see a
    partial file and failed writes leave the old content in place."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    except OSError as exc:
        # the error names the temporary sibling; name the path asked for
        raise OSError(exc.errno, exc.strerror, str(path)) from None
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
    ``kind``: int, float, bool, str or dict (an object); ``[kind]`` for an
    array of that kind, or a tuple of kinds for an array of exactly those
    items (arrays come back as tuples). Else ValueError naming ``name or
    key`` and quoting the value (``quoted``). Booleans are not numbers,
    integers count as floats (returned as float), floats must be finite, and
    tuples count as arrays, so that a config's ``asdict`` reads back."""
    value, name = d[key], name or key
    if isinstance(kind, (list, tuple)):
        array = type(value) in (list, tuple)
        kinds = kind * len(value) if isinstance(kind, list) and array else kind
        if not array or len(value) != len(kinds):
            size = "" if isinstance(kind, list) else f" of {len(kind)} items"
            raise ValueError(f"{name} must be an array{size}, not {quoted(value)}")
        return tuple(json_value(value, i, k, f"{name}[{i}]") for i, k in enumerate(kinds))
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be {_JSON_TYPES[kind]}, not {quoted(value)}")
    return value
