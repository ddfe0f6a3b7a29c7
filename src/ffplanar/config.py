"""Runtime configuration (size caps, sampling seed, worker and output
options) and the one shape check of the package's JSON documents."""

from __future__ import annotations

import functools
import typing
from dataclasses import MISSING, dataclass, fields

DEFAULT_TABLE_CAP = 1 << 22
DEFAULT_BRUTE_CAP = 1 << 16
DEFAULT_SEED = 0x5EED
DEFAULT_AUDIT_EVERY = 97

FORMATS = ("json", "csv", "jsonl")


# The JSON shape of a document.  A shape is a type, a one-item list [item]
# for a list of such items, or a dict from keys to shapes, where a key ending
# in "?" is optional and the key `str` stands for every key.  A document that
# fits its shape gets past decoding's type conversions; what is left for
# decoding to reject are bad values (ValueError)

def check_shape(obj, shape, where: str = "document") -> None:
    """Raise ValueError naming where the decoded JSON obj departs from shape.
    An object admits no key its shape does not name, and int admits no bool."""
    if isinstance(shape, type):
        if not isinstance(obj, shape) or (isinstance(obj, bool) and shape is not bool):
            raise ValueError(f"{where}: expected {shape.__name__}")
    elif isinstance(shape, list):
        if not isinstance(obj, list):
            raise ValueError(f"{where}: expected a list")
        for i, item in enumerate(obj):
            check_shape(item, shape[0], f"{where}[{i}]")
    elif not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object")
    elif str in shape:
        for key, item in obj.items():
            check_shape(item, shape[str], f"{where}.{key}")
    else:
        keys = {key.rstrip("?"): key for key in shape}
        for name, item in obj.items():
            if name not in keys:
                raise ValueError(f"{where}: unknown key {name!r}")
            check_shape(item, shape[keys[name]], f"{where}.{name}")
        for name, key in keys.items():
            if key == name and name not in obj:
                raise ValueError(f"{where}: missing {name!r}")


@functools.cache
def fields_shape(cls) -> dict:
    """The JSON shape of a flat dataclass: each field by its annotated type,
    optional when it has a default, and a tuple[T, ...] field as a list of T."""
    hints = typing.get_type_hints(cls)
    shape = {}
    for f in fields(cls):
        kind = hints[f.name]
        if typing.get_origin(kind) is tuple:
            kind = [typing.get_args(kind)[0]]
        required = f.default is MISSING and f.default_factory is MISSING
        shape[f.name + ("" if required else "?")] = kind
    return shape


def from_fields(cls, obj):
    """cls(**obj) for a flat dataclass cls, once obj fits its shape; a JSON
    list fills a tuple field."""
    check_shape(obj, fields_shape(cls))
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in obj.items()})


@dataclass(frozen=True)
class Config:
    table_cap: int = DEFAULT_TABLE_CAP
    brute_cap: int = DEFAULT_BRUTE_CAP
    seed: int = DEFAULT_SEED
    audit_every: int = DEFAULT_AUDIT_EVERY
    workers: int = 1
    fmt: str = "jsonl"

    def __post_init__(self):
        if self.table_cap <= 0 or self.brute_cap <= 0:
            raise ValueError("size caps must be positive")
        if self.audit_every <= 0 or self.workers <= 0:
            raise ValueError("audit ratio and worker count must be positive")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")

    @classmethod
    def from_json(cls, obj, **overrides) -> "Config":
        """The Config of a decoded JSON object, with the keyword overrides on
        top; a null value or a None override is skipped."""
        if isinstance(obj, dict):
            obj = {k: v for k, v in (*obj.items(), *overrides.items()) if v is not None}
        return from_fields(cls, obj)

