"""Runtime configuration: size caps, sampling seed, worker and output options."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

DEFAULT_TABLE_CAP = 1 << 22
DEFAULT_BRUTE_CAP = 1 << 16
DEFAULT_SEED = 0x5EED
DEFAULT_AUDIT_EVERY = 97

FORMATS = ("json", "csv", "jsonl")


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


def load_config(path: str | None = None, **overrides) -> Config:
    """Build a Config from defaults, an optional JSON file, the environment,
    and explicit keyword overrides, in that order of precedence."""
    cfg = Config()
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a config file holds one JSON object")
        cfg = replace(cfg, **{k: v for k, v in data.items() if v is not None})
    env_cap = os.environ.get("FFPLANAR_TABLE_CAP")
    if env_cap is not None:
        cfg = replace(cfg, table_cap=int(env_cap, 0))
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        cfg = replace(cfg, **clean)
    return cfg
