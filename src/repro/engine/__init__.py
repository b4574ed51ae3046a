"""Software baseline engine (the MonetDB stand-in) and host models."""

from repro.engine.executor import Engine
from repro.engine.morsel import MorselConfig
from repro.engine.relation import Relation, typed_array_from_column
from repro.engine.pagecache import LruPageCache
from repro.sqlir.plan import MATCH_FLAG

__all__ = [
    "Engine",
    "MATCH_FLAG",
    "MorselConfig",
    "Relation",
    "typed_array_from_column",
    "LruPageCache",
]
