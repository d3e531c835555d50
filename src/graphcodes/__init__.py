"""Codes with per-symbol encoding constraints.

Given a bipartite graph saying which message symbols each code symbol may
depend on, this package computes the reachable minimum-distance bounds
(general and systematic), constructs linear codes achieving them as subcodes
of Reed-Solomon codes, and ships exhaustive verification oracles plus an
efficient decoder.

The package splits where the paper does.  The bounds are functions of the
graph alone: ``errors``, ``field``, ``graph`` and ``bounds`` are pure Python
and are imported with the package.  The constructions, their verification
and the decoder need field arithmetic on arrays: ``arrays``, ``linalg``,
``rs``, ``construct`` and ``verify`` use numpy, and load on first use.  The
names re-exported here from ``construct``, ``rs`` and ``verify`` resolve on
first access and are then kept in this namespace, so ``graphcodes bounds``
and ``import graphcodes.bounds`` never import numpy.  A graph is built by
its constructor, ``ConstraintGraph(rows)``, or read by
``ConstraintGraph.from_dict`` or ``ConstraintGraph.load``.
"""

import importlib

from .bounds import Bound, BoundsReport, bounds_report, d_min_bound, k_sys_search
from .errors import (DecodingError, GuardExceededError, InfeasibleError,
                     NoMatchingError)
from .field import GF, smallest_prime_at_least
from .graph import ConstraintGraph, find_matching, hall_check, matched_adjacency

__version__ = "0.1.0"

# name -> the numpy-backed module that defines it
_ON_FIRST_USE = {
    **dict.fromkeys(("CodeSpec", "generic_subcode", "mds_nullspace_construct",
                     "systematic_dmin", "systematic_dsys", "validity_check"),
                    "construct"),
    **dict.fromkeys(("RSCode", "default_defining_set"), "rs"),
    **dict.fromkeys(("DistanceReport", "min_distance_exhaustive", "rank_over_field",
                     "subcode_decode", "subcode_encode", "systematic_fast_read"),
                    "verify"),
}

__all__ = [
    "GF", "ConstraintGraph", "RSCode", "CodeSpec",
    "Bound", "BoundsReport", "DistanceReport",
    "bounds_report", "d_min_bound", "k_sys_search",
    "generic_subcode", "systematic_dmin", "systematic_dsys",
    "mds_nullspace_construct", "validity_check",
    "find_matching", "hall_check", "matched_adjacency", "default_defining_set",
    "min_distance_exhaustive", "rank_over_field",
    "subcode_encode", "subcode_decode", "systematic_fast_read",
    "smallest_prime_at_least",
    "DecodingError", "GuardExceededError", "InfeasibleError", "NoMatchingError",
]


def __getattr__(name):
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
