"""Counter-based keyed uniforms: one pure draw per seeded event.

Every seeded per-event stream in the engines -- a crash check, a
message copy's fate, an asynchronous link delay, a Luby priority -- is a
pure function of a key tuple, never state carried between draws.  That
is what lets the reference, fast, asynchronous, bulk and sharded paths
evaluate the same adversary and the same randomized algorithm in any
order, in any process, and agree bit for bit.

The draw
--------
``keyed_uniform(seed, stream, *keys)`` starts a 64-bit state at zero
and absorbs ``seed``, then ``stream``, then each key, one splitmix64
step per word (``mix`` is the splitmix64 finalizer, ``GOLDEN`` its
increment)::

    h = 0
    for w in (seed, stream, *keys):
        h = mix((h ^ w) + GOLDEN)
    u = (h >> 11) / 2**53

Absorbing the seed as a word of its own keeps every (seed, stream) pair
apart: a layout that starts at ``h = seed`` merges seed ``s`` on stream
``t`` with seed ``t`` on stream ``s``.

All words are taken modulo 2^64 (two's complement for negative values),
so any Python int seed is accepted; seeds equal modulo 2^64 share a
stream.  The result is a float in ``[0, 1)`` with 53-bit resolution.

:func:`keyed_uniforms` is the vector twin: the same absorption with
``uint64`` numpy arithmetic, where any key may be an integer array
(arrays broadcast together).  The two agree bit for bit, element by
element -- the scalar form serves the generator engines, the vector
form the columnar kernels, and ``tests/properties/test_keyed_draws.py``
pins the agreement.

Streams and key orders
----------------------
Each consumer owns one stream index, so no two kinds of event share
draws.  The key order is part of the contract:

==================  ======================================
stream              keys
==================  ======================================
:data:`CRASH`       ``(session round, vertex)``
:data:`MSG_DROP`    ``(session round, src, dst, copy)``
:data:`MSG_DELAY`   ``(session round, src, dst, copy)``
:data:`MSG_DELAY_BY`  ``(session round, src, dst, copy)``
:data:`MSG_DUP`     ``(session round, src, dst, copy)``
:data:`EDGE_DELAY`  ``(src, dst, sender round)``
:data:`LUBY`        ``(vertex id, attempt)``
==================  ======================================
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "CRASH",
    "EDGE_DELAY",
    "LUBY",
    "MSG_DELAY",
    "MSG_DELAY_BY",
    "MSG_DROP",
    "MSG_DUP",
    "keyed_uniform",
    "keyed_uniforms",
]

CRASH = 1
MSG_DROP = 2
MSG_DELAY = 3
MSG_DELAY_BY = 4
MSG_DUP = 5
EDGE_DELAY = 6
LUBY = 7

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
_SCALE = 2.0**-53

_U_GOLDEN = np.uint64(_GOLDEN)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_U30, _U27, _U31, _U11 = (np.uint64(s) for s in (30, 27, 31, 11))


def _mix(z: int) -> int:
    """The splitmix64 finalizer on a Python int in ``[0, 2^64)``."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def _mix_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on a ``uint64`` array
    (numpy's unsigned arithmetic wraps modulo 2^64)."""
    z ^= z >> _U30
    z *= _U_M1
    z ^= z >> _U27
    z *= _U_M2
    z ^= z >> _U31
    return z


@lru_cache(maxsize=256)
def _prefix(seed: int, stream: int) -> int:
    """The state after absorbing ``seed`` and ``stream``."""
    h = _mix((seed + _GOLDEN) & _MASK)
    return _mix(((h ^ stream) + _GOLDEN) & _MASK)


def keyed_uniform(seed: int, stream: int, *keys: int) -> float:
    """The uniform in ``[0, 1)`` keyed by ``(seed, stream, *keys)``."""
    h = _prefix(seed, stream)
    for k in keys:
        # masking after the add is enough: Python ints are two's
        # complement, so negative or wide words reduce modulo 2^64
        h = _mix(((h ^ k) + _GOLDEN) & _MASK)
    return (h >> 11) * _SCALE


def keyed_uniforms(seed: int, stream: int, *keys) -> np.ndarray:
    """:func:`keyed_uniform` over integer key arrays, element by element.

    Each key is a Python int or an integer array; arrays broadcast
    together and the result has their broadcast shape (a 0-d array when
    every key is a scalar).  ``out[i] == keyed_uniform(seed, stream,
    k0[i], k1[i], ...)`` exactly.
    """
    h: int | np.ndarray = _prefix(seed, stream)
    for k in keys:
        if isinstance(k, (int, np.integer)):
            if isinstance(h, int):
                h = _mix(((h ^ int(k)) + _GOLDEN) & _MASK)
                continue
            h ^= np.uint64(int(k) & _MASK)
        else:
            k = np.asarray(k)
            if k.dtype.kind not in "iu":
                raise TypeError(f"keys must be integers, got dtype {k.dtype}")
            if isinstance(h, int):
                h = np.uint64(h)
            # a fresh array: the state never aliases a caller's keys, so
            # it can be updated in place
            h = np.asarray(k.astype(np.uint64) ^ h)
        h += _U_GOLDEN
        _mix_array(h)
    if isinstance(h, int):
        return np.asarray((h >> 11) * _SCALE)
    return (h >> _U11).astype(np.float64) * _SCALE
