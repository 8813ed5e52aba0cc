"""The counter-based keyed draw (:mod:`repro.draws`): known answers, the
scalar/vector bit-identity every engine pair relies on, uniformity, and
the columnar crash draw against the per-vertex one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.shard import _Adversary
from repro.draws import (
    CRASH,
    EDGE_DELAY,
    LUBY,
    MSG_DROP,
    keyed_uniform,
    keyed_uniforms,
)
from repro.faults.plan import CrashSpec
from repro.runtime.shard import LocalComm

#: (seed, stream, *keys) -> the draw; a change to the mixing, the
#: absorption order or the float conversion moves these literals
KNOWN_ANSWERS = [
    ((0, CRASH, 1, 0), 0.9790978530853444),
    ((7, MSG_DROP, 3, 10, 11, 0), 0.7806533821699314),
    ((-1, LUBY, 2**63, 1), 0.6762192610959594),
    ((2**64 + 5, EDGE_DELAY, 0, 1, 2), 0.18903998037834324),
    ((12345, LUBY), 0.9838760143561948),
]


@pytest.mark.parametrize("args, expected", KNOWN_ANSWERS)
def test_known_answers(args, expected):
    assert keyed_uniform(*args) == expected
    assert keyed_uniforms(*args) == expected


def test_words_reduce_modulo_2_64():
    assert keyed_uniform(2**64 + 5, CRASH, 1) == keyed_uniform(5, CRASH, 1)
    assert keyed_uniform(-1, CRASH, 1) == keyed_uniform(2**64 - 1, CRASH, 1)
    assert keyed_uniform(0, CRASH, -3) == keyed_uniform(0, CRASH, 2**64 - 3)


def test_streams_and_key_order_are_distinct():
    draws = {
        keyed_uniform(1, CRASH, 2, 3),
        keyed_uniform(1, CRASH, 3, 2),
        keyed_uniform(1, MSG_DROP, 2, 3),
        keyed_uniform(2, CRASH, 2, 3),
        keyed_uniform(1, CRASH, 2, 3, 0),
    }
    assert len(draws) == 5
    # seed and stream are separate words: swapping them changes the draw
    assert keyed_uniform(CRASH, LUBY, 4, 5) != keyed_uniform(LUBY, CRASH, 4, 5)


seeds = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([0, -1, 2**63, 2**63 - 1, 2**64 - 1, 2**64]),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    stream=st.integers(min_value=0, max_value=16),
    dtype=st.sampled_from([np.int32, np.int64]),
    data=st.data(),
)
def test_scalar_equals_vector(seed, stream, dtype, data):
    info = np.iinfo(dtype)
    size = data.draw(st.integers(min_value=0, max_value=12))
    n_keys = data.draw(st.integers(min_value=1, max_value=4))
    keys = []
    for _ in range(n_keys):
        if data.draw(st.booleans()):
            keys.append(data.draw(st.integers(min_value=-(2**40), max_value=2**40)))
        else:
            vals = data.draw(
                st.lists(
                    st.integers(min_value=int(info.min), max_value=int(info.max)),
                    min_size=size,
                    max_size=size,
                )
            )
            keys.append(np.asarray(vals, dtype=dtype))
    vec = keyed_uniforms(seed, stream, *keys)
    if not any(isinstance(k, np.ndarray) for k in keys):
        assert vec.shape == ()
        assert float(vec) == keyed_uniform(seed, stream, *keys)
        return
    assert vec.shape == (size,)
    for i in range(size):
        row = [int(k[i]) if isinstance(k, np.ndarray) else k for k in keys]
        assert vec[i] == keyed_uniform(seed, stream, *row)


def test_uniformity_over_adjacent_keys():
    n = 10**6
    keys = np.arange(n, dtype=np.int64)
    for vec in (
        keyed_uniforms(7, CRASH, 3, keys),  # adjacent last key
        keyed_uniforms(7, MSG_DROP, keys, 5, 6, 0),  # adjacent first key
    ):
        assert vec.min() >= 0.0 and vec.max() < 1.0
        # the mean of n uniforms has sd 1/sqrt(12 n) ~ 2.9e-4
        assert abs(vec.mean() - 0.5) < 2e-3
        counts = np.bincount((vec * 16).astype(np.int64), minlength=16)
        expected = n / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 15 degrees of freedom: P(chi2 > 40) < 1e-3
        assert chi2 < 40.0, chi2


@pytest.mark.parametrize("bounds", [[0, 100], [0, 37, 100], [0, 1, 50, 99, 100]])
def test_adversary_strike_matches_per_vertex_strikes(bounds):
    """The columnar crash draw, shard by shard, equals the generator
    engines' per-vertex ``CrashSpec.strikes`` (scalar form)."""
    at = {5: 2, 36: 1, 37: 3, 99: 1}
    spec = CrashSpec(at=at, hazard=0.1)
    params = {
        "fault_seed": 11,
        "round_offset": 4,
        "crashes": {"at": at, "hazard": 0.1},
    }
    n = bounds[-1]
    alive = set(range(n))
    for rnd in range(1, 6):
        expected = sorted(v for v in alive if spec.strikes(11, 4 + rnd, v))
        got = []
        for lo, hi in zip(bounds, bounds[1:]):
            running = np.array([v in alive for v in range(lo, hi)], dtype=bool)
            records: list = []
            newly, crashed = _Adversary(params).strike(
                running, lo, rnd, records, LocalComm()
            )
            assert crashed == newly.size == len(records)
            assert all(r == rnd for r, _v in records)
            assert not running[newly].any()
            got.extend(lo + int(i) for i in newly)
        assert got == expected
        alive -= set(got)
    assert {5, 36, 37, 99}.isdisjoint(alive)
