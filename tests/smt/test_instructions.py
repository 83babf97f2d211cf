"""Load profiles and synthetic instruction streams."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.smt.instructions import (
    BASE_PROFILES,
    InstrClass,
    InstructionStream,
    LoadProfile,
    SPIN_LOAD,
)


def _mix(**kw):
    mix = {c: 0.0 for c in InstrClass}
    for name, frac in kw.items():
        mix[InstrClass[name.upper()]] = frac
    return mix


class TestLoadProfile:
    def test_base_profiles_valid_and_named_consistently(self):
        for name, profile in BASE_PROFILES.items():
            assert profile.name == name
            assert sum(profile.mix.values()) == pytest.approx(1.0)

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sums to"):
            LoadProfile(name="bad", mix=_mix(fxu=0.5))

    def test_rejects_empty_name(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(name="", mix=_mix(fxu=1.0))

    def test_rejects_bad_ilp(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(name="x", mix=_mix(fxu=1.0), ilp=0.0)
        with pytest.raises(ConfigurationError):
            LoadProfile(name="x", mix=_mix(fxu=1.0), ilp=100.0)

    def test_rejects_bad_miss_rate(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(name="x", mix=_mix(fxu=1.0), l1_miss_rate=1.5)

    def test_fraction_properties(self):
        p = LoadProfile(name="x", mix=_mix(fxu=0.4, load=0.3, store=0.1, branch=0.2))
        assert p.memory_fraction == pytest.approx(0.4)
        assert p.branch_fraction == pytest.approx(0.2)
        assert p.fpu_fraction == 0.0

    def test_with_name(self):
        q = SPIN_LOAD.with_name("spin2")
        assert q.name == "spin2"
        assert q.mix == SPIN_LOAD.mix

    def test_mix_vector_order(self):
        p = BASE_PROFILES["hpc"]
        v = p.mix_vector()
        assert v[int(InstrClass.FPU)] == pytest.approx(p.fpu_fraction)
        assert v.sum() == pytest.approx(1.0)


class TestInstructionStream:
    def test_deterministic_given_seed(self):
        p = BASE_PROFILES["hpc"]
        a = InstructionStream(p, np.random.Generator(np.random.PCG64(3)))
        b = InstructionStream(p, np.random.Generator(np.random.PCG64(3)))
        for _ in range(100):
            assert a.next_instruction() == b.next_instruction()

    def test_mix_statistics(self):
        p = BASE_PROFILES["fpu"]
        stream = InstructionStream(p, np.random.Generator(np.random.PCG64(0)))
        n = 20_000
        counts = {c: 0 for c in InstrClass}
        for _ in range(n):
            cls, *_ = stream.next_instruction()
            counts[cls] += 1
        for cls, frac in p.mix.items():
            assert counts[cls] / n == pytest.approx(frac, abs=0.02)

    def test_miss_rates_statistics(self):
        p = BASE_PROFILES["mem"]
        stream = InstructionStream(p, np.random.Generator(np.random.PCG64(1)))
        n = 20_000
        miss1 = sum(stream.next_instruction()[1] for _ in range(n))
        assert miss1 / n == pytest.approx(p.l1_miss_rate, abs=0.02)

    def test_refills_across_block_boundary(self):
        p = BASE_PROFILES["int"]
        stream = InstructionStream(p, np.random.Generator(np.random.PCG64(2)), block=16)
        out = [stream.next_instruction() for _ in range(100)]
        assert len(out) == 100

    def test_iterator_protocol(self):
        p = BASE_PROFILES["int"]
        stream = InstructionStream(p, np.random.Generator(np.random.PCG64(4)))
        it = iter(stream)
        cls, m1, m2, m3, mp = next(it)
        assert isinstance(cls, InstrClass)
        assert all(isinstance(b, bool) for b in (m1, m2, m3, mp))
