"""Tests for the paper's predictors: miss-pattern/last-value/two-bit LLL
predictors, the LLSR, the MLP distance predictor, and the binary MLP
predictor (Sections 4.1 and 4.2)."""

from hypothesis import given, settings, strategies as st
import pytest

from repro.pipeline import cext
from repro.predictors import (
    LLSR,
    BinaryMLPPredictor,
    LastValuePredictor,
    MLPDistancePredictor,
    MissPatternPredictor,
    TwoBitMissPredictor,
)

from conftest import needs_cext


class TestMissPatternPredictor:
    def test_cold_entry_predicts_hit(self):
        p = MissPatternPredictor()
        assert not p.predict(10)

    def test_learns_periodic_pattern(self):
        """A load that misses every 8th execution (stream behaviour)."""
        p = MissPatternPredictor()
        # Train two full periods so the period register is learned.
        for rep in range(2):
            for i in range(7):
                p.train(5, False)
            p.train(5, True)
        # Third period: the predictor must flag exactly the 8th access.
        for i in range(7):
            assert not p.predict(5)
            p.train(5, False)
        assert p.predict(5)

    def test_alternating_pattern(self):
        p = MissPatternPredictor()
        for _ in range(4):
            p.train(5, True)
            p.train(5, False)
        # period == 1 hit between misses; after one hit, predict miss
        assert p.predict(5)

    def test_always_miss_pattern(self):
        p = MissPatternPredictor()
        for _ in range(3):
            p.train(5, True)
        assert p.predict(5)  # period 0: every execution misses

    def test_saturated_period_never_predicts(self):
        """A load with a very long hit run must not wedge into
        predicted-miss-forever once its 6-bit counters saturate."""
        p = MissPatternPredictor(counter_bits=6)
        p.train(5, True)
        for _ in range(200):
            p.train(5, False)
        p.train(5, True)
        for _ in range(200):
            p.train(5, False)
            assert not p.predict(5)

    def test_aliasing_shares_entries(self):
        p = MissPatternPredictor(entries=4)
        for _ in range(3):
            p.train(1, True)
        assert p.predict(1 + 4)  # same table slot

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            MissPatternPredictor(entries=0)


class TestLastValuePredictor:
    def test_tracks_last_outcome(self):
        p = LastValuePredictor()
        p.train(3, True)
        assert p.predict(3)
        p.train(3, False)
        assert not p.predict(3)

    def test_cold_predicts_hit(self):
        assert not LastValuePredictor().predict(9)


class TestTwoBitPredictor:
    def test_needs_two_misses_to_predict(self):
        p = TwoBitMissPredictor()
        p.train(3, True)
        assert not p.predict(3)
        p.train(3, True)
        assert p.predict(3)

    def test_hysteresis(self):
        p = TwoBitMissPredictor()
        for _ in range(3):
            p.train(3, True)
        p.train(3, False)   # one hit shouldn't flip a saturated entry
        assert p.predict(3)
        p.train(3, False)
        assert not p.predict(3)


class TestLLSR:
    def test_isolated_miss_distance_zero(self):
        """Figure 3 semantics: a lone 1 exiting the head measures 0."""
        llsr = LLSR(8)
        distances = []
        llsr.commit(True, pc=7)
        for _ in range(20):
            d = llsr.commit(False)
            if d is not None:
                distances.append(d)
        assert distances == [0]

    def test_paper_figure3_example_distance(self):
        """A second 1 six instructions behind the head gives distance 6."""
        llsr = LLSR(8)
        llsr.commit(True, pc=1)          # will exit first
        for _ in range(5):
            llsr.commit(False)
        llsr.commit(True, pc=2)          # 6 instructions later
        distances = []
        for _ in range(3):
            d = llsr.commit(False)
            if d is not None:
                distances.append(d)
        # The first 1 exits on the 9th commit; the furthest 1 sits 6 in.
        assert distances[0] == 6

    def test_adjacent_misses(self):
        llsr = LLSR(8)
        llsr.commit(True, pc=1)
        llsr.commit(True, pc=2)
        results = [llsr.commit(False) for _ in range(10)]
        measured = [d for d in results if d is not None]
        assert measured[0] == 1   # pc=1 exits, pc=2 is 1 behind
        assert measured[1] == 0   # pc=2 exits isolated

    def test_distance_bounded_by_length(self):
        llsr = LLSR(16)
        for _ in range(3):
            llsr.commit(True, pc=1)
            for _ in range(4):
                llsr.commit(False)
        for _ in range(40):
            d = llsr.commit(False)
            if d is not None:
                assert 0 <= d < 16

    def test_callback_fired_with_pc(self):
        seen = []
        llsr = LLSR(4, on_measure=lambda pc, d: seen.append((pc, d)))
        llsr.commit(True, pc=42)
        for _ in range(6):
            llsr.commit(False)
        assert seen == [(42, 0)]

    def test_measured_log(self):
        llsr = LLSR(4)
        llsr.commit(True, pc=9)
        for _ in range(5):
            llsr.commit(False)
        assert llsr.measured == [(9, 0)]

    def test_rejects_tiny_length(self):
        with pytest.raises(ValueError):
            LLSR(1)

    @pytest.mark.parametrize("native", (False,
                                        pytest.param(True, marks=needs_cext)))
    def test_commit_zeros_refuses_negative_k(self, native):
        """A negative ``k`` raises before touching the register, on the
        class and on the compiled engine's twin."""
        llsr = (cext._engine().LLSR if native else LLSR)(4)
        llsr.commit(True, pc=3)
        llsr.commit_zeros(1)

        def observed():
            ring = (llsr.state() if native else
                    {"bits": list(llsr._bits), "pcs": list(llsr._pcs),
                     "head": llsr._head, "filled": llsr._filled,
                     "total": llsr._total, "last_one": llsr._last_one_total})
            return (ring, llsr.occupancy, list(llsr.measured),
                    llsr.suppressed)

        before = observed()
        with pytest.raises(ValueError, match="commit_zeros needs k >= 0"):
            llsr.commit_zeros(-2)
        assert observed() == before

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=200),
           st.integers(min_value=2, max_value=64))
    def test_distances_always_in_range(self, bits, length):
        llsr = LLSR(length)
        for bit in bits:
            d = llsr.commit(bit, pc=1)
            if d is not None:
                assert 0 <= d <= length

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), min_size=50, max_size=300))
    def test_one_measurement_per_exiting_miss(self, bits):
        """Every 1 that shifts out of the head produces one measurement."""
        length = 8
        llsr = LLSR(length)
        measured = 0
        for bit in bits:
            if llsr.commit(bit, pc=1) is not None:
                measured += 1
        exited = sum(bits[:max(0, len(bits) - length)])
        assert measured == exited


class TestMLPDistancePredictor:
    def test_last_value_semantics(self):
        p = MLPDistancePredictor()
        p.train(5, 17)
        assert p.predict(5) == 17
        p.train(5, 3)
        assert p.predict(5) == 3

    def test_cold_default(self):
        assert MLPDistancePredictor().predict(5) == 0
        assert MLPDistancePredictor().predict(5, default=9) == 9

    def test_distance_capped(self):
        p = MLPDistancePredictor(max_distance=127)
        p.train(5, 400)
        assert p.predict(5) == 127

    def test_binary_classification_counts(self):
        p = MLPDistancePredictor()
        p.train(5, 10)   # predicted 0, actual 10 -> false negative
        p.train(5, 12)   # predicted 10, actual 12 -> true positive
        p.train(5, 0)    # predicted 12, actual 0 -> false positive
        p.train(5, 0)    # predicted 0, actual 0 -> true negative
        assert p.false_neg == 1
        assert p.true_pos == 1
        assert p.false_pos == 1
        assert p.true_neg == 1
        assert p.binary_accuracy == 0.5

    def test_far_enough_counts(self):
        p = MLPDistancePredictor()
        p.train(5, 10)   # predicted 0 < 10: too short
        p.train(5, 8)    # predicted 10 >= 8: far enough
        assert p.too_short == 1
        assert p.far_enough == 1
        assert p.distance_accuracy == 0.5

    def test_fraction_sum_is_one(self):
        p = MLPDistancePredictor()
        for d in (0, 5, 0, 9, 9, 2):
            p.train(3, d)
        assert abs(sum(p.classification_fractions().values()) - 1.0) < 1e-12


class TestBinaryMLPPredictor:
    def test_tracks_mlp_presence(self):
        p = BinaryMLPPredictor()
        p.train(5, 12)
        assert p.predict(5)
        p.train(5, 0)
        assert not p.predict(5)

    def test_cold_predicts_mlp_optimistically(self):
        # Pessimistic cold-start would flush a thread on first sight of
        # every load and could starve it before its predictor ever trains
        # (see the module docstring); the default is therefore "assume
        # MLP until evidence says otherwise".
        assert BinaryMLPPredictor().predict(8)
