"""Unit tests for the guess-and-double phase schedule."""

import pytest

from repro.core import ElectionParameters, PhaseSchedule, Segment


def make_schedule(**overrides):
    return PhaseSchedule(ElectionParameters(**overrides))


class TestWalkLengths:
    def test_walk_lengths_double(self):
        schedule = make_schedule()
        lengths = [schedule.walk_length(i) for i in range(5)]
        assert lengths == [1, 2, 4, 8, 16]

    def test_initial_walk_length_scales(self):
        schedule = make_schedule(initial_walk_length=3)
        assert schedule.walk_length(0) == 3
        assert schedule.walk_length(2) == 12

    def test_negative_phase_rejected(self):
        with pytest.raises(ValueError):
            make_schedule().walk_length(-1)

    def test_segment_length_includes_slack_and_margin(self):
        schedule = make_schedule(congestion_slack=3, segment_margin=2)
        assert schedule.segment_length(2) == 3 * 4 + 2

    def test_phases_needed_for_walk_length(self):
        schedule = make_schedule()
        assert schedule.phases_needed_for_walk_length(1) == 0
        assert schedule.phases_needed_for_walk_length(5) == 3
        assert schedule.phases_needed_for_walk_length(16) == 4


class TestWindows:
    def test_phase_zero_starts_at_round_zero(self):
        window = make_schedule().window(0)
        assert window.start == 0
        assert window.end == 6 * window.segment_length

    def test_windows_are_contiguous(self):
        schedule = make_schedule()
        previous = schedule.window(0)
        for i in range(1, 6):
            window = schedule.window(i)
            assert window.start == previous.end
            previous = window

    def test_segment_boundaries_ordered(self):
        window = make_schedule().window(3)
        assert (
            window.walk_start
            < window.report_start
            < window.distribute_start
            < window.collect_start
            < window.decide_round
            < window.end
        )

    def test_segment_of_each_boundary(self):
        window = make_schedule().window(2)
        assert window.segment_of(window.walk_start) == Segment.WALK
        assert window.segment_of(window.report_start) == Segment.REPORT
        assert window.segment_of(window.distribute_start) == Segment.DISTRIBUTE
        assert window.segment_of(window.collect_start) == Segment.COLLECT
        assert window.segment_of(window.decide_round) == Segment.DECIDE
        assert window.segment_of(window.end - 1) == Segment.DECIDE

    def test_segment_of_out_of_range(self):
        window = make_schedule().window(1)
        with pytest.raises(ValueError):
            window.segment_of(window.end)

    def test_windows_generator_matches_window(self):
        schedule = make_schedule()
        generated = []
        for window in schedule.windows():
            generated.append(window)
            if len(generated) == 4:
                break
        for i, window in enumerate(generated):
            assert window == schedule.window(i)


class TestLocate:
    def test_locate_round_zero(self):
        schedule = make_schedule()
        window, segment = schedule.locate(0)
        assert window.index == 0
        assert segment == Segment.WALK

    def test_locate_later_phase(self):
        schedule = make_schedule()
        target = schedule.window(3)
        window, segment = schedule.locate(target.collect_start + 1)
        assert window.index == 3
        assert segment == Segment.COLLECT

    def test_locate_rejects_negative(self):
        with pytest.raises(ValueError):
            make_schedule().locate(-1)


class TestConvergecastSchedule:
    def test_report_send_rounds_respect_tree_depth(self):
        window = make_schedule().window(3)  # walk length 8
        # Deeper nodes (later first arrival) send earlier.
        assert window.report_send_round(8) < window.report_send_round(1)
        assert window.report_send_round(1) < window.distribute_start

    def test_collect_send_round_in_collect_segment(self):
        window = make_schedule().window(3)
        assert window.collect_start <= window.collect_send_round(5) < window.decide_round

    def test_deep_arrival_clamped(self):
        window = make_schedule().window(0)
        assert window.report_send_round(100) == window.report_start


#: Parameter sets with different initial lengths, slacks and margins.
SCHEDULE_PARAMS = [
    ElectionParameters(),
    ElectionParameters(initial_walk_length=3, congestion_slack=2, segment_margin=1),
    ElectionParameters(initial_walk_length=5, congestion_slack=4, segment_margin=7),
]

PHASES = range(31)


def closed_form_window(params, index):
    """``(start, walk_length, segment_length)`` of phase ``index`` without the memo."""
    walk = params.initial_walk_length * 2**index
    segment = params.congestion_slack * walk + params.segment_margin
    # sum_{j < i} 6 * (slack * L0 * 2**j + margin)
    start = 6 * (
        params.congestion_slack * params.initial_walk_length * (2**index - 1)
        + params.segment_margin * index
    )
    return start, walk, segment


def closed_form_phase_of(params, round_number):
    index = 0
    while closed_form_window(params, index + 1)[0] <= round_number:
        index += 1
    return index


def boundary_rounds(params):
    """Every phase and segment boundary of phases 0-30, each +- 1."""
    rounds = set()
    for index in PHASES:
        start, _walk, segment = closed_form_window(params, index)
        for offset in (0, segment, 2 * segment, 3 * segment, 4 * segment, 6 * segment):
            rounds.update({start + offset - 1, start + offset, start + offset + 1})
    return sorted(r for r in rounds if r >= 0)


@pytest.mark.parametrize("params", SCHEDULE_PARAMS, ids=["default", "L3-s2-m1", "L5-s4-m7"])
class TestMemoisedSchedule:
    def test_window_matches_closed_form(self, params):
        schedule = PhaseSchedule(params)
        for index in PHASES:
            window = schedule.window(index)
            assert (window.start, window.walk_length, window.segment_length) == (
                closed_form_window(params, index)
            )
            assert window.index == index
            assert window.end == closed_form_window(params, index + 1)[0]

    def test_locate_matches_closed_form_at_every_boundary(self, params):
        schedule = PhaseSchedule(params)
        for round_number in boundary_rounds(params):
            window, segment = schedule.locate(round_number)
            index = closed_form_phase_of(params, round_number)
            start, _walk, length = closed_form_window(params, index)
            assert window.index == index
            assert window.start <= round_number < window.end
            expected = list(Segment)[min((round_number - start) // length, 4)]
            assert segment == expected

    def test_query_order_does_not_matter(self, params):
        cold = [PhaseSchedule(params).window(i) for i in PHASES]
        ascending_schedule = PhaseSchedule(params)
        ascending = [ascending_schedule.window(i) for i in PHASES]
        descending_schedule = PhaseSchedule(params)
        descending = [descending_schedule.window(i) for i in reversed(PHASES)][::-1]
        assert cold == ascending == descending

        rounds = boundary_rounds(params)
        cold_located = [PhaseSchedule(params).locate(r) for r in rounds]
        ascending_schedule = PhaseSchedule(params)
        descending_schedule = PhaseSchedule(params)
        ascending_located = [ascending_schedule.locate(r) for r in rounds]
        descending_located = [descending_schedule.locate(r) for r in reversed(rounds)][::-1]
        assert cold_located == ascending_located == descending_located

    def test_windows_generator_matches_memo(self, params):
        schedule = PhaseSchedule(params)
        schedule.window(12)  # warm part of the memo first
        generated = []
        for window in schedule.windows():
            generated.append(window)
            if len(generated) == 20:
                break
        assert generated == [PhaseSchedule(params).window(i) for i in range(20)]

    def test_negative_inputs_still_raise(self, params):
        schedule = PhaseSchedule(params)
        schedule.window(5)  # a warm memo must not turn -1 into a list index
        for call in (schedule.window, schedule.walk_length, schedule.segment_length,
                     schedule.locate):
            with pytest.raises(ValueError):
                call(-1)
        with pytest.raises(ValueError):
            PhaseSchedule(params).window(-3)
