"""Open-loop timing on a fake clock: latency counts from the schedule."""

from collections import namedtuple

from pipebench.closed_loop import latencies_ms
from pipebench.open_loop import ladder_search, send_schedule, sustainable_rate

Window = namedtuple("Window", "patient_id start_s")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_blocked_send_delays_later_frames_but_not_their_due_times():
    clock = FakeClock()

    def send(conn, frame):
        clock.now += 0.5 if frame == b"stall" else 0.01

    order = [(0, b"a"), (1, b"stall"), (0, b"b"), (1, b"c"), (0, b"d")]
    lags = send_schedule(order, t0=1.0, interval_s=0.1, send=send, clock=clock, sleep=clock.sleep)
    # Frame 1 is sent on time but blocks 0.5 s; frames 2 and 3 are due at
    # 1.2 and 1.3 but can only start at 1.6 and 1.61.
    assert lags[:2] == [0.0, 0.0]
    assert abs(lags[2] - 0.4) < 1e-9 and abs(lags[3] - 0.31) < 1e-9
    assert lags[4] < lags[3]


def test_stalled_consumer_raises_latency_of_frames_queued_behind_it():
    """Frames are due every 10 ms; the consumer takes 1 ms a frame but stalls
    for 100 ms on frame 3.  Each frame completes one window, drained as soon
    as the frame is processed."""
    clock = FakeClock()
    scheduled = [0.010 * i for i in range(10)]
    completed_by = {(0, float(i)): i for i in range(10)}
    drains, started = [], []
    for i, due in enumerate(scheduled):
        clock.now = max(clock.now, due)  # the frame is due, or waits its turn
        started.append(clock.now)
        clock.now += 0.100 if i == 3 else 0.001
        drains.append((clock.now, [Window(0, float(i))]))
    latency = [round(x, 6) for x in latencies_ms(drains, completed_by, scheduled)]
    assert latency[:3] == [1.0, 1.0, 1.0]
    # Frame 3 itself, then every frame that was due during the stall: each
    # waited from its scheduled time, not from when the consumer got to it.
    assert latency[3:] == [100.0, 91.0, 82.0, 73.0, 64.0, 55.0, 46.0]
    # Timed from when the consumer picked each frame up, the stall would hide.
    hidden = [round(x, 6) for x in latencies_ms(drains, completed_by, started)]
    assert hidden[4:] == [1.0] * 6


def test_sustainable_rate_interpolates_to_the_limit_crossing():
    rungs = {800: (40.0, 2.0), 1000: (50.0, 2.0), 2000: (650.0, 3.0)}
    assert abs(sustainable_rate(rungs, 200.0) - 1250.0) < 1e-9
    # A growing backlog (the generator falling behind) fails a rung too.
    rungs[1000] = (50.0, 500.0)
    assert sustainable_rate(rungs, 200.0) < 1000
    # Nothing above the top passing rung: the rung itself.
    assert sustainable_rate({800: (40.0, 1.0)}, 200.0) == 800.0


def test_ladder_search_finds_the_highest_passing_rung():
    for start in (0, 3, 7, 19):
        for capacity in range(-1, 20):
            tried = []

            def passes(index):
                tried.append(index)
                return index <= capacity

            found = ladder_search(20, start, passes)
            assert found == (None if capacity < 0 else capacity)
            # Galloping and bisection: a few rungs, never one twice.
            assert len(tried) == len(set(tried)) <= 9
