"""The machine's speed while a span of code runs, and the span's time at a
fixed reference speed.

A shared host runs this process faster or slower from one second to the
next, by ±25 % and more.  Process CPU time drifts with wall time, so the
drift is in execution speed, not in scheduling.  A ``Speedometer`` times a
fixed calibration chunk just before and just after the span, and every
``INTERVAL_S`` while it runs (from a SIGALRM handler, in the thread that
runs the span; the handler runs the chunk once untimed first, so that the
sample does not depend on what permrel left in the caches).  The span's
reference time is its wall time, less the time spent in the handler,
times the mean of ``REF_CHUNK_S / chunk time`` over the samples: the time
the span would have taken had the machine run the chunk in
``REF_CHUNK_S`` throughout.

There are two chunks.  The "mixed" chunk, for solving, mixes the two
kinds of work permrel does: interpreted Python (dict and int operations)
and numpy gathers from a group-sized multiplication table.  The "python"
chunk, for set-up, is the interpreted half alone: set-up times
``import permrel``, numpy's import with it, so numpy must not be imported
before set-up starts.  Nothing in either chunk calls permrel, so a change
to permrel moves the reference time as it moves the wall time.

    with Speedometer("mixed") as meter:
        work()
    meter.wall_s, meter.ref_s, meter.speed

``start()`` and ``stop()`` do the same for a span that does not fit one
``with`` block.
"""

import signal
import time

INTERVAL_S = 0.2
# samples taken just before and just after the span, so that a span
# shorter than INTERVAL_S still has a measured speed
EDGE_SAMPLES = 3
# chunk -> its median time inside a worker on the 2-vCPU container where
# the benchmark was defined; it only sets the scale, so reference times
# read as seconds there
REF_CHUNK_S = {"python": 0.0013, "mixed": 0.0022}

_ORDER = 360
_KEYS = list(range(512))
_table = None


def python_chunk():
    """A fixed amount of interpreted work."""
    seen = dict.fromkeys(_KEYS, 0)
    acc = 0
    for i in range(4000):
        key = (i * 37) & 511
        seen[key] = seen[key] + i
        acc ^= seen[(key * 5) & 511] % 97
    return acc


def mixed_chunk():
    """The interpreted chunk, then about as much time in numpy gathers."""
    global _table
    import numpy as np

    if _table is None:
        rng = np.random.default_rng(12345)
        members = np.sort(rng.choice(_ORDER, size=60, replace=False)).astype(np.int32)
        table = np.argsort(rng.random((_ORDER, _ORDER)), axis=1).astype(np.int32)
        _table = table, members
    table, members = _table
    acc = python_chunk()
    member = np.zeros(_ORDER, dtype=bool)
    member[members] = True
    for _ in range(20):
        products = table[np.ix_(members, members)]
        acc += int(np.flatnonzero(member[products]).size)
    return acc


CHUNKS = {"python": python_chunk, "mixed": mixed_chunk}


def sample(kind):
    """The time of one chunk of ``kind``, in seconds."""
    chunk = CHUNKS[kind]
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


class Speedometer:
    """The wall time of a span, less the handler's time, and its reference
    time.  ``interval=0`` samples only before and after the span, so that
    nothing runs inside it (the traced passes use that)."""

    def __init__(self, kind="mixed", interval=INTERVAL_S):
        self.kind = kind
        self.interval = interval
        self.samples = []
        self.paused = 0.0
        self.wall_s = None
        self.ref_s = None
        self.speed = None
        self._previous = None
        self._start = None

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        sample(self.kind)  # bring the chunk back into the caches permrel used
        self.samples.append(sample(self.kind))
        self.paused += time.perf_counter() - start

    def start(self):
        sample(self.kind)  # warm the chunk's code and data
        self.samples.extend(sample(self.kind) for _ in range(EDGE_SAMPLES))
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._start = time.perf_counter()
        return self

    def stop(self):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        if self.interval:
            signal.signal(signal.SIGALRM, self._previous)
        self.samples.extend(sample(self.kind) for _ in range(EDGE_SAMPLES))
        self.wall_s = end - self._start - self.paused
        ref = REF_CHUNK_S[self.kind]
        self.speed = sum(ref / s for s in self.samples) / len(self.samples)
        self.ref_s = self.wall_s * self.speed

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False
