"""Fixed reference work that tracks the host's current speed.

On a shared host the same pure-Python work can take 20-50% longer from one
minute to the next, so the benchmark scales its times by reference work
timed alongside them:

* ``lap()`` times a fixed loop of the operations the library spends its
  time on (list-of-lists indexing, small-int arithmetic, dict updates, a
  few big-int shifts).  The worker laps before the first job and after
  every job, for about ``LAP_SHARE`` of the job's time so that the speed
  around a long job is a median of many laps, and ``scale_pass`` reports
  each job's time at the speed where one lap takes ``NOMINAL_S`` seconds.
  The loop never calls the library and allocates no container, so a change
  to the program cannot change it, and the garbage collector never runs
  inside it.
* ``interpreter_start()`` times a bare interpreter that starts and prints
  a line.  Process start is kernel and loader work that laps inside a
  running interpreter do not track, so set-up is split: the part before
  the worker's first line of Python is scaled by bare starts to the speed
  where one takes ``NOMINAL_START_S``, the worker's own part (imports and
  inputs) by laps.
"""

import statistics
import subprocess
import sys
import time

# Median times on the host the bounds were set on (2 vCPUs under KVM,
# Python 3.11); reported times there read close to wall-clock times.
NOMINAL_S = 2.3e-3
NOMINAL_START_S = 0.065
LAP_SHARE = 0.02
WINDOW = 2

_N = 12
_TABLE = [[(i * 5 + j * 7) % _N for j in range(_N)] for i in range(_N)]
_COUNTS = dict.fromkeys(range(64), 0)
_REPEAT = 16


def _work():
    t, counts = _TABLE, _COUNTS
    hits = 0
    for _ in range(_REPEAT):
        for a in range(_N):
            row = t[a]
            for b in range(_N):
                ab = row[b]
                for c in range(0, _N, 2):
                    if t[ab][c] == t[a][t[b][c]]:
                        hits += 1
                key = (ab * 31 + b) & 63
                counts[key] = counts[key] + 1
    big = 1
    for k in range(40):
        big = (big << 61) | k
    return hits + big.bit_length()


def lap(at_least=0.0):
    """Median seconds of one run of the reference loop, over as many runs as
    it takes to spend ``at_least`` seconds (one at minimum)."""
    laps = []
    while not laps or sum(laps) < at_least:
        start = time.perf_counter()
        _work()
        laps.append(time.perf_counter() - start)
    return statistics.median(laps)


def scale(seconds, lap):
    """``seconds`` measured where a lap took ``lap`` seconds, at nominal speed."""
    return seconds * NOMINAL_S / lap


def scale_pass(times, laps):
    """A pass's job times at nominal speed, each scaled by the median of the
    ``WINDOW`` laps on either side of it (``laps[i]`` ran just before job
    ``i``, ``laps[i + 1]`` just after it)."""
    return [scale(t, statistics.median(laps[max(0, i + 1 - WINDOW):i + 1 + WINDOW]))
            for i, t in enumerate(times)]


def interpreter_start():
    """Seconds for a bare interpreter to start and print a line."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "print('ready')"], stdout=subprocess.DEVNULL,
                   check=True, timeout=60)
    return time.perf_counter() - start
