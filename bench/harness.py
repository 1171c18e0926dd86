"""The closed measurement loop shared by the workloads.

One client asks one question at a time: the next answer is requested only
when the previous one has returned. A round asks every question of the
workload once, in a fixed order; a run repeats whole rounds until the
measured phase has lasted the requested number of seconds.

The host's speed drifts: the same pure-Python loop took from 300 to 485 ms
within one minute, and runs of ``product-rule`` on one seed differed by up
to 25 %. A fixed calibration kernel, which calls nothing of procval, is
therefore timed between answers, every ``GAUGE_EVERY_S`` of measured time.
Every answer time is reported at the reference speed: its wall time times
``GAUGE_REFERENCE_S`` over the kernel's median time around the answer. The
unadjusted wall times are kept beside them. A workload whose time the kernel
does not track (``speed_adjusted=False``) is timed in wall time alone.
"""

from __future__ import annotations

import bisect
import io
import math
import resource
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# Calibration kernel: timed this often during the measured phase, and its
# median time on the reference machine (2-vCPU Intel Xeon at 2.1 GHz,
# bench/README.md), to which every reported time is scaled.
GAUGE_EVERY_S = 0.05
GAUGE_REFERENCE_S = 2.4e-3


@dataclass
class Op:
    """One question. ``rejects`` marks a question whose required answer is
    an input error (CLI exit code 2)."""

    label: str
    call: Callable[[], Any]
    rejects: bool = False


@dataclass
class Workload:
    """The questions of one workload, and how to judge their answers.

    ``check(i, out)`` returns a list of problems with answer ``out`` to
    question ``i`` (empty when correct); ``digest(i, out)`` reduces an answer
    to a small value that must repeat exactly in every round.
    """

    name: str
    ops: list[Op]
    check: Callable[[int, Any], list[str]]
    digest: Callable[[int, Any], Any]
    facts: dict = field(default_factory=dict)
    speed_adjusted: bool = True

    def subset(self, keep: list[int]) -> "Workload":
        """The same workload reduced to the questions at ``keep``."""
        return Workload(self.name, [self.ops[i] for i in keep],
                        lambda i, out: self.check(keep[i], out),
                        lambda i, out: self.digest(keep[i], out), self.facts,
                        self.speed_adjusted)


@dataclass
class RunResult:
    rounds: int
    attempted: int
    failed: int
    times: list[list[float]]  # per question, the adjusted times of its answers that did not fail
    wall: list[list[float]]   # the same answers' unadjusted wall times
    first: list[Any]          # the first round's answers
    problems: list[str]       # answers that changed between rounds

    def question_times(self, labels: list[str], adjusted: bool = True) -> list[float]:
        """Median answer time of each distinct question (by label) that did
        not fail, over all the times it was asked. The median per question
        keeps short stalls of the machine out of the figures."""
        grouped: dict[str, list[float]] = {}
        for label, t in zip(labels, self.times if adjusted else self.wall):
            grouped.setdefault(label, []).extend(t)
        return [statistics.median(t) for t in grouped.values() if t]


class SpeedGauge:
    """Times a fixed calibration kernel: a pure-Python loop, small dense
    numpy and LAPACK calls, and tuple and dict churn, the three kinds of work
    the workloads do. It calls nothing of procval, so a change to procval
    cannot move it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self._h = a + a.conj().T
        self._x = rng.standard_normal((4, 4))
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        for _ in range(5):  # warm-up, not kept
            self._kernel()

    def _kernel(self) -> None:
        s = 0
        for i in range(6000):
            s += i * i % 7
        for _ in range(15):
            np.linalg.eigvalsh(self._h)
            np.kron(self._x, self._x).sum()
            (self._h @ self._h).trace()
        counts: dict[tuple[int, int], int] = {}
        for i in range(1500):
            key = (i % 13, i % 7)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())

    def sample(self) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def factor(self, start: float, end: float) -> float:
        """``GAUGE_REFERENCE_S`` over the median kernel time of the samples
        taken from two before ``start`` to two after ``end``."""
        lo = max(0, bisect.bisect_right(self.samples, start, key=lambda s: s[0]) - 2)
        hi = bisect.bisect_right(self.samples, end, key=lambda s: s[0]) + 2
        return GAUGE_REFERENCE_S / statistics.median(d for _, d in self.samples[lo:hi])


class Failure:
    """Stands in for the answer of a question that raised."""

    def __init__(self, err: BaseException):
        self.text = f"{type(err).__name__}: {err}"

    def __repr__(self) -> str:
        return f"Failure({self.text})"


@dataclass(frozen=True)
class CliAnswer:
    code: int
    out: str
    err: str


def cli_call(main, argv: list[str]) -> CliAnswer:
    """Run ``procval.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return CliAnswer(code, out.getvalue(), err.getvalue())


def is_failed(op: Op, out: Any) -> bool:
    """A question fails when it raises, when the CLI reports an input error
    (exit 2) on a question that has an answer, or when it does not report one
    on a question whose required answer is that error."""
    if isinstance(out, Failure):
        return True
    if isinstance(out, CliAnswer):
        return (out.code != 2) if op.rejects else (out.code == 2)
    return False


def run_rounds(wl: Workload, seconds: float, on_round_end=None) -> RunResult:
    """Ask whole rounds of questions until ``seconds`` have passed, timing
    each answer on its own and, on a speed-adjusted workload, the calibration
    kernel between answers. Later rounds must repeat the first round's
    answers exactly (compared through ``wl.digest``)."""
    gauge = SpeedGauge() if wl.speed_adjusted else None
    spans: list[list[tuple[float, float]]] = [[] for _ in wl.ops]  # (start, seconds)
    attempted = failed = 0
    first: list[Any] = []
    digests: list[Any] = []
    problems: list[str] = []
    clock = time.perf_counter
    rounds = 0
    if gauge is not None:
        gauge.sample()
    start = last_sample = clock()
    while True:
        for i, op in enumerate(wl.ops):
            t0 = clock()
            try:
                out = op.call()
            except Exception as err:  # a raising question is a failed answer
                out = Failure(err)
            dt = clock() - t0
            attempted += 1
            if is_failed(op, out):
                failed += 1
            else:
                spans[i].append((t0, dt))
            if gauge is not None and clock() - last_sample >= GAUGE_EVERY_S:
                gauge.sample()
                last_sample = clock()
            if rounds == 0:
                first.append(out)
                digests.append(None if isinstance(out, Failure) else wl.digest(i, out))
            elif (None if isinstance(out, Failure) else wl.digest(i, out)) != digests[i]:
                problems.append(f"{op.label}: answer changed in round {rounds + 1}")
        rounds += 1
        if on_round_end is not None:
            on_round_end()
        if clock() - start >= seconds:
            break
    wall = [[dt for _, dt in q] for q in spans]
    if gauge is None:
        return RunResult(rounds, attempted, failed, wall, wall, first, problems)
    gauge.sample()
    times = [[dt * gauge.factor(t0, t0 + dt) for t0, dt in q] for q in spans]
    return RunResult(rounds, attempted, failed, times, wall, first, problems)


def check_answers(wl: Workload, result: RunResult) -> list[str]:
    """Problems with the first round's answers to the questions that did not
    fail, plus any answer that changed between rounds."""
    problems = list(result.problems)
    for i, (op, out) in enumerate(zip(wl.ops, result.first)):
        if not is_failed(op, out):
            problems += [f"{op.label}: {p}" for p in wl.check(i, out)]
    return problems


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
