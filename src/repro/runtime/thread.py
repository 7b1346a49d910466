"""Simulated threads managed by the cooperative scheduler."""

import enum
import os
import threading


class ThreadState(enum.Enum):
    NEW = "new"
    READY = "ready"
    DONE = "done"


class ThreadKilled(BaseException):
    """Raised inside a simulated thread when the scheduler aborts the run.

    Derives from ``BaseException`` so target code catching ``Exception``
    cannot swallow it.
    """


def _batch_scheduling():
    """Put the calling OS thread under ``SCHED_BATCH`` (Linux).

    A batch thread woken by a lock release does not preempt the thread
    that released it. The releaser still holds the GIL at that moment,
    so a preempted releaser only makes the woken thread block on the
    GIL and switch straight back: see :mod:`repro.runtime.scheduler`.
    A no-op where the call is missing or refused.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass


class SimThread:
    """One simulated thread: a real OS thread gated by the scheduler.

    Attributes:
        tid: Small integer thread id (0-based), used by checkers as the
            writer/reader identity.
        name: Human-readable name for reports.
        sleep_steps: Scheduling rounds to skip (used by delay injection).
        spin_streak: Consecutive ``spin``-kind yields; feeds hang detection.
        bypass_sync: Figure 6's privileged-thread flag.
        blocked_reason: Why the thread is currently spinning, for reports.
    """

    def __init__(self, scheduler, tid, fn, name=None):
        self.scheduler = scheduler
        self.tid = tid
        self.fn = fn
        self.name = name or ("thread-%d" % tid)
        self.state = ThreadState.NEW
        self.error = None
        self.sleep_steps = 0
        self.spin_streak = 0
        self.bypass_sync = False
        self.blocked_reason = None
        self.steps = 0
        self._os_thread = threading.Thread(
            target=self._bootstrap, name=self.name, daemon=True
        )

    def start(self):
        self.state = ThreadState.READY
        self._os_thread.start()

    def join(self, timeout=None):
        self._os_thread.join(timeout)

    def _bootstrap(self):
        sched = self.scheduler
        _batch_scheduling()  # once, before the first park
        sched._enter_thread(self)
        try:
            self.fn()
        except ThreadKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 - reported to the driver
            self.error = exc
        finally:
            sched._exit_thread(self)

    def __repr__(self):
        return "<SimThread %s state=%s>" % (self.name, self.state.value)
