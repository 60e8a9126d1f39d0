"""The campaign helper: one process forked from the calling one, that runs
campaign units beside it (verify.run_trials).

verify imports this module when a campaign first wants a helper, so a
program that runs no such campaign never loads it.
"""

from __future__ import annotations

import atexit
import fcntl
import os
import pickle
import select
import signal
import socket
import sys
import tempfile
import threading
import traceback
from contextlib import contextmanager

import numpy as np

from . import verify

_helper = None  # this process's _Helper, once forked
_helper_lock = threading.Lock()  # held by the campaign using _helper
_NO_UNIT = (2**64 - 1).to_bytes(8, "little")


class _Helper:
    """A process forked from this one, that runs campaign units beside it.

    Both processes claim units from a counter in a file they share, under a
    POSIX record lock, which the kernel drops if its holder dies; beside the
    counter the helper records the unit it claimed last, so that a unit it
    dies running is not lost (lost()). For each campaign this process sends
    (config, np.geterr(), units) over a socket; the helper runs, under that
    errstate, each unit it claims and sends back (index, outcomes), then
    None once the counter has passed the last unit. A message is its length
    and its pickle. The helper ignores SIGINT, which a terminal sends the
    whole process group, and exits when its socket reaches EOF;
    _close_helper ends it.
    """

    def __init__(self):
        self.owner, self.active, self.dead = os.getpid(), False, False
        self.counter = tempfile.TemporaryFile()
        self.socket, theirs = socket.socketpair()
        sys.stderr.flush()  # so that the helper's stderr starts empty
        self.pid = os.fork()
        if self.pid:
            theirs.close()
            return
        try:  # in the helper, until it exits
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            self.socket.close()
            self.socket = theirs
            while True:
                self._serve(*self._receive())
        except (EOFError, OSError):  # the campaign's process closed its end, or died
            os._exit(0)
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(1)

    def _serve(self, config: verify.TrialConfig, errstate: dict, units: verify._Units) -> None:
        """Run each unit of one campaign this process claims, and send its
        outcomes back. The floors come from the units of whole trials run
        here only: a unit of one check cannot tell whether another check of
        its trial raised, which keeps the trial out of the report."""
        whole = verify._Merge(config, units)  # the whole trials run here
        kept = {}  # the pairs of the last unit run here
        with np.errstate(**errstate):
            while (index := self.claim(record=True)) < len(units):
                outcomes = verify._run_unit(config, units[index], whole.floors(), kept)
                if units[index][2] == config.checks:
                    whole.add(index, outcomes)
                self._send((index, outcomes))
        self._send(None)

    def begin(self, config: verify.TrialConfig, units: verify._Units) -> bool:
        """Start the helper on a campaign, whose unit 0 this process runs;
        False if the helper has died."""
        os.pwrite(self.counter.fileno(), (1).to_bytes(8, "little") + _NO_UNIT, 0)
        self.units, self.last = units, None  # last: the last unit received
        try:
            self._send((config, np.geterr(), units))
        except OSError:
            return False
        self.active = True
        return True

    def claim(self, record: bool = False) -> int:
        """The next unit's index, from the shared counter; with record, also
        recorded as the helper's last claim."""
        fd = self.counter.fileno()
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            index = int.from_bytes(os.pread(fd, 8, 0), "little")
            claimed = index.to_bytes(8, "little") if record else b""
            os.pwrite(fd, (index + 1).to_bytes(8, "little") + claimed, 0)
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)
        return index

    def collect(self, record, wait: bool) -> None:
        """record(index, outcomes) for each unit the helper has sent back;
        with wait, first block until it sends a unit or ends the campaign.
        A helper found dead is no longer active; claims() closes it."""
        try:
            while self.active and (wait or select.select([self.socket], [], [], 0)[0]):
                wait = False
                message = self._receive()
                if message is None:
                    self.active = False
                else:
                    self.last = message[0]
                    record(*message)
        except (EOFError, OSError):
            self.active, self.dead = False, True

    def lost(self) -> list[int]:
        """The unit a helper found dead claimed last, if it never sent it
        back: it claims, runs and sends one unit at a time, in order."""
        if not self.dead:
            return []
        claimed = int.from_bytes(os.pread(self.counter.fileno(), 8, 8), "little")
        return [claimed] if claimed < len(self.units) and claimed != self.last else []

    def close(self) -> None:
        """Close this process's ends of the helper, and if this process
        forked it, end it and reap it."""
        self.socket.close()
        self.counter.close()
        if self.owner != os.getpid():
            return
        try:
            if os.waitpid(self.pid, os.WNOHANG)[0] == 0:  # alive, and still this pid's
                os.kill(self.pid, signal.SIGTERM)
                os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped by another wait call
            pass

    def _send(self, message) -> None:
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        self.socket.sendall(len(data).to_bytes(8, "little") + data)

    def _receive(self):
        return pickle.loads(self._read(int.from_bytes(self._read(8), "little")))

    def _read(self, size: int) -> bytearray:
        data = bytearray()
        while len(data) < size:
            part = self.socket.recv(size - len(data))
            if not part:
                raise EOFError("the other process closed its end")
            data += part
        return data


@contextmanager
def claims(config: verify.TrialConfig, units: verify._Units):
    """This process's helper, forked if there is none and no other thread
    is alive (a fork copies only the calling thread), and started on one
    campaign's units; None if another campaign in this process holds the
    helper or none can be started. A forked child drops the copy of its
    parent's helper first. A campaign left by an exception closes its
    helper, whose outcomes would otherwise reach the next campaign, and so
    does one whose helper died."""
    global _helper
    if not _helper_lock.acquire(blocking=False):
        yield None
        return
    try:
        if _helper is not None and _helper.owner != os.getpid():
            _close_helper()
        if _helper is None and hasattr(os, "fork") and threading.active_count() == 1:
            _helper = _Helper()
        if _helper is not None and not _helper.begin(config, units):
            _close_helper()
        helper = _helper
        yield helper
        if helper is not None and helper.dead:
            _close_helper()
    except BaseException:
        _close_helper()
        raise
    finally:
        _helper_lock.release()


def _close_helper() -> None:
    """Drop this process's helper and close it. Registered to run at exit,
    so the helper never outlives the process that forked it."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.close()


atexit.register(_close_helper)
