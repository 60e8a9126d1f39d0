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
import struct
import sys
import tempfile
import threading
import traceback
from contextlib import contextmanager

import numpy as np

from . import verify
from .projections import ProjectionPair, Provenance

_helper = None  # this process's _Helper, once forked
_helper_lock = threading.Lock()  # held by the campaign using _helper
_NO_UNIT = 2**64 - 1
# the counter file: the next unit from the front, the helper's last claim,
# and the first split unit the helper has claimed from the back
_COUNTER = struct.Struct("<3Q")


class _Helper:
    """A process forked from this one, that runs campaign units beside it.

    Both processes claim units (verify._Units) from counters in a file they
    share, under a POSIX record lock, which the kernel drops if its holder
    dies. This process claims from the front. The helper claims the split
    trials from the back, a whole trial at a time while this process has not
    started it, and runs its units in order; once the next trial back is
    the one this process is on, it claims from the front too. A front claim
    that reaches the helper's trials skips them. Beside the counters the
    helper records the unit it claimed last, so that the units of a trial it
    dies in are not lost (lost()). The two processes pass each other the
    split trials' pairs they build through _Slots. For each campaign this
    process sends (config, np.geterr(), units) over a socket; the helper
    runs, under that errstate, each unit it claims and sends back (index,
    outcomes), then None once its claims have passed the last unit. A
    message is its length and its pickle. The helper ignores SIGINT, which a
    terminal sends the whole process group, and exits when its socket
    reaches EOF; _close_helper ends it.
    """

    def __init__(self):
        self.owner, self.active, self.dead = os.getpid(), False, False
        self.counter, self.slots = tempfile.TemporaryFile(), _Slots()
        self.socket, theirs = socket.socketpair()
        sys.stderr.flush()  # so that the helper's stderr starts empty
        self.pid = os.fork()
        if self.pid:
            theirs.close()
            return
        try:  # in the helper, until it exits
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            self.socket.close()
            self.socket, self.slots.mine = theirs, 1
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
        kept = verify._Kept(self.slots)
        self.units = units
        self.slots.start(units)
        with np.errstate(**errstate):
            while (index := self._claim_back()) < len(units):
                outcomes = verify._run_unit(config, units[index], whole.floors(), kept)
                if units[index][2] == config.checks:
                    whole.add(index, outcomes)
                self._send((index, outcomes))
        self._send(None)

    def begin(self, config: verify.TrialConfig, units: verify._Units) -> bool:
        """Start the helper on a campaign, whose unit 0 this process runs;
        False if the helper has died."""
        os.pwrite(self.counter.fileno(), _COUNTER.pack(1, _NO_UNIT, units.split), 0)
        self.units, self.last = units, None  # last: the last unit received
        self.slots.start(units, clear=True)
        try:
            self._send((config, np.geterr(), units))
        except OSError:
            return False
        self.active = True
        return True

    @contextmanager
    def _counters(self):
        """The counters, read and written under the file's lock: a list of
        the next front unit, the helper's last claim and the back."""
        fd = self.counter.fileno()
        fcntl.lockf(fd, fcntl.LOCK_EX)
        try:
            counters = list(_COUNTER.unpack(os.pread(fd, _COUNTER.size, 0)))
            yield counters
            os.pwrite(fd, _COUNTER.pack(*counters), 0)
        finally:
            fcntl.lockf(fd, fcntl.LOCK_UN)

    def claim(self) -> int:
        """The next unit from the front."""
        with self._counters() as counters:
            return self._front(counters)

    def _front(self, counters: list[int]) -> int:
        front, _, back = counters
        index = self.units.split if front == back else front  # past the helper's trials
        counters[0] = index + 1
        return index

    def _claim_back(self) -> int:
        """The helper's next unit, recorded as its last claim: the next unit
        of the trial it claimed from the back, else the trial before that
        one while the front has not reached it, else the next from the
        front."""
        with self._counters() as counters:
            front, last, back = counters
            rest, width = self._rest(last, back), self.units.width
            if rest:
                index = rest[0]
            elif back - width >= front:
                index = counters[2] = back - width
            else:
                index = self._front(counters)
            counters[1] = index
        return index

    def _rest(self, claimed: int, back: int) -> range:
        """The units after `claimed` of the trial the helper claimed from
        the back, where `claimed` is one of them."""
        if back <= claimed < self.units.split:
            return range(claimed + 1, back + self.units.width)
        return range(0)

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
        """The units a helper found dead claimed and never sent back: it
        claims, runs and sends one unit at a time, so the last it claimed,
        if that one was not sent, and when that one was claimed from the
        back, the units of its trial after it."""
        if not self.dead:
            return []
        _, claimed, back = _COUNTER.unpack(os.pread(self.counter.fileno(), _COUNTER.size, 0))
        lost = [claimed] if claimed < len(self.units) and claimed != self.last else []
        return lost + [*self._rest(claimed, back)]

    def close(self) -> None:
        """Close this process's ends of the helper, and if this process
        forked it, end it and reap it."""
        self.socket.close()
        self.counter.close()
        self.slots.file.close()
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


# a slot's header: its state, and the dim, seed, rank_f and rank_g of its pair
_HEADER = struct.Struct("<5Q")
_EMPTY, _BUILDING, _READY = range(3)


class _Slots:
    """The split trials' pairs (verify._Units) the two processes of a
    campaign pass each other, in a file they share: one slot each, holding
    the last such pair its process built and validated, f, g and their
    ranks, under (dim, seed), on which alone a pair depends.

    pair(dim, seed) takes the pair from the other process's slot where that
    one holds it or is building it, waiting in the latter case; else it
    announces the pair in its own slot, builds it, and writes it there once
    it is validated. Reading the other slot and announcing are one step under
    the file's header lock, so the two processes never both build a pair
    both of them want. A slot is read under that lock, shared, which its
    process needs exclusively to announce its next pair, and so to
    overwrite it. A process holds a build lock of its own while it builds,
    which the other waits on; the kernel drops it if the process dies, and
    then the other builds the pair itself. No process waits while it holds
    its build lock, so the two never wait on each other. The slots hold a
    campaign's largest dim (start()); slot i's header lies at i *
    _HEADER.size, its pair from 2 * _HEADER.size + i * stride.
    """

    def __init__(self):
        self.file = tempfile.TemporaryFile()
        self.mine, self.stride = 0, 0  # this process's slot; the bytes of a slot's pair

    def start(self, units: verify._Units, clear: bool = False) -> None:
        """Size the slots for a campaign's units; with clear, empty them."""
        self.stride = 32 * units.dims[0] ** 2
        if clear:
            os.pwrite(self.file.fileno(), bytes(2 * _HEADER.size), 0)

    def pair(self, dim: int, seed: int) -> ProjectionPair:
        """The validated pair of (dim, seed), as verify._built_pairs gives it."""
        if seed >= 2**64:  # beyond what a header holds
            return verify._built_pairs(dim, [seed])[0]
        theirs = 1 - self.mine
        with self._locked(0, fcntl.LOCK_EX):
            state, *key, _, _ = self._header(theirs)
            wanted = state != _EMPTY and key == [dim, seed]
            if not wanted:
                self._write_header(self.mine, _BUILDING, dim, seed)
                self._lock(1 + self.mine, fcntl.LOCK_EX)
        if wanted:
            return self._read(theirs, dim, seed, state) or verify._built_pairs(dim, [seed])[0]
        pair, header = None, (_EMPTY, 0, 0)
        try:
            pair = verify._built_pairs(dim, [seed])[0]
            if self._write(pair):
                params = pair.provenance.params
                header = (_READY, dim, seed, params["rank_f"], params["rank_g"])
        finally:  # a pair that raised, or could not be written, empties the slot
            with self._locked(0, fcntl.LOCK_EX):
                self._write_header(self.mine, *header)
            self._lock(1 + self.mine, fcntl.LOCK_UN)
        return pair

    def _read(self, slot: int, dim: int, seed: int, state: int) -> ProjectionPair | None:
        """The pair of (dim, seed) in `slot`, once its process has built it;
        None where that process found it invalid, or died."""
        if state == _BUILDING:
            with self._locked(1 + slot, fcntl.LOCK_SH):
                pass
        with self._locked(0, fcntl.LOCK_SH):
            state, *key, rank_f, rank_g = self._header(slot)
            if state != _READY or key != [dim, seed]:
                return None
            members = np.empty((2, dim, dim), dtype=np.complex128)
            if os.preadv(self.file.fileno(), [members], self._offset(slot)) != members.nbytes:
                return None
        return ProjectionPair(members[0], members[1], dim, Provenance(
            "random", {"seed": seed, "rank_f": rank_f, "rank_g": rank_g}))

    def _write(self, pair: ProjectionPair) -> bool:
        """Whether pair's f and g were written to this process's slot."""
        members = [np.ascontiguousarray(pair.f), np.ascontiguousarray(pair.g)]
        try:
            written = os.pwritev(self.file.fileno(), members, self._offset(self.mine))
        except OSError:  # the pair is only not shared
            return False
        return written == 2 * members[0].nbytes

    def _offset(self, slot: int) -> int:
        return 2 * _HEADER.size + slot * self.stride

    def _header(self, slot: int) -> tuple:
        return _HEADER.unpack(os.pread(self.file.fileno(), _HEADER.size, slot * _HEADER.size))

    def _write_header(self, slot: int, state: int, dim: int, seed: int, rank_f: int = 0,
                      rank_g: int = 0) -> None:
        os.pwrite(self.file.fileno(), _HEADER.pack(state, dim, seed, rank_f, rank_g),
                  slot * _HEADER.size)

    def _lock(self, byte: int, operation: int) -> None:
        fcntl.lockf(self.file.fileno(), operation, 1, byte)

    @contextmanager
    def _locked(self, byte: int, operation: int):
        self._lock(byte, operation)
        try:
            yield
        finally:
            self._lock(byte, fcntl.LOCK_UN)


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
