"""Load the command line's input file, a large one in two processes.

Only the command line reads its file through here; load_population over
any iterable of lines stays one process. A large file is cut in two just
after the first newline at or past its middle byte. A forked child loads
the second part behind the header line and sends its groups back through
a pipe; the parent loads the first part itself and merges the child's
groups after its own, so each x keeps the key and each y list the order
one process gives them. Any other file, and one with a part that fails or
holds no data rows, loads whole in one process, which raises the
one-process error with its row number.
"""

from __future__ import annotations

import io
import marshal
import os
import signal
import stat
import threading
from contextlib import suppress
from functools import partial
from itertools import chain, islice

from .errors import StratificationError
from .population import Population, load_population

# below this many bytes one process loads about as fast (see ROADMAP "A
# forked loader for large files")
MIN_BYTES = 1 << 20
# the scan for quotes, carriage returns and the cut reads this much at a time
_CHUNK = 1 << 20


def load_file(
    handle: io.TextIOWrapper,
    x_column: str = "x",
    y_column: str | None = None,
    delimiter: str = ",",
) -> Population:
    """The population of the file open as handle, as load_population gives it.

    Two processes load it where the file is a regular file of at least
    MIN_BYTES bytes that holds no quote and no carriage return outside a
    CRLF line end, os.fork exists, and this process runs one thread and
    may use two CPUs or more; two parts is the one count timed (see
    ROADMAP). Otherwise, and when a part fails, once the child has ended,
    load_population loads the whole file from its start.

    Each process starts on a CPU of its own, so that a scheduler that
    does not balance load across CPUs cannot leave the child on its
    parent's CPU. Each then gets back every CPU it may use, so that runs
    started together are not all held on the lowest CPUs.
    """
    load = partial(load_population, x_column=x_column, y_column=y_column, delimiter=delimiter)
    allowed = _allowed_cpus()
    cut = _cut(handle.fileno()) if len(allowed) > 1 else None
    if cut is None:
        return load(handle)
    first, second = sorted(allowed)[:2]
    start, lines = cut
    pid = None
    try:
        # a child starts on its parent's CPU, so move there first
        _pin({second})
        pid, pipe = _start(handle, start, load, allowed)
        with pipe:
            # the scheduler leaves each process where it runs until a CPU
            # it may use falls idle
            _pin({first})
            _pin(allowed)
            groups = load(islice(handle, lines)).groups
            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        pid = None  # reaped
        if status != 0:
            raise ChildProcessError
        for x, ys in marshal.loads(data).items():
            group = groups.setdefault(x, ys)
            if group is not ys:
                group.extend(ys)
        return Population(groups)
    except (OSError, StratificationError):  # no process or pipe, or a part failed
        handle.seek(0)
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        _pin(allowed)
    return load(handle)


def _allowed_cpus() -> set[int]:
    """The CPUs this process may run on, or none where it may not fork:
    os.fork or os.sched_getaffinity is missing, or a second thread runs."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return set()
    try:  # the system's count also sees threads started outside Python
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    return os.sched_getaffinity(0) if threads == 1 else set()


def _pin(cpus: set[int]) -> None:
    """Run this process on the given CPUs only, if the system lets it."""
    with suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _cut(fd: int) -> tuple[int, int] | None:
    """(first byte of the second part, newlines before it), just after the
    first newline at or past the middle byte, or None where the file loads
    in one process: an irregular or small file, a quote (a quoted field may
    span the cut), a bare carriage return (which ends a line that holds no
    newline), or no such newline but the file's last byte."""
    info = os.fstat(fd)
    size = info.st_size
    if not stat.S_ISREG(info.st_mode) or size < MIN_BYTES:
        return None
    cut, newlines = None, 0
    for start in range(0, size, _CHUNK):
        # one byte more, to see what follows a carriage return at the end
        chunk = os.pread(fd, _CHUNK + 1, start)
        if b'"' in chunk:
            return None
        # "in" is a fast scan; a count of either pattern is not
        if b"\r" in chunk and chunk.count(b"\r", 0, _CHUNK) != chunk.count(b"\r\n"):
            return None
        if cut is None:
            # a middle before start lies in a line that crosses into this chunk
            at = chunk.find(b"\n", max(size // 2 - start, 0), _CHUNK)
            if at < 0:
                newlines += chunk.count(b"\n", 0, _CHUNK)
            else:
                cut = (start + at + 1, newlines + chunk.count(b"\n", 0, at + 1))
    return cut if cut is not None and cut[0] < size else None


def _start(
    handle: io.TextIOWrapper, start: int, load, cpus: set[int]
) -> tuple[int, io.BufferedReader]:
    """Fork a child that runs on cpus, loads the header line and every line
    from byte start of handle's file, which it opens again so that no file
    offset is shared, and writes the groups, marshalled, to the pipe
    returned with its pid. The child ends with os._exit: 0 once it wrote
    them, 1 when the file it opened is not handle's or anything fails."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            _pin(cpus)
            os.close(read_fd)
            with open(handle.name, "rb") as raw:
                if not os.path.samestat(os.fstat(raw.fileno()), os.fstat(handle.fileno())):
                    raise OSError(f"{handle.name} is no longer the file being loaded")
                header = raw.readline().decode("utf-8")
                raw.seek(start)
                with io.TextIOWrapper(raw, encoding="utf-8", newline="") as part:
                    groups = load(chain((header,), part)).groups
            # version 2 keeps no references, which writes the groups 5x faster
            data = marshal.dumps(groups, 2)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
