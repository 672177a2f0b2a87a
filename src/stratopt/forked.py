"""Load one large input file in more than one process.

Only the command line reads its file through here; load_population over
any iterable of lines stays one process. A large file is cut just after
newlines into W parts, W = min(MAX_PARTS, the CPUs this process may run
on). Forked children each load one part behind the header line and send
its groups back through a pipe; the parent loads the first part itself
and merges the groups in part order, so each x keeps the key and each y
list the order one process gives them. When any part fails, or holds no
data rows, the caller loads the whole file in one process, which raises
the one-process error with its row number.
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
# two parts is the one count timed (see ROADMAP); raise it only with a
# timing from a host that has more CPUs
MAX_PARTS = 2
# the scan for quotes, carriage returns and cuts reads this much at a time
_CHUNK = 1 << 20


def load_in_parts(
    handle: io.TextIOWrapper,
    x_column: str = "x",
    y_column: str | None = None,
    delimiter: str = ",",
) -> Population | None:
    """The population of the file open as handle, loaded in several processes.

    Returns None, having started no process, unless the file is a regular
    file of at least MIN_BYTES bytes that holds no quote and no carriage
    return outside a CRLF line end, os.fork exists, this process runs one
    thread and may use two CPUs or more. Also returns None when a part
    fails, once every child has ended. Whenever it returns None, handle is
    at its start.

    Each process starts on a CPU of its own, so that a scheduler that
    does not balance load across CPUs cannot leave a child on its
    parent's CPU. Each then gets back every CPU it may use, so that runs
    started together are not all held on the lowest CPUs.
    """
    allowed = _allowed_cpus()
    cpus = sorted(allowed)[:MAX_PARTS]
    parts = _parts(handle.fileno(), len(cpus))
    if parts is None:
        return None
    load = partial(load_population, x_column=x_column, y_column=y_column, delimiter=delimiter)
    children: dict[int, io.BufferedReader] = {}
    try:
        for (start, lines), cpu in zip(parts[1:], cpus[1:]):
            # a child starts on its parent's CPU, so move there first
            _pin({cpu})
            pid, pipe = _start(handle, start, lines, load, allowed)
            children[pid] = pipe
        # the scheduler leaves each process where it runs until a CPU it
        # may use falls idle
        _pin({cpus[0]})
        _pin(allowed)
        groups = load(islice(handle, parts[0][1])).groups
        for pid in list(children):
            data = children[pid].read()
            status = os.waitpid(pid, 0)[1]
            children.pop(pid).close()
            if status != 0:
                raise ChildProcessError
            for x, ys in marshal.loads(data).items():
                group = groups.setdefault(x, ys)
                if group is not ys:
                    group.extend(ys)
        return Population(groups)
    except (OSError, StratificationError):  # no process or pipe, or a part failed
        handle.seek(0)
        return None
    finally:
        for pid, pipe in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        _pin(allowed)


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


def _parts(fd: int, processes: int) -> list[tuple[int, int | None]] | None:
    """(first byte, line count) of each part, in file order, or None where
    the file loads in one process: one process, an irregular or small file,
    a quote (a quoted field may span a cut) or a bare carriage return
    (which ends a line that holds no newline). Each part but the first
    starts just after a newline; the last one's count is None, for all
    lines up to the end."""
    info = os.fstat(fd)
    size = info.st_size
    if processes < 2 or not stat.S_ISREG(info.st_mode) or size < MIN_BYTES:
        return None
    # each cut, and the newlines before it
    cuts, newlines = [0], [0]
    seen = 0
    for start in range(0, size, _CHUNK):
        # one byte more, to see what follows a carriage return at the end
        chunk = os.pread(fd, _CHUNK + 1, start)
        if b'"' in chunk:
            return None
        # "in" is a fast scan; a count of either pattern is not
        if b"\r" in chunk and chunk.count(b"\r", 0, _CHUNK) != chunk.count(b"\r\n"):
            return None
        while len(cuts) < processes:
            # a target before start lies in a line that crosses into this chunk
            target = max(size * len(cuts) // processes, cuts[-1], start)
            at = chunk.find(b"\n", target - start, _CHUNK)
            if at < 0:
                seen += chunk.count(b"\n", 0, _CHUNK)
                break
            cuts.append(start + at + 1)
            newlines.append(seen + chunk.count(b"\n", 0, at + 1))
    if cuts[-1] == size:  # an empty last part
        del cuts[-1], newlines[-1]
    if len(cuts) < 2:
        return None
    lines = [b - a for a, b in zip(newlines, newlines[1:])]
    return list(zip(cuts, [*lines, None]))


def _start(
    handle: io.TextIOWrapper, start: int, lines: int | None, load, cpus: set[int]
) -> tuple[int, io.BufferedReader]:
    """Fork a child that runs on cpus, loads the header line and the given
    lines from byte start of handle's file, which it opens again so that
    no file offset is shared, and writes the groups, marshalled, to the
    pipe returned with its pid. The child ends with os._exit: 0 once it
    wrote them, 1 when the file it opened is not handle's or anything
    fails."""
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
                    groups = load(chain((header,), islice(part, lines))).groups
            # version 2 keeps no references, which writes the groups 5x faster
            data = marshal.dumps(groups, 2)
            with open(write_fd, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")
