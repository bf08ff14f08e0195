"""The one place rifslab forks or reads the CPU count."""

import os
import sys

MAX_WORKERS = 8


def workers() -> int:
    """Processes `run` may use: the CPUs this process may run on, at most
    MAX_WORKERS; 1 without os.fork, or while this process runs other
    threads, since a forked child may then block on a lock one of them
    held."""
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None
                                   and threading.active_count() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def run(tasks) -> list:
    """Results of the zero-argument callables tasks, in order.

    Only `report`'s analysis queue calls it, with one task per analysis.
    Up to workers() processes, this one and forked children, take the
    tasks from one queue in the order given, each the next one whenever
    it is free; no more are alive at once.  The queue is a pipe filled
    before the first fork, one byte per task, so more than 256 tasks are
    refused with a ValueError and its writer never blocks.  A child
    pickles the results of the tasks it took, or its first exception,
    into a pipe of its own and exits; once a fork fails, fewer processes
    drain the queue.  Every child is reaped and every descriptor closed
    before this returns or raises, and the first exception of a child is
    re-raised.
    """
    if len(tasks) > 256:
        raise ValueError(f"pool.run takes at most 256 tasks, one queue byte "
                         f"each, not {len(tasks)}")
    count = workers() if len(tasks) > 1 else 1
    if count < 2:
        return [task() for task in tasks]
    import pickle

    def drain() -> list:
        done = []
        while item := os.read(queue, 1):
            done.append((item[0], tasks[item[0]]()))
        return done

    queue, write_fd = os.pipe()
    children = []
    try:
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(bytes(range(len(tasks))))
        for _ in range(min(count, len(tasks)) - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                try:
                    os.close(read_fd)
                    try:
                        outcome = (True, drain())
                    except BaseException as exc:
                        outcome = (False, exc)
                    data = pickle.dumps(outcome)
                    with os.fdopen(write_fd, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, read_fd))
        results = dict(drain())
    finally:
        os.close(queue)
        received = []
        for pid, read_fd in children:
            with os.fdopen(read_fd, "rb") as pipe:
                received.append(pipe.read())
            os.waitpid(pid, 0)
    for data in received:
        if not data:
            raise RuntimeError("a forked child exited without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        results.update(value)
    return [results[i] for i in range(len(tasks))]
