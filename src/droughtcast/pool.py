"""The package's one process pool.

:func:`run_pool` runs independent jobs in forked processes, each pinned to
its own CPUs, and yields their results in job order: the CLI's grid of
fits, :func:`~droughtcast.training.predict`'s blocks, and
:func:`~droughtcast.data.load_timeseries`'s ranges of the file.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading


def cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_pool(fn, jobs, cpus_per_job: int):
    """Yield ``fn(job)`` for each job in order up to the first that raises,
    then raise its error.  ``w = min(len(jobs), CPUs // cpus_per_job)``
    processes take the next job when free, each to its first error: this
    one, which takes job 0, and ``w - 1`` children, forked before it and
    reaped before the first yield, which pickle their results into a pipe.
    The next job number is the one 8-byte record of a shared pipe, which a
    process reads and writes back plus one.  Process i is pinned to CPUs i,
    i + w, ...: a scheduler may otherwise keep a forked worker on its
    parent's CPU.  Where no process can be pinned, or another thread is
    alive (a fork would copy its locks but not the thread), w is 1."""
    workers = (min(len(jobs), cpu_count() // cpus_per_job)
               if hasattr(os, "sched_setaffinity") and threading.active_count() == 1 else 1)
    every = sorted(os.sched_getaffinity(0)) if workers > 1 else []
    take, give = os.pipe()

    def next_job() -> int:
        """The job number read from the shared pipe, written back plus one;
        past the last job, the next process to read it stops too."""
        job = int.from_bytes(os.read(take, 8), "little")
        os.write(give, min(job + 1, len(jobs)).to_bytes(8, "little"))
        return job

    def run(i: int, job: int) -> list:
        """(job, error, result) of ``job`` and of each next job this process
        takes, to its first error."""
        if every:
            os.sched_setaffinity(0, every[i::workers])
        done = []
        while job < len(jobs):
            try:
                done.append((job, None, fn(jobs[job])))
            except Exception as exc:
                return done + [(job, exc, None)]
            job = next_job()
        return done

    os.write(give, min(1, len(jobs)).to_bytes(8, "little"))
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for i in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # the child: whatever happens, it ends here
                try:
                    blob = pickle.dumps(run(i, next_job()))
                    while blob:
                        blob = blob[os.write(write, blob):]
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, read))
        done = run(0, 0)
        for pid, read in children:
            if not (blob := b"".join(iter(lambda: os.read(read, 1 << 16), b""))):
                raise RuntimeError(f"pool worker {pid} ended without sending its results")
            done += pickle.loads(blob)
    finally:
        if every:
            os.sched_setaffinity(0, every)
        for pid, read in children:
            os.close(read)
            os.kill(pid, 9)  # SIGKILL: a worker this process no longer waits for
        for pid, _ in children:
            os.waitpid(pid, 0)
        os.close(take)
        os.close(give)
    for _, error, result in sorted(done, key=lambda row: row[0]):
        if error is not None:
            raise error
        yield result
