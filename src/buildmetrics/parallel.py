"""One list of work items split over two processes.

The split is made only where it is safe and can pay: `os.fork` exists, the
process may run on two or more CPUs, no other thread runs (a forked child
holds only the calling thread, and a lock another thread held stays locked
there) and there are two items or more.
"""

import os
import threading


def split_map(work, items: list) -> list:
    """[work(item) for item in items]. When the split is safe, a forked child
    runs the odd-indexed items and pickles their results back through a pipe
    while this process runs the rest; index 0 always runs here. If the child
    exits non-zero, is killed or sends what does not unpickle, this process
    runs its items too. No child outlives the call."""
    cpus = getattr(os, "sched_getaffinity", lambda _: ())(0)
    if len(items) < 2 or not hasattr(os, "fork") or len(cpus) < 2 or threading.active_count() > 1:
        return [work(item) for item in items]
    import pickle
    import signal
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read_fd)
        os.close(write_fd)
        return [work(item) for item in items]
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump([work(item) for item in items[1::2]], pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    results = [None] * len(items)
    with open(read_fd, "rb") as pipe:
        try:
            results[::2] = [work(item) for item in items[::2]]
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)  # it may be blocked writing to a pipe no one will read
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    try:
        sent = pickle.loads(data) if status == 0 else None
    except Exception:  # what the child sent does not unpickle
        sent = None
    results[1::2] = [work(item) for item in items[1::2]] if sent is None else sent
    return results
