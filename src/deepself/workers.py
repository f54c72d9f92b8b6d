"""The one process-parallel map: preprocess rows and cross-validation folds run through ``fork_map``."""

from .errors import DeepSelfError


def fork_map(fn, names, jobs: int, noun: str):
    """Yields ``(i, w, fn(i))`` for each item ``i`` of ``names``, computed by process w of ``jobs``.

    The caller, process 0, runs items ``0::jobs`` and yields them first, then
    worker w's items ``w::jobs``, sent over a one-way pipe, for w = 1, 2, ...
    A worker's ``DeepSelfError`` or ``OSError`` is raised here with its class
    and message, one that dies is named by ``noun`` and its items' ``names``,
    and on any error or an early close the workers are killed.  Workers are
    forked (none at ``jobs = 1``): they share the caller's memory copy-on-write
    (only results and errors are pickled; no ``__main__`` guard is needed), log
    through its handlers, so lines interleave, and cost it one minor page fault
    per page it writes again.  Tested on Linux only (macOS is unverified).
    """
    n, workers = len(names), []
    try:
        for w in range(1, min(jobs, n)):
            import multiprocessing  # here, not at the top: it adds about 5 ms to every import of deepself
            ctx = multiprocessing.get_context("fork")
            receive, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(send, fn, range(w, n, jobs)), daemon=True)
            proc.start()
            send.close()  # a later worker must not hold it, or this one's death would not read as EOF
            workers.append((proc, receive))
        for w in range(len(workers) + 1):
            for i in range(w, n, jobs):
                yield i, w, _receive(*workers[w - 1], noun, names[w::jobs]) if w else fn(i)
    except BaseException:
        for proc, _ in workers:
            proc.kill()  # not terminate(): a forked worker keeps the caller's SIGTERM handler
        raise
    finally:
        for proc, receive in workers:
            receive.close()
            proc.join()


def _worker(send, fn, mine):
    """A worker process: sends ``fn(i)`` for each of items ``mine``, or the first error."""
    with send:
        try:
            for i in mine:
                send.send(fn(i))
        except (DeepSelfError, OSError) as exc:
            send.send(exc)


def _receive(proc, receive, noun, names):
    """A worker's next result; raises the error it sent, or one naming its items if it died."""
    try:
        result = receive.recv()
    except EOFError:
        proc.join()
        raise DeepSelfError(f"the worker running {noun} {', '.join(map(str, names))} exited "
                            f"with code {proc.exitcode} before reporting them all") from None
    if isinstance(result, (DeepSelfError, OSError)):
        raise result
    return result
