"""fork_map: the order it yields results in, the errors it carries back from a worker, and its lazy import."""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import deepself
from deepself import workers


@pytest.mark.parametrize("jobs", [1, 2, 3, 7])  # 7 jobs for 5 items
def test_yields_the_callers_items_first_then_each_workers(jobs):
    got = list(workers.fork_map(lambda i: (i * i, os.getpid()), "abcde", jobs, "items"))
    assert [(i, w) for i, w, _ in got] == [(i, w) for w in range(min(jobs, 5)) for i in range(w, 5, jobs)]
    assert [square for _, _, (square, _) in sorted(got)] == [0, 1, 4, 9, 16]
    pids = {w: pid for _, w, (_, pid) in got}
    assert pids[0] == os.getpid() and len(set(pids.values())) == min(jobs, 5)
    assert multiprocessing.active_children() == []


def test_a_workers_os_error_keeps_its_class_message_and_path():
    def read(i):
        if i == 1:
            raise FileNotFoundError(2, "No such file or directory", "missing.wav")
        return i

    with pytest.raises(FileNotFoundError) as caught:
        list(workers.fork_map(read, range(4), 2, "rows"))
    assert caught.value.filename == "missing.wav"
    assert str(caught.value) == "[Errno 2] No such file or directory: 'missing.wav'"
    assert multiprocessing.active_children() == []


def test_closing_early_kills_the_workers():
    results = workers.fork_map(lambda i: time.sleep(30) if i % 2 else i, range(4), 2, "items")
    assert next(results) == (0, 0, 0)
    started = time.perf_counter()
    results.close()
    assert time.perf_counter() - started < 10
    assert multiprocessing.active_children() == []


def test_importing_the_cli_does_not_import_multiprocessing():
    env = {**os.environ, "PYTHONPATH": str(Path(deepself.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", "import sys, deepself.cli; print('multiprocessing' in sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
