import multiprocessing

import pytest


@pytest.fixture
def in_process_pool(monkeypatch):
    """The census's process pool replaced by one that maps in this process,
    so that no worker starts.  Returns the log: each pool's worker count,
    then the tasks it was given."""
    log = []

    class Pool:
        def __init__(self, processes):
            log.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            log.append(list(tasks))
            return [fn(task) for task in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    return log
