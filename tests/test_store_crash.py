"""Crash safety of every durable store write, by fault injection.

A forked child runs one store write — a v3 write over an existing store
(what ``repro precompute`` does), a delta-layer ingest, or a compaction
— with one of ``np.save``, ``os.fsync``, ``os.rename`` or ``os.replace``
patched to SIGKILL the child at its N-th call.  N sweeps every call the
write makes, so the kill lands at each durable step: the v3 block
writes, the layer append, the ``layers.json`` swap and the compaction
swap.  The parent then reopens the store (checksums verified) and
requires the answers of the pre-write build or of the post-write build,
never anything else; a following ingest or compact must then succeed.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import traceback

import numpy as np
import pytest

from repro.graph.tat import TATGraph
from repro.index.inverted import InvertedIndex
from repro.offline import DeltaIngestor, OfflinePrecomputer, TermRelationStore
from repro.storage.binary import write_store_v3

from tests.conftest import build_toy_database

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fault injection forks the writer"
)

ROWS = [
    {"table": "papers", "row": {
        "pid": 4, "title": "uncertain stream mining", "cid": 1, "year": 2012,
    }},
    {"table": "writes", "row": {"wid": 4, "aid": 2, "pid": 4}},
]
NEXT_ROWS = [
    {"table": "papers", "row": {
        "pid": 5, "title": "probabilistic stream discovery", "cid": 0,
        "year": 2013,
    }},
    {"table": "writes", "row": {"wid": 5, "aid": 0, "pid": 5}},
]
#: (module, attribute) of every patched call: block writes, the fsync of
#: each file and directory, directory renames and the chain swap.
FAULTS = [(np, "save"), (os, "fsync"), (os, "rename"), (os, "replace")]
PARAMS = {"n_similar": 8, "closeness_top": 30}


def _database(*deltas):
    database = build_toy_database()
    for rows in deltas:
        for item in rows:
            database.insert(item["table"], dict(item["row"]))
    return database


def _graph(database):
    return TATGraph(database, InvertedIndex(database))


def _build(database, n_similar=8, closeness_top=30):
    return OfflinePrecomputer(
        _graph(database), n_similar=n_similar, closeness_top=closeness_top
    ).build_store()


def _answers(root, graph):
    """Epoch plus every served row of the store at *root*."""
    store = TermRelationStore.load(root, graph)  # verifies every block
    return getattr(store, "epoch", 0), sorted(
        (key, rel.similar, sorted(rel.closeness.items()))
        for key, rel in store._items()
    )


def _killed(write, module, name, n):
    """Run *write* in a forked child that SIGKILLs itself at the *n*-th
    call of ``module.name``; True when the kill landed first."""
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            original = getattr(module, name)
            calls = itertools.count(1)

            def fault(*args, **kwargs):
                if next(calls) == n:
                    os.kill(os.getpid(), signal.SIGKILL)
                return original(*args, **kwargs)

            setattr(module, name, fault)
            write()
        except BaseException:
            traceback.print_exc()
            code = 1
        os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status):
        assert os.WTERMSIG(status) == signal.SIGKILL
        return True
    assert os.WEXITSTATUS(status) == 0, "the write failed without a fault"
    return False


def _sweep(template, tmp_path, write, graph, follow_up):
    """Kill *write* at every patched call; check each reopened store."""
    before = _answers(template, graph)
    reference = tmp_path / "reference"
    shutil.copytree(template, reference)
    write(reference)
    after = _answers(reference, graph)
    assert before != after
    kills = {}
    for module, name in FAULTS:
        for n in itertools.count(1):
            root = tmp_path / f"{name}-{n}" / "store"
            shutil.copytree(template, root)
            landed = _killed(lambda: write(root), module, name, n)
            state = _answers(root, graph)
            assert state in (before, after), (name, n)
            follow_up(root)
            if not landed:
                break
            kills[(name, state == after)] = n
            shutil.rmtree(root.parent)
    return kills


@pytest.fixture()
def base_store(tmp_path):
    return write_store_v3(
        _build(_database()), tmp_path / "template" / "store",
        build_info=PARAMS,
    )


def _ingest(root, *deltas, rows=ROWS):
    DeltaIngestor(_database(*deltas), root).ingest(rows)


def _compact(root):
    DeltaIngestor(_database(ROWS), root).compact()


def test_crash_during_store_write(base_store, tmp_path):
    rebuilt = _build(_database(), n_similar=3, closeness_top=5)
    kills = _sweep(
        base_store, tmp_path,
        lambda root: write_store_v3(rebuilt, root, build_info=PARAMS),
        _graph(_database()),
        lambda root: _ingest(root),
    )
    # block writes and every fsync before the swap keep the old store;
    # a kill between the two renames rolls the new one forward
    assert kills[("save", False)] == 8
    assert ("fsync", False) in kills and ("fsync", True) in kills
    assert kills[("rename", True)] == 2


def test_crash_during_layer_append(base_store, tmp_path):
    kills = _sweep(
        base_store, tmp_path, _ingest, _graph(_database(ROWS)),
        lambda root: _ingest(root, rows=NEXT_ROWS),
    )
    assert kills[("save", False)] == 8
    assert ("rename", False) in kills  # layer directory publish
    assert ("replace", False) in kills  # layers.json swap
    assert ("fsync", True) in kills  # after the swap, before its fsync


def test_crash_during_compact(base_store, tmp_path):
    _ingest(base_store)
    kills = _sweep(
        base_store, tmp_path, _compact, _graph(_database(ROWS)), _compact
    )
    assert kills[("save", False)] == 8
    assert kills[("rename", False)] == 1  # old store moved aside
    assert kills[("rename", True)] == 2  # rolled forward on open
