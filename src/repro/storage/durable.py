"""Crash-safe publication of store directories.

Every durable store write (precompute, migrate, compact, layer append)
follows one order, so a crash at any point leaves the old content or the
new, never a torn mix:

1. build the new content in a sibling staging directory
   (``<name>.new``), ``fsync`` each file as it is written, write the
   manifest last and ``fsync`` it and the staging directory;
2. move an existing target aside (``<name>.old``), ``rename`` the
   staging directory into place and ``fsync`` the parent directory;
3. remove the moved-aside target.

A crash between the two renames of step 2 leaves no directory at the
target path but a complete ``<name>.new``; opening the path rolls it
forward (:func:`repro.storage.binary.roll_forward`).
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

from repro.errors import ReproError

STAGING_SUFFIX = ".new"
ASIDE_SUFFIX = ".old"


def sibling(path: Path, suffix: str) -> Path:
    """``path`` with *suffix* appended to its final component."""
    return path.with_name(path.name + suffix)


def fsync_dir(path: Path) -> None:
    """Flush a directory's entries (new, renamed or removed names)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_file(path: Path, data: bytes) -> None:
    """Write *data* to *path* and ``fsync`` it before returning."""
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def staging_dir(target: Path) -> Path:
    """A fresh, empty staging directory beside *target*.

    A leftover from a write that crashed before publishing is removed.
    """
    staged = sibling(target, STAGING_SUFFIX)
    if staged.exists():
        shutil.rmtree(staged)
    staged.mkdir(parents=True)
    return staged


def publish_dir(staged: Path, target: Path) -> None:
    """Rename the complete *staged* directory to *target* (step 2 + 3).

    An existing *target* must be a store (it holds a ``manifest.json``)
    or empty: anything else is refused rather than replaced.
    """
    aside = sibling(target, ASIDE_SUFFIX)
    if aside.exists():
        shutil.rmtree(aside)
    if target.exists():
        if not target.is_dir() or not (
            (target / "manifest.json").exists() or not any(target.iterdir())
        ):
            shutil.rmtree(staged)
            raise ReproError(
                f"{target}: exists and is not a store directory; "
                "refusing to replace it"
            )
        os.rename(target, aside)
    swap_in(staged, target)


def swap_in(staged: Path, target: Path) -> None:
    """Rename *staged* to the free path *target*, ``fsync`` the parent
    and remove the moved-aside old target."""
    try:
        os.rename(staged, target)
    except FileNotFoundError:
        # a concurrent writer or opener finished this swap already
        if not target.exists():
            raise
    fsync_dir(target.parent)
    shutil.rmtree(sibling(target, ASIDE_SUFFIX), ignore_errors=True)
