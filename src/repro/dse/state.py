"""Resumable on-disk state of one DSE run.

A run directory makes a design-space exploration interruptible: every
evaluated point is appended to ``results.jsonl`` the moment its record
exists, and a restarted run loads the file and skips every point whose
key already appears.  The layout is deliberately minimal —

* ``space.json`` — the space declaration (:meth:`DesignSpace.to_spec`),
  its fingerprint, and run metadata (objective, format version).
  Written atomically once, when the run is created.  Directories written
  by older versions also name a search ``strategy``; it is ignored.
* ``results.jsonl`` — one JSON object per evaluated design point,
  appended crash-safely: each line is written, flushed and fsynced
  before the runner moves on, so a killed process loses at most the
  record it was mid-writing — and the loader tolerates exactly that (a
  torn trailing line parses as "point not done", never as corruption).

Resume semantics: completed points are matched by their *point keys*
(:attr:`~repro.dse.space.DesignPoint.key`), not by the space fingerprint,
so resuming with a widened or otherwise overlapping space is supported —
the overlap is skipped, the new points are evaluated.  A changed space is
surfaced via :attr:`RunState.space_changed` for reporting, not rejected.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

__all__ = ["RunState", "RunStateError", "STATE_FORMAT_VERSION"]

#: Version of the run-directory format.  Bump on incompatible layout
#: changes; a loader refuses directories written by a different version.
STATE_FORMAT_VERSION = 1

SPACE_FILE = "space.json"
RESULTS_FILE = "results.jsonl"


class RunStateError(RuntimeError):
    """A run directory cannot be created or loaded as requested."""


class RunState:
    """Append-only persistent record of one DSE run.

    Use :meth:`open` (the front door: create-or-resume), or
    :meth:`create` / :meth:`load` directly.  Instances are context
    managers; closing them closes the append handle.

    Attributes:
        run_dir: The directory this state lives in.
        meta: Contents of ``space.json``.
        records: Result records in file order (dicts).
        completed: ``point_key -> record`` for every loaded/appended record.
        dropped_lines: Unparseable ``results.jsonl`` lines skipped on
            load (a crash-torn tail line lands here).
        space_changed: True when the state was resumed with a space whose
            fingerprint differs from the recorded one.
    """

    def __init__(
        self,
        run_dir: Union[str, Path],
        meta: Dict,
        records: Optional[List[Dict]] = None,
        dropped_lines: int = 0,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.meta = meta
        self.records: List[Dict] = list(records or [])
        self.completed: Dict[str, Dict] = {
            record["point_key"]: record
            for record in self.records
            if isinstance(record, dict) and "point_key" in record
        }
        self.dropped_lines = dropped_lines
        self.space_changed = False
        self._handle = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        run_dir: Union[str, Path],
        space_spec: Mapping,
        space_fingerprint: str,
        objective: str,
    ) -> "RunState":
        """Start a fresh run directory.

        Raises:
            RunStateError: The directory already holds results (pass
                ``resume`` / use :meth:`open` to continue it instead).
        """
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        results = run_dir / RESULTS_FILE
        if results.exists() and results.stat().st_size > 0:
            raise RunStateError(
                f"run directory {run_dir} already contains results; "
                "resume it (--resume) or point the run at a fresh directory"
            )
        meta = {
            "format_version": STATE_FORMAT_VERSION,
            "space": dict(space_spec),
            "space_fingerprint": space_fingerprint,
            "objective": objective,
        }
        _atomic_write_json(run_dir / SPACE_FILE, meta)
        return cls(run_dir, meta)

    @classmethod
    def load(cls, run_dir: Union[str, Path]) -> "RunState":
        """Load an existing run directory.

        Raises:
            RunStateError: Missing/unreadable ``space.json`` or a
                different format version.
        """
        run_dir = Path(run_dir)
        space_path = run_dir / SPACE_FILE
        try:
            with open(space_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except FileNotFoundError:
            raise RunStateError(
                f"{run_dir} is not a DSE run directory ({SPACE_FILE} missing)"
            ) from None
        except (OSError, ValueError) as exc:
            raise RunStateError(f"cannot read {space_path}: {exc}") from exc
        version = meta.get("format_version")
        if version != STATE_FORMAT_VERSION:
            raise RunStateError(
                f"run directory {run_dir} uses state format {version!r}; "
                f"this version reads format {STATE_FORMAT_VERSION}"
            )
        records, dropped = _read_results(run_dir / RESULTS_FILE)
        return cls(run_dir, meta, records, dropped_lines=dropped)

    @classmethod
    def open(
        cls,
        run_dir: Union[str, Path],
        space_spec: Mapping,
        space_fingerprint: str,
        objective: str,
        resume: bool = False,
    ) -> "RunState":
        """Create-or-resume front door used by the runner and the CLI.

        * ``resume=True`` on an existing run directory loads it (a
          differing space fingerprint sets :attr:`space_changed`);
          on a missing/empty directory it simply starts fresh.
        * ``resume=True`` on a directory that has results but lost its
          ``space.json`` (a crash between directory creation and the
          metadata write, a stray delete) is *recovered*: the metadata
          is rebuilt from the current declaration, the results are
          loaded, and :attr:`space_changed` is set — the original
          declaration is unknown, while point-key matching still works.
        * ``resume=False`` creates a fresh run and refuses a directory
          that already holds results.
        """
        run_dir = Path(run_dir)
        space_path = run_dir / SPACE_FILE
        if resume and space_path.exists():
            try:
                state = cls.load(run_dir)
            except RunStateError:
                # A torn/unreadable space.json is recoverable from the
                # results (the branch below); a *parseable* one that load
                # refused (format-version mismatch, unreadable results)
                # is not ours to clobber — re-raise.
                try:
                    with open(space_path, "r", encoding="utf-8") as handle:
                        json.load(handle)
                except (OSError, ValueError):
                    state = None
                else:
                    raise
        else:
            state = None
        if state is not None:
            state.space_changed = (
                state.meta.get("space_fingerprint") != space_fingerprint
            )
            # A resume may legitimately widen the space or switch
            # objective (records are matched by point key, and the runner
            # re-derives scores); the directory's metadata must keep
            # describing what the run actually does now, so the *next*
            # resume of the identical declaration is not flagged as
            # changed again.
            updated = {
                "space": dict(space_spec),
                "space_fingerprint": space_fingerprint,
                "objective": objective,
            }
            if any(state.meta.get(key) != value for key, value in updated.items()):
                state.meta.update(updated)
                _atomic_write_json(run_dir / SPACE_FILE, state.meta)
            return state
        results = run_dir / RESULTS_FILE
        if resume and results.exists() and results.stat().st_size > 0:
            records, dropped = _read_results(results)
            meta = {
                "format_version": STATE_FORMAT_VERSION,
                "space": dict(space_spec),
                "space_fingerprint": space_fingerprint,
                "objective": objective,
                "recovered": True,
            }
            _atomic_write_json(run_dir / SPACE_FILE, meta)
            state = cls(run_dir, meta, records, dropped_lines=dropped)
            state.space_changed = True
            return state
        return cls.create(run_dir, space_spec, space_fingerprint, objective)

    # ------------------------------------------------------------------ #
    # appending
    # ------------------------------------------------------------------ #
    def append(self, record: Mapping) -> None:
        """Durably append one result record.

        The line is written, flushed and fsynced before returning: after
        this call the record survives a process kill.  ``record`` must
        carry a ``point_key``.
        """
        record = dict(record)
        if "point_key" not in record:
            raise ValueError("result records must carry a 'point_key'")
        if self._handle is None:
            self._handle = open(
                self.run_dir / RESULTS_FILE, "a", encoding="utf-8"
            )
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records.append(record)
        self.completed[record["point_key"]] = record

    def close(self) -> None:
        """Close the append handle (appending later reopens it)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunState":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.completed)


def _read_results(path: Path):
    """Read a results file, skipping unparseable (torn) lines.

    A missing file is an empty run; any other I/O failure raises
    :class:`RunStateError` — silently treating an *unreadable* file as
    empty would re-evaluate everything and then append to a file we
    cannot even read.
    """
    records: List[Dict] = []
    dropped = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    dropped += 1
                    continue
                if isinstance(record, dict) and "point_key" in record:
                    records.append(record)
                else:
                    dropped += 1
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise RunStateError(f"cannot read {path}: {exc}") from exc
    return records, dropped


def _atomic_write_json(path: Path, payload: Mapping) -> None:
    """Write JSON via tmp + fsync + rename so a crash never publishes a
    torn file (the results lines are fsynced, so the metadata that
    frames them must be just as durable)."""
    fd, tmp_name = tempfile.mkstemp(prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
