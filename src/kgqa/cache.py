"""On-disk cache of derived arrays, keyed by a digest of what they derive from.

Entries are uncompressed ``.npz`` files in ``$XDG_CACHE_HOME/kgqa``, or
``~/.cache/kgqa`` when that variable is unset or empty. An entry holds its
kind's format version and its key besides the arrays, and both are checked
on every read. An entry is written to a temporary file in the same
directory and renamed into place, so a reader never sees a partial one.

The cache only ever saves work: a missing, unreadable or malformed entry
reads as a miss, and a failed write (no directory, a full disk) is
dropped. Deleting the directory is always safe. Writing an entry deletes
the entries of its kind under any other format version, which this code
can never read; entries of the current version are never deleted.

``counts`` tallies, per kind, the loads that hit (``"hit"``) or missed
(``"miss"``) and the entries written (``"write"``) in this process.
"""

import hashlib
import os
import tempfile
import zipfile
import zlib
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Optional, TypeVar

import numpy as np

T = TypeVar("T")

try:
    from lzma import LZMAError
except ImportError:  # zipfile then raises RuntimeError for an LZMA member
    LZMAError = RuntimeError

# What reading a damaged entry can raise: np.load's own errors, a missing
# member, a bad zip structure, a cut-off member, or a member whose
# compression method field names another method (unknown or with its module
# missing, bzip2, LZMA or deflate over stored bytes).
_UNREADABLE = (OSError, ValueError, KeyError, IndexError, EOFError, RuntimeError,
               LZMAError, zlib.error, zipfile.BadZipFile)
# What ``build`` raises on arrays that disagree.
_MALFORMED = (ValueError, KeyError, IndexError)

counts: Counter = Counter()  # (kind, "hit" | "miss" | "write") -> number


def directory() -> Path:
    """The cache directory; it need not exist."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "kgqa"


def digest(*parts) -> str:
    """Hex blake2b digest of ``parts``, byte buffers each length-prefixed, so no two
    sequences of parts share a digest by concatenating alike."""
    h = hashlib.blake2b(digest_size=20)
    for part in parts:
        part = memoryview(part).cast("B")
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _path(kind: str, version: int, key: str) -> Path:
    return directory() / f"{kind}-v{version}-{key}.npz"


def load(kind: str, version: int, key: str,
         build: Callable[[dict], T]) -> Optional[T]:
    """``build(arrays)`` on the entry's arrays, or None on a miss.

    ``build`` validates what it reads and raises ValueError (or lets an
    IndexError or KeyError through) on a malformed entry, which then also
    reads as a miss.
    """
    arrays = result = None
    try:
        with open(_path(kind, version, key), "rb") as fh:
            entry = np.load(fh, allow_pickle=False)
            if isinstance(entry, np.lib.npyio.NpzFile):  # not a single .npy array
                arrays = {name: entry[name] for name in entry.files}
    except _UNREADABLE:
        pass
    if arrays is not None:
        try:
            if arrays.pop("format") == version and arrays.pop("key") == key:
                result = build(arrays)
        except _MALFORMED:
            pass
    counts[kind, "miss" if result is None else "hit"] += 1
    return result


def store(kind: str, version: int, key: str, arrays: dict) -> None:
    """Write an entry atomically, then delete the entries of ``kind`` under
    other format versions; any OSError drops the entry or leaves the stale one."""
    path = _path(kind, version, key)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.stem}.", suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, format=np.array(version), key=np.array(key), **arrays)
        os.replace(tmp, path)
    except OSError:
        _unlink(tmp)
        return
    counts[kind, "write"] += 1
    current = f"{kind}-v{version}-"
    for entry in path.parent.glob(f"{kind}-v*-*.npz"):
        if not entry.name.startswith(current):
            _unlink(entry)


def _unlink(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def pack_strings(strings: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """(UTF-8 bytes of the concatenation, end offset of each string in
    characters). Lone surrogates, as JSON escapes can produce, pass through."""
    strings = list(strings)
    ends = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings)).cumsum()
    return pack_text("".join(strings), ends)


def pack_text(text: str, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``pack_strings`` of the strings ``text`` splits into at ``ends``."""
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8), ends


def unpack_text(blob: np.ndarray, ends: np.ndarray) -> str:
    """The concatenation ``pack_strings`` packed, decoded in one piece;
    ValueError if the blob and ``ends`` disagree."""
    if blob.dtype != np.uint8 or ends.dtype != np.int64 or blob.ndim != 1 or ends.ndim != 1:
        raise ValueError("string blob or offsets of the wrong kind")
    text = blob.tobytes().decode("utf-8", "surrogatepass")
    if (ends[-1] if len(ends) else 0) != len(text) or (np.diff(ends, prepend=0) < 0).any():
        raise ValueError("string blob and offsets disagree")
    return text


def unpack_strings(blob: np.ndarray, ends: np.ndarray) -> list[str]:
    """The strings ``pack_strings`` packed; ValueError if the two disagree."""
    text = unpack_text(blob, ends)
    bounds = [0, *ends.tolist()]
    return list(map(text.__getitem__, map(slice, bounds, bounds[1:])))
