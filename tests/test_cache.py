"""The on-disk cache: where it lives, how entries are keyed, written and read."""

import struct
from collections import Counter

import numpy as np
import pytest

from kgqa import cache

STRINGS = ["", "plain", "Zürich 東京", "a\x00b", "\x00", "\ud800", "\udfff", "\ud83d",
           "\ude00", "😀", "x" * 5000, ""]


def test_tests_use_their_own_cache_directory(cache_home):
    assert cache.directory() == cache_home / "kgqa"


@pytest.mark.parametrize("value", [None, ""], ids=["unset", "empty"])
def test_directory_defaults_to_home_cache(monkeypatch, tmp_path, value):
    monkeypatch.setenv("HOME", str(tmp_path))
    if value is None:
        monkeypatch.delenv("XDG_CACHE_HOME")
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", value)
    assert cache.directory() == tmp_path / ".cache" / "kgqa"


def test_digest_frames_each_part():
    assert cache.digest(b"ab", b"c") != cache.digest(b"a", b"bc")
    assert cache.digest(b"ab", b"") != cache.digest(b"ab")
    assert cache.digest(b"ab", b"c") == cache.digest(bytearray(b"ab"), memoryview(b"c"))
    assert cache.digest(np.array([1, 2], dtype=np.int64)) == cache.digest(
        np.array([1, 2], dtype=np.int64).tobytes())


@pytest.mark.parametrize("strings", [[], [""], STRINGS, STRINGS[::-1]])
def test_strings_round_trip(strings):
    blob, ends = cache.Texts.of(iter(strings)).packed()
    assert blob.dtype == np.uint8 and ends.dtype == np.int64
    texts = cache.Texts.unpacked(blob, ends)
    assert len(texts) == len(strings)
    assert list(texts) == strings
    assert [texts[i] for i in range(len(texts))] == strings


def test_packed_bytes_are_utf8_and_character_ends():
    blob, ends = cache.Texts.of(["abc", "", "déf"]).packed()
    assert blob.tobytes() == "abcdéf".encode("utf-8")
    assert ends.dtype == np.int64 and ends.tolist() == [3, 3, 6]


@pytest.mark.parametrize("damage", [
    lambda blob, ends: (blob, ends[:-1]),
    lambda blob, ends: (blob[:-1], ends),
    lambda blob, ends: (blob, ends[::-1].copy()),
    lambda blob, ends: (blob, ends.astype(np.float64)),
    lambda blob, ends: (blob.astype(np.int16), ends),
    lambda blob, ends: (blob, ends.reshape(1, -1)),
    lambda blob, ends: (blob, np.array(ends[-1])),
], ids=["short-offsets", "short-blob", "decreasing", "float-offsets", "wide-blob",
        "2-d-offsets", "0-d-offsets"])
def test_unpack_rejects_disagreeing_arrays(damage):
    blob, ends = damage(*cache.Texts.of(["abc", "", "déf", "g"]).packed())
    with pytest.raises(ValueError):
        cache.Texts.unpacked(blob, ends)


def test_store_then_load(empty_cache):
    arrays = {"a": np.arange(5, dtype=np.int32), "b": np.array([0.5, -1.0])}
    cache.store("thing", 3, "k1", arrays)
    assert sorted(p.name for p in empty_cache.iterdir()) == ["thing-v3-k1.npz"]
    got = cache.load("thing", 3, "k1", lambda loaded: loaded)
    assert got.keys() == arrays.keys()
    for name, array in arrays.items():
        assert got[name].dtype == array.dtype and np.array_equal(got[name], array)
    assert cache.load("thing", 3, "k2", lambda loaded: loaded) is None
    assert cache.load("thing", 4, "k1", lambda loaded: loaded) is None


def test_entry_names_another_key_or_version(empty_cache):
    cache.store("thing", 3, "k1", {"a": np.arange(3)})
    entry = empty_cache / "thing-v3-k1.npz"
    entry.rename(empty_cache / "thing-v3-k2.npz")
    assert cache.load("thing", 3, "k2", lambda loaded: loaded) is None
    (empty_cache / "thing-v3-k2.npz").rename(empty_cache / "thing-v4-k1.npz")
    assert cache.load("thing", 4, "k1", lambda loaded: loaded) is None


def test_build_errors_read_as_a_miss(empty_cache):
    cache.store("thing", 1, "k", {"a": np.arange(3)})
    for error in (ValueError, IndexError, KeyError):
        def build(arrays):
            raise error("malformed")
        assert cache.load("thing", 1, "k", build) is None

    def build(arrays):
        raise TypeError("a bug, not a malformed entry")
    with pytest.raises(TypeError):
        cache.load("thing", 1, "k", build)


def test_single_array_file_reads_as_a_miss(empty_cache):
    empty_cache.mkdir(parents=True)
    np.save(empty_cache / "thing-v1-k.npy", np.arange(3))
    (empty_cache / "thing-v1-k.npy").rename(empty_cache / "thing-v1-k.npz")
    assert cache.load("thing", 1, "k", lambda loaded: loaded) is None


def test_cut_entries_read_as_a_miss(empty_cache):
    cache.store("thing", 1, "k", {"a": np.arange(1000), "b": np.ones(7)})
    entry = empty_cache / "thing-v1-k.npz"
    data = entry.read_bytes()
    for size in sorted({0, 1, 4, 30, 64, 200, len(data) // 2, len(data) - 22, len(data) - 1}):
        entry.write_bytes(data[:size])
        assert cache.load("thing", 1, "k", lambda loaded: loaded) is None, size
    entry.write_bytes(b"\x00" * len(data))
    assert cache.load("thing", 1, "k", lambda loaded: loaded) is None


def _with_method(data: bytes, member: str, method: int, first_byte=None) -> bytes:
    """A zip file's bytes with the compression method in ``member``'s central
    directory record set to ``method``, and optionally its first data byte."""
    out = bytearray(data)
    at = out.find(b"PK\x01\x02")
    while at >= 0:
        name_len = struct.unpack_from("<H", out, at + 28)[0]
        if out[at + 46:at + 46 + name_len] == member.encode():
            struct.pack_into("<H", out, at + 10, method)
            if first_byte is not None:
                local = struct.unpack_from("<I", out, at + 42)[0]
                skip = sum(struct.unpack_from("<HH", out, local + 26))
                out[local + 30 + skip] = first_byte
        at = out.find(b"PK\x01\x02", at + 4)
    return bytes(out)


@pytest.mark.parametrize("method, first_byte", [
    (1, None),  # unknown to zipfile: NotImplementedError
    (8, 0x07),  # deflate with an invalid block type: zlib.error
    (12, None),  # bzip2 over stored bytes: OSError
    (14, None),  # LZMA over stored bytes: LZMAError
], ids=["unknown", "deflate", "bzip2", "lzma"])
def test_damaged_compression_method_reads_as_a_miss(empty_cache, method, first_byte):
    # LZMA reads its properties' length from the member's first bytes, so
    # it gets as far as its own error only for a member of 20 kB or more.
    cache.store("thing", 1, "k", {"a": np.arange(5000), "b": np.ones(7)})
    entry = empty_cache / "thing-v1-k.npz"
    entry.write_bytes(_with_method(entry.read_bytes(), "a.npy", method, first_byte))
    assert cache.load("thing", 1, "k", lambda loaded: loaded) is None


def test_store_deletes_entries_of_other_versions(empty_cache):
    cache.store("thing", 1, "k1", {"a": np.arange(3)})
    cache.store("thing", 1, "k2", {"a": np.arange(3)})
    cache.store("thing", 10, "k1", {"a": np.arange(3)})
    cache.store("thingy", 2, "k1", {"a": np.arange(3)})
    (empty_cache / "notes.txt").write_text("kept")
    assert sorted(p.name for p in empty_cache.iterdir()) == [
        "notes.txt", "thing-v10-k1.npz", "thingy-v2-k1.npz"]
    cache.store("thing", 1, "k3", {"a": np.arange(3)})
    assert sorted(p.name for p in empty_cache.iterdir()) == [
        "notes.txt", "thing-v1-k3.npz", "thingy-v2-k1.npz"]
    assert cache.load("thingy", 2, "k1", lambda loaded: loaded) is not None


def test_counts_hits_misses_and_writes(empty_cache, monkeypatch):
    monkeypatch.setattr(cache, "counts", Counter())
    assert cache.load("thing", 1, "k", lambda loaded: loaded) is None
    cache.store("thing", 1, "k", {"a": np.arange(3)})
    assert cache.load("thing", 1, "k", lambda loaded: loaded) is not None
    assert cache.load("thing", 1, "k", lambda loaded: loaded) is not None
    assert cache.load("thing", 1, "k", lambda loaded: None) is None
    assert cache.counts == {("thing", "miss"): 2, ("thing", "write"): 1, ("thing", "hit"): 2}


def test_failed_write_leaves_nothing(empty_cache, monkeypatch):
    def full_disk(fh, **arrays):
        fh.write(b"partial")
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez", full_disk)
    cache.store("thing", 1, "k", {"a": np.arange(3)})
    assert list(empty_cache.iterdir()) == []


def test_regular_file_at_cache_path_writes_nothing(empty_cache):
    empty_cache.write_bytes(b"not a directory")
    cache.store("thing", 1, "k", {"a": np.arange(3)})
    assert cache.load("thing", 1, "k", lambda loaded: loaded) is None
    assert empty_cache.read_bytes() == b"not a directory"
    assert [p.name for p in empty_cache.parent.iterdir()] == ["kgqa"]
