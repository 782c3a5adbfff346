"""h5lite — a simplified HDF5-like container format.

Real HDF5 could not be linked (no h5py offline), so this format stands
in for it, preserving the two properties the paper measured:

* each dataset's payload is stored **contiguously** ("the data appear
  to be written contiguously within the file, so that accesses are
  more efficient" — Sec. V-B), and
* opening a dataset costs a handful of **very small metadata reads**
  ("every process performs 11 very small metadata accesses of no more
  than 600 bytes").

Layout::

    superblock (64 B):  magic "H5LT", version, dataset count,
                        metadata index offset
    index:              per-dataset entry offset table
    per-dataset header: NUM_META_BLOCKS small blocks (name, shape,
                        dtype, checksums, attribute stubs) of <= 600 B
    data:               contiguous, 8-byte aligned

The reader exposes the metadata accesses explicitly so the I/O layer
can log them (they show up in the Fig. 9/10 benches).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.formats.layout import ContiguousLayout, range_pairs, read_ranges
from repro.storage.store import ByteStore, MemoryStore
from repro.utils.errors import FormatError

MAGIC = b"H5LT"
VERSION = 1
SUPERBLOCK_BYTES = 64
#: Small metadata blocks per dataset — matches the paper's observation
#: of 11 tiny accesses when opening an HDF5 dataset.
NUM_META_BLOCKS = 11
META_BLOCK_BYTES = 512  # "no more than 600 bytes"


@dataclass(frozen=True)
class H5Dataset:
    """Metadata for one dataset."""

    name: str
    shape: tuple[int, ...]
    dtype: str
    data_offset: int
    meta_offset: int

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize

    @property
    def layout(self) -> ContiguousLayout:
        return ContiguousLayout(begin=self.data_offset, nbytes=self.nbytes)


class H5LiteWriter:
    """Accumulates datasets, then serializes them contiguously."""

    def __init__(self) -> None:
        # (name, shape, dtype, data-or-None); None = virtual (size only).
        self._datasets: list[tuple[str, tuple[int, ...], np.dtype, np.ndarray | None]] = []

    def create_dataset(self, name: str, data: np.ndarray) -> None:
        self._check_new(name)
        arr = np.ascontiguousarray(data)
        self._datasets.append((name, tuple(arr.shape), arr.dtype, arr))

    def create_virtual_dataset(self, name: str, shape: tuple[int, ...], dtype: str) -> None:
        """Declare a dataset whose bytes will never exist (planning only)."""
        self._check_new(name)
        self._datasets.append((name, tuple(int(s) for s in shape), np.dtype(dtype), None))

    def _check_new(self, name: str) -> None:
        if any(n == name for n, _, _, _ in self._datasets):
            raise FormatError(f"dataset {name!r} already defined")

    def _layout(self) -> tuple[list[tuple[str, tuple[int, ...], np.dtype, int]], int, int]:
        """(entries with offsets, meta_region, total_size)."""
        n = len(self._datasets)
        meta_region = SUPERBLOCK_BYTES + 8 * n
        meta_size = NUM_META_BLOCKS * META_BLOCK_BYTES
        data_start = meta_region + n * meta_size
        data_start += (-data_start) % 8
        entries = []
        offset = data_start
        for name, shape, dtype, _arr in self._datasets:
            offset += (-offset) % 8
            entries.append((name, shape, dtype, offset))
            offset += int(np.prod(shape)) * dtype.itemsize
        return entries, meta_region, offset

    def _write_metadata(self, store: ByteStore) -> None:
        entries, meta_region, _total = self._layout()
        meta_size = NUM_META_BLOCKS * META_BLOCK_BYTES
        store.write(0, self._superblock(len(entries), SUPERBLOCK_BYTES))
        index = b"".join(
            struct.pack("<q", meta_region + i * meta_size) for i in range(len(entries))
        )
        store.write(SUPERBLOCK_BYTES, index)
        for i, (name, shape, dtype, off) in enumerate(entries):
            meta_off = meta_region + i * meta_size
            for b, block in enumerate(self._meta_blocks(name, shape, dtype, off)):
                store.write(meta_off + b * META_BLOCK_BYTES, block)

    def write(self, store: ByteStore | None = None) -> "H5LiteFile":
        store = store or MemoryStore()
        entries, _meta_region, total = self._layout()
        self._write_metadata(store)
        for (name, _shape, dtype, off), (_n2, _s2, _d2, arr) in zip(entries, self._datasets):
            if arr is None:
                raise FormatError(
                    f"dataset {name!r} is virtual; use write_header_only()"
                )
            store.write(off, arr.astype(dtype.newbyteorder("<")).tobytes())
        if store.size() < total:
            store.write(total - 1, b"\x00")
        return H5LiteFile(store)

    def write_header_only(self) -> "H5LiteFile":
        """Real metadata over a virtual data region (paper-scale files)."""
        from repro.storage.store import HeaderOnlyStore

        entries, meta_region, total = self._layout()
        meta_size = NUM_META_BLOCKS * META_BLOCK_BYTES
        header_len = meta_region + len(entries) * meta_size
        mem = MemoryStore()
        self._write_metadata(mem)
        header = mem.getvalue().ljust(header_len, b"\x00")
        return H5LiteFile(HeaderOnlyStore(header, total))

    @staticmethod
    def _superblock(count: int, header_len: int) -> bytes:
        sb = MAGIC + struct.pack("<hhq", VERSION, 0, count) + struct.pack("<q", header_len)
        return sb.ljust(SUPERBLOCK_BYTES, b"\x00")

    @staticmethod
    def _meta_blocks(
        name: str, shape: tuple[int, ...], dtype: np.dtype, data_offset: int
    ) -> list[bytes]:
        """One real descriptor block plus stub blocks (B-tree nodes, heaps...)."""
        desc = json.dumps(
            {
                "name": name,
                "shape": list(shape),
                "dtype": dtype.newbyteorder("<").str,
                "data_offset": data_offset,
            }
        ).encode("utf-8")
        if len(desc) > META_BLOCK_BYTES - 4:
            raise FormatError(f"dataset descriptor for {name!r} too large")
        blocks = [struct.pack("<i", len(desc)) + desc.ljust(META_BLOCK_BYTES - 4, b"\x00")]
        for b in range(1, NUM_META_BLOCKS):
            stub = struct.pack("<i", 0) + bytes([b]) * 16
            blocks.append(stub.ljust(META_BLOCK_BYTES, b"\x00"))
        return blocks


class H5LiteFile:
    """Reader; every metadata access is enumerable for logging."""

    def __init__(self, store: ByteStore):
        self.store = store
        sb = store.read(0, SUPERBLOCK_BYTES)
        if sb[:4] != MAGIC:
            raise FormatError(f"not an h5lite file (magic {sb[:4]!r})")
        version, _, count = struct.unpack("<hhq", sb[4:16])
        if version != VERSION:
            raise FormatError(f"unsupported h5lite version {version}")
        self._count = count
        self.datasets: dict[str, H5Dataset] = {}
        index = store.read(SUPERBLOCK_BYTES, 8 * count)
        for i in range(count):
            (meta_off,) = struct.unpack_from("<q", index, 8 * i)
            block = store.read(meta_off, META_BLOCK_BYTES)
            (desc_len,) = struct.unpack_from("<i", block, 0)
            desc = json.loads(block[4 : 4 + desc_len].decode("utf-8"))
            self.datasets[desc["name"]] = H5Dataset(
                name=desc["name"],
                shape=tuple(desc["shape"]),
                dtype=desc["dtype"],
                data_offset=desc["data_offset"],
                meta_offset=meta_off,
            )

    def dataset(self, name: str) -> H5Dataset:
        try:
            return self.datasets[name]
        except KeyError:
            raise FormatError(f"no dataset {name!r} in file") from None

    def metadata_accesses(self, name: str) -> list[tuple[int, int]]:
        """The small (offset, length) reads opening this dataset performs.

        One superblock read, one index entry, plus the per-dataset
        metadata blocks — each well under the paper's 600-byte bound.
        """
        ds = self.dataset(name)
        reads = [(0, SUPERBLOCK_BYTES), (SUPERBLOCK_BYTES, 8 * self._count)]
        reads += [
            (ds.meta_offset + b * META_BLOCK_BYTES, META_BLOCK_BYTES)
            for b in range(NUM_META_BLOCKS)
        ]
        return reads

    def read_dataset(self, name: str) -> np.ndarray:
        ds = self.dataset(name)
        return self.read_subarray(name, (0,) * len(ds.shape), ds.shape)

    def read_subarray(self, name: str, start: Sequence[int], count: Sequence[int]) -> np.ndarray:
        ds = self.dataset(name)
        dt = np.dtype(ds.dtype)
        ranges = ds.layout.subarray_file_ranges(ds.shape, start, count, dt.itemsize)
        arr = np.frombuffer(read_ranges(self.store, *ranges), dtype=dt).astype(dt.newbyteorder("="))
        return arr.reshape(tuple(int(c) for c in count))

    def subarray_file_ranges(
        self, name: str, start: Sequence[int], count: Sequence[int]
    ) -> Iterator[tuple[int, int]]:
        ds = self.dataset(name)
        return range_pairs(
            *ds.layout.subarray_file_ranges(ds.shape, start, count, np.dtype(ds.dtype).itemsize)
        )
