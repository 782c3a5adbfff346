"""Headerless raw volumes — the paper's preprocessed per-variable files.

A raw file is exactly one 3D array in row-major order (z, y, x here;
the axis convention is the library-wide one: index [z][y][x]).  The
paper's offline preprocessing extracts one 32-bit variable from the
netCDF time step into such a file (5.3 GB for 1120^3).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.formats.layout import ContiguousLayout, range_pairs, read_ranges
from repro.storage.store import ByteStore, MemoryStore, VirtualStore
from repro.utils.errors import FormatError
from repro.utils.validation import check_shape3


class RawVolume:
    """A raw 3D volume on a byte store.

    For paper-scale planning, build one over a :class:`VirtualStore`
    with :meth:`virtual` — all layout queries work without data.
    """

    def __init__(self, store: ByteStore, shape: Sequence[int], dtype: str = "<f4"):
        self.store = store
        self.shape = check_shape3("raw volume shape", shape)
        self.dtype = np.dtype(dtype)
        self.layout = ContiguousLayout(begin=0, nbytes=self.nbytes)
        if store.size() < self.nbytes:
            raise FormatError(
                f"store of {store.size()} bytes cannot hold {self.shape} "
                f"{self.dtype} volume ({self.nbytes} bytes)"
            )

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape)) * self.itemsize

    @classmethod
    def write(cls, data: np.ndarray, store: ByteStore | None = None, dtype: str = "<f4") -> "RawVolume":
        """Serialize a 3D array into a (new) store."""
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise FormatError(f"raw volumes are 3D, got shape {arr.shape}")
        store = store or MemoryStore()
        store.write(0, np.ascontiguousarray(arr).astype(dtype).tobytes())
        return cls(store, arr.shape, dtype)

    @classmethod
    def virtual(cls, shape: Sequence[int], dtype: str = "<f4") -> "RawVolume":
        """Size-only volume for planning at paper scale."""
        shape = check_shape3("raw volume shape", shape)
        nbytes = int(np.prod(shape)) * np.dtype(dtype).itemsize
        return cls(VirtualStore(nbytes), shape, dtype)

    # -- reads -------------------------------------------------------------

    def read_subarray(self, start: Sequence[int], count: Sequence[int]) -> np.ndarray:
        ranges = self.layout.subarray_file_ranges(self.shape, start, count, self.itemsize)
        arr = np.frombuffer(read_ranges(self.store, *ranges), dtype=self.dtype)
        return arr.astype(self.dtype.newbyteorder("=")).reshape(tuple(int(c) for c in count))

    def read_all(self) -> np.ndarray:
        return self.read_subarray((0, 0, 0), self.shape)

    def subarray_file_ranges(
        self, start: Sequence[int], count: Sequence[int]
    ) -> Iterator[tuple[int, int]]:
        """(offset, length) file ranges for a hyperslab (begin is 0)."""
        return range_pairs(
            *self.layout.subarray_file_ranges(self.shape, start, count, self.itemsize)
        )
