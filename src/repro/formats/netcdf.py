"""The netCDF classic binary format, from scratch.

Implements writer and reader for three on-disk versions:

* **CDF-1** (``CDF\\x01``): the classic format — 32-bit offsets.
* **CDF-2** (``CDF\\x02``): 64-bit offset variant; non-record variables
  are still limited to 4 GiB, which is exactly the constraint that
  forced the paper's scientists into record variables (Sec. V-A).
* **CDF-5** (``CDF\\x05``): the "future netCDF" with 64-bit sizes the
  paper tested (Sec. V-B) — it permits non-record variables of
  virtually unlimited size, which makes single-variable reads
  contiguous, matching the paper's finding that its access pattern
  equals HDF5's.

All multi-byte header fields are big-endian, per the format spec.  In
CDF-5 every ``NON_NEG`` field (counts, dimension lengths, vsize, name
lengths, dimension ids) widens to 64 bits and ``begin`` offsets are 64
bits, following the PnetCDF specification.

Record variables are stored interleaved record by record (Fig. 8 of
the paper): record r holds one slab of each record variable in
definition order, each slab padded to a 4-byte boundary — except when
there is exactly one record variable, in which case no padding is used
(the spec's special case, also honoured by scipy, against which the
CDF-1/2 paths are validated in the tests).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from repro.formats.layout import ContiguousLayout, RecordLayout, VariableLayout, range_pairs, read_ranges
from repro.storage.store import ByteStore, MemoryStore
from repro.utils.errors import FormatError

# -- constants ---------------------------------------------------------------

NC_BYTE = 1
NC_CHAR = 2
NC_SHORT = 3
NC_INT = 4
NC_FLOAT = 5
NC_DOUBLE = 6
# CDF-5 extended types.
NC_UBYTE = 7
NC_USHORT = 8
NC_UINT = 9
NC_INT64 = 10
NC_UINT64 = 11

ZERO = 0x00
NC_DIMENSION = 0x0A
NC_VARIABLE = 0x0B
NC_ATTRIBUTE = 0x0C

#: nc_type -> (big-endian numpy dtype, element size)
TYPE_INFO: dict[int, tuple[str, int]] = {
    NC_BYTE: (">i1", 1),
    NC_CHAR: ("S1", 1),
    NC_SHORT: (">i2", 2),
    NC_INT: (">i4", 4),
    NC_FLOAT: (">f4", 4),
    NC_DOUBLE: (">f8", 8),
    NC_UBYTE: (">u1", 1),
    NC_USHORT: (">u2", 2),
    NC_UINT: (">u4", 4),
    NC_INT64: (">i8", 8),
    NC_UINT64: (">u8", 8),
}

_CLASSIC_TYPES = (NC_BYTE, NC_CHAR, NC_SHORT, NC_INT, NC_FLOAT, NC_DOUBLE)

_DTYPE_TO_NCTYPE = {
    "i1": NC_BYTE,
    "S1": NC_CHAR,
    "i2": NC_SHORT,
    "i4": NC_INT,
    "f4": NC_FLOAT,
    "f8": NC_DOUBLE,
    "u1": NC_UBYTE,
    "u2": NC_USHORT,
    "u4": NC_UINT,
    "i8": NC_INT64,
    "u8": NC_UINT64,
}

_MAX_I4 = 2**31 - 1
_FOUR_GIB = 2**32


def nc_type_for_dtype(dtype: Any) -> int:
    """Map a numpy dtype to its nc_type."""
    dt = np.dtype(dtype)
    key = dt.str.lstrip("<>=|")
    try:
        return _DTYPE_TO_NCTYPE[key]
    except KeyError:
        raise FormatError(f"dtype {dt} has no netCDF classic type") from None


def _pad4(n: int) -> int:
    return (4 - n % 4) % 4


# -- data model --------------------------------------------------------------


@dataclass
class NCDimension:
    """A named dimension; ``length`` None means the record dimension."""

    name: str
    length: int | None

    @property
    def isrec(self) -> bool:
        return self.length is None


@dataclass
class NCVariable:
    """Variable metadata as parsed from (or prepared for) the header."""

    name: str
    nc_type: int
    dim_names: tuple[str, ...]
    shape: tuple[int, ...]  # record dim realized as numrecs
    isrec: bool
    vsize: int = 0
    begin: int = 0
    attributes: dict[str, Any] = field(default_factory=dict)
    layout: VariableLayout | None = None

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(TYPE_INFO[self.nc_type][0])

    @property
    def itemsize(self) -> int:
        return TYPE_INFO[self.nc_type][1]

    @property
    def nbytes(self) -> int:
        n = self.itemsize
        for s in self.shape:
            n *= s
        return n


# -- low-level header encoding ------------------------------------------------


class _HeaderWriter:
    """Serializes the header with version-dependent field widths."""

    def __init__(self, version: int):
        self.version = version
        self.parts: list[bytes] = []

    @property
    def nonneg_fmt(self) -> str:
        return ">q" if self.version == 5 else ">i"

    @property
    def begin_fmt(self) -> str:
        return ">i" if self.version == 1 else ">q"

    def i4(self, v: int) -> None:
        self.parts.append(struct.pack(">i", v))

    def nonneg(self, v: int) -> None:
        if v < 0:
            raise FormatError(f"negative NON_NEG value {v}")
        if self.version != 5 and v > _MAX_I4:
            raise FormatError(
                f"value {v} exceeds 32-bit header field; use CDF-5 (version=5)"
            )
        self.parts.append(struct.pack(self.nonneg_fmt, v))

    def begin(self, v: int) -> None:
        if self.version == 1 and v > _MAX_I4:
            raise FormatError(
                f"offset {v} exceeds CDF-1's 32-bit begin field; use version 2 or 5"
            )
        self.parts.append(struct.pack(self.begin_fmt, v))

    def name(self, s: str) -> None:
        raw = s.encode("utf-8")
        self.nonneg(len(raw))
        self.parts.append(raw + b"\x00" * _pad4(len(raw)))

    def raw(self, b: bytes) -> None:
        self.parts.append(b)

    def getvalue(self) -> bytes:
        return b"".join(self.parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self.parts)


class _HeaderReader:
    """Parses the header, pulling bytes from a store on demand."""

    CHUNK = 8192

    def __init__(self, store: ByteStore, version: int | None = None):
        self.store = store
        self.pos = 0
        self._buf = b""
        self._buf_start = 0
        self.version = version or 0

    def _ensure(self, n: int) -> None:
        end = self.pos + n
        if self.pos < self._buf_start or end > self._buf_start + len(self._buf):
            want = max(n, self.CHUNK)
            want = min(want, self.store.size() - self.pos)
            if want < n:
                raise FormatError("truncated netCDF header")
            self._buf = self.store.read(self.pos, want)
            self._buf_start = self.pos

    def take(self, n: int) -> bytes:
        self._ensure(n)
        off = self.pos - self._buf_start
        out = self._buf[off : off + n]
        self.pos += n
        return out

    def i4(self) -> int:
        return struct.unpack(">i", self.take(4))[0]

    def nonneg(self) -> int:
        if self.version == 5:
            v = struct.unpack(">q", self.take(8))[0]
        else:
            v = self.i4()
        if v < 0:
            raise FormatError(f"negative NON_NEG field at offset {self.pos}")
        return v

    def begin(self) -> int:
        if self.version == 1:
            return self.i4()
        return struct.unpack(">q", self.take(8))[0]

    def name(self) -> str:
        n = self.nonneg()
        raw = self.take(n + _pad4(n))
        return raw[:n].decode("utf-8")


def _encode_attr_value(w: _HeaderWriter, value: Any) -> None:
    """Write one attribute: nc_type, count, padded values."""
    if isinstance(value, str):
        raw = value.encode("utf-8")
        w.i4(NC_CHAR)
        w.nonneg(len(raw))
        w.raw(raw + b"\x00" * _pad4(len(raw)))
        return
    if isinstance(value, bytes):
        w.i4(NC_CHAR)
        w.nonneg(len(value))
        w.raw(value + b"\x00" * _pad4(len(value)))
        return
    if isinstance(value, (bool, int)) and abs(int(value)) <= _MAX_I4:
        value = np.int32(value)
    elif isinstance(value, float):
        value = np.float64(value)
    arr = np.atleast_1d(np.asarray(value))
    nc_type = nc_type_for_dtype(arr.dtype)
    if w.version != 5 and nc_type not in _CLASSIC_TYPES:
        raise FormatError(f"attribute dtype {arr.dtype} requires CDF-5")
    be = arr.astype(TYPE_INFO[nc_type][0])
    w.i4(nc_type)
    w.nonneg(arr.size)
    raw = be.tobytes()
    w.raw(raw + b"\x00" * _pad4(len(raw)))


def _decode_attr_value(r: _HeaderReader) -> Any:
    nc_type = r.i4()
    count = r.nonneg()
    dt, size = TYPE_INFO.get(nc_type, (None, 0))
    if dt is None:
        raise FormatError(f"unknown attribute nc_type {nc_type}")
    nbytes = count * size
    raw = r.take(nbytes + _pad4(nbytes))[:nbytes]
    if nc_type == NC_CHAR:
        return raw.decode("utf-8")
    arr = np.frombuffer(raw, dtype=dt).astype(np.dtype(dt).newbyteorder("="))
    return arr if arr.size > 1 else arr[0]


def _write_att_list(w: _HeaderWriter, attrs: dict[str, Any]) -> None:
    if not attrs:
        w.i4(ZERO)
        w.nonneg(0)
        return
    w.i4(NC_ATTRIBUTE)
    w.nonneg(len(attrs))
    for name, value in attrs.items():
        w.name(name)
        _encode_attr_value(w, value)


def _read_att_list(r: _HeaderReader) -> dict[str, Any]:
    tag = r.i4()
    count = r.nonneg()
    if tag == ZERO:
        if count:
            raise FormatError("ABSENT attribute list with nonzero count")
        return {}
    if tag != NC_ATTRIBUTE:
        raise FormatError(f"expected NC_ATTRIBUTE tag, got {tag:#x}")
    return {r.name(): _decode_attr_value(r) for _ in range(count)}


# -- writer -------------------------------------------------------------------


class NetCDFWriter:
    """Builds a netCDF classic file in definition order.

    Usage::

        w = NetCDFWriter(version=1)
        w.create_dimension("time", None)           # record dimension
        w.create_dimension("z", 16); ...
        w.create_variable("pressure", np.float32, ("time", "z", "y", "x"))
        w.set_variable_data("pressure", data)       # shape (nrecs, 16, ny, nx)
        store = w.write()                           # MemoryStore by default
    """

    def __init__(self, version: int = 1):
        if version not in (1, 2, 5):
            raise FormatError(f"netCDF classic version must be 1, 2 or 5, got {version}")
        self.version = version
        self.dimensions: dict[str, NCDimension] = {}
        self.global_attributes: dict[str, Any] = {}
        self._vars: dict[str, NCVariable] = {}
        self._data: dict[str, np.ndarray] = {}

    # -- definition ------------------------------------------------------

    def create_dimension(self, name: str, length: int | None) -> None:
        if name in self.dimensions:
            raise FormatError(f"dimension {name!r} already defined")
        if length is None:
            if any(d.isrec for d in self.dimensions.values()):
                raise FormatError("only one record (unlimited) dimension is allowed")
        elif length <= 0:
            raise FormatError(f"dimension {name!r} must have positive length")
        self.dimensions[name] = NCDimension(name, None if length is None else int(length))

    def set_attribute(self, name: str, value: Any) -> None:
        self.global_attributes[name] = value

    def create_variable(
        self,
        name: str,
        dtype: Any,
        dims: Sequence[str],
        attributes: dict[str, Any] | None = None,
    ) -> None:
        if name in self._vars:
            raise FormatError(f"variable {name!r} already defined")
        nc_type = dtype if isinstance(dtype, int) else nc_type_for_dtype(dtype)
        if nc_type not in TYPE_INFO:
            raise FormatError(f"unknown nc_type {nc_type}")
        if self.version != 5 and nc_type not in _CLASSIC_TYPES:
            raise FormatError(f"nc_type {nc_type} requires CDF-5")
        dim_names = tuple(dims)
        for i, d in enumerate(dim_names):
            if d not in self.dimensions:
                raise FormatError(f"variable {name!r} uses undefined dimension {d!r}")
            if self.dimensions[d].isrec and i != 0:
                raise FormatError("the record dimension must be the first dimension")
        isrec = bool(dim_names) and self.dimensions[dim_names[0]].isrec
        self._vars[name] = NCVariable(
            name=name,
            nc_type=nc_type,
            dim_names=dim_names,
            shape=(),  # filled at write time
            isrec=isrec,
            attributes=dict(attributes or {}),
        )

    def set_variable_data(self, name: str, data: np.ndarray) -> None:
        var = self._require_var(name)
        arr = np.asarray(data)
        fixed_shape = tuple(
            self.dimensions[d].length  # type: ignore[misc]
            for d in var.dim_names
            if not self.dimensions[d].isrec
        )
        if var.isrec:
            if arr.ndim != len(var.dim_names) or arr.shape[1:] != fixed_shape:
                raise FormatError(
                    f"data shape {arr.shape} does not match record variable "
                    f"{name!r} (*, {fixed_shape})"
                )
        elif arr.shape != fixed_shape:
            raise FormatError(
                f"data shape {arr.shape} does not match variable {name!r} {fixed_shape}"
            )
        self._data[name] = arr

    def _require_var(self, name: str) -> NCVariable:
        try:
            return self._vars[name]
        except KeyError:
            raise FormatError(f"unknown variable {name!r}") from None

    # -- serialization -----------------------------------------------------

    def _numrecs(self) -> int:
        recs = {self._data[n].shape[0] for n, v in self._vars.items() if v.isrec and n in self._data}
        if not recs:
            return 0
        if len(recs) > 1:
            raise FormatError(f"record variables disagree on record count: {sorted(recs)}")
        return recs.pop()

    def _slab_bytes(self, var: NCVariable) -> int:
        n = var.itemsize
        for d in var.dim_names:
            dim = self.dimensions[d]
            if not dim.isrec:
                n *= dim.length  # type: ignore[operator]
        return n

    def _assign_layout(self, numrecs: int) -> tuple[bytes, int, int]:
        """Compute vsizes/begins; returns (header, record_begin, stride)."""
        rec_vars = [v for v in self._vars.values() if v.isrec]
        fixed_vars = [v for v in self._vars.values() if not v.isrec]
        pad_records = len(rec_vars) != 1  # the spec's single-record-var exception

        # vsize per variable (per-record slab for record vars).
        for v in self._vars.values():
            raw = self._slab_bytes(v)
            v.vsize = raw + (_pad4(raw) if (not v.isrec or pad_records) else 0)
            if self.version in (1, 2) and not v.isrec and v.vsize >= _FOUR_GIB:
                raise FormatError(
                    f"non-record variable {v.name!r} is {v.vsize} bytes; the classic "
                    "format limits non-record variables to < 4 GiB — use a record "
                    "variable or CDF-5 (this is the constraint in Sec. V-A of the paper)"
                )

        header_len = len(self._encode_header(numrecs, probe=True))
        header_len += _pad4(header_len)

        # Assign begins: fixed variables first, then the record section.
        offset = header_len
        for v in fixed_vars:
            v.begin = offset
            offset += v.vsize
        rec_begin = offset
        stride = sum(v.vsize for v in rec_vars)
        for v in rec_vars:
            v.begin = offset
            offset += v.vsize

        header = self._encode_header(numrecs, probe=False)
        header += b"\x00" * _pad4(len(header))
        return header, rec_begin, stride

    def total_size(self, numrecs: int | None = None) -> int:
        """File size the current definitions produce for ``numrecs``."""
        numrecs = self._numrecs() if numrecs is None else numrecs
        header, rec_begin, stride = self._assign_layout(numrecs)
        if any(v.isrec for v in self._vars.values()):
            return rec_begin + stride * numrecs
        return rec_begin

    def write_header_only(self, numrecs: int) -> "NetCDFFile":
        """Paper-scale planning: real header, virtual data region.

        Returns a reader whose layout queries all work but whose data
        reads raise — exactly what access-plan code needs for the
        27 GB / 335 GB files no test machine should materialize.
        """
        from repro.storage.store import HeaderOnlyStore

        header, rec_begin, stride = self._assign_layout(numrecs)
        rec_vars = [v for v in self._vars.values() if v.isrec]
        total = rec_begin + stride * numrecs if rec_vars else rec_begin
        return NetCDFFile(HeaderOnlyStore(header, total))

    def write(self, store: ByteStore | None = None) -> "NetCDFFile":
        """Serialize everything; returns a reader over the written store."""
        store = store or MemoryStore()
        numrecs = self._numrecs()
        rec_vars = [v for v in self._vars.values() if v.isrec]
        fixed_vars = [v for v in self._vars.values() if not v.isrec]
        header, rec_begin, stride = self._assign_layout(numrecs)
        store.write(0, header)

        # Fixed variable data.
        for v in fixed_vars:
            arr = self._data.get(v.name)
            raw = b"" if arr is None else np.ascontiguousarray(arr).astype(v.dtype).tobytes()
            raw = raw.ljust(v.vsize, b"\x00")
            store.write(v.begin, raw)

        # Record data, interleaved record by record.
        for r in range(numrecs):
            for v in rec_vars:
                arr = self._data.get(v.name)
                if arr is None or r >= arr.shape[0]:
                    raw = b""
                else:
                    raw = np.ascontiguousarray(arr[r]).astype(v.dtype).tobytes()
                raw = raw.ljust(v.vsize, b"\x00")
                store.write(v.begin + r * stride, raw)

        # Ensure the file extends to its full nominal size even if the
        # last slab was unpadded.
        total = rec_begin + stride * numrecs if rec_vars else rec_begin
        if store.size() < total:
            store.write(total - 1, b"\x00")
        return NetCDFFile(store)

    def _encode_header(self, numrecs: int, probe: bool) -> bytes:
        w = _HeaderWriter(self.version)
        w.raw(b"CDF" + bytes([self.version]))
        if self.version == 5:
            w.raw(struct.pack(">q", numrecs))
        else:
            w.i4(numrecs)
        # dim_list
        if self.dimensions:
            w.i4(NC_DIMENSION)
            w.nonneg(len(self.dimensions))
            for d in self.dimensions.values():
                w.name(d.name)
                w.nonneg(0 if d.isrec else d.length)  # type: ignore[arg-type]
        else:
            w.i4(ZERO)
            w.nonneg(0)
        _write_att_list(w, self.global_attributes)
        # var_list
        if self._vars:
            dim_ids = {name: i for i, name in enumerate(self.dimensions)}
            w.i4(NC_VARIABLE)
            w.nonneg(len(self._vars))
            for v in self._vars.values():
                w.name(v.name)
                w.nonneg(len(v.dim_names))
                for d in v.dim_names:
                    w.nonneg(dim_ids[d])
                _write_att_list(w, v.attributes)
                w.i4(v.nc_type)
                w.nonneg(min(v.vsize, _MAX_I4) if self.version != 5 else v.vsize)
                w.begin(0 if probe else v.begin)
        else:
            w.i4(ZERO)
            w.nonneg(0)
        return w.getvalue()


# -- reader -------------------------------------------------------------------


class NetCDFFile:
    """Parses a classic netCDF file and exposes layout-aware reads."""

    def __init__(self, store: ByteStore):
        self.store = store
        self.dimensions: dict[str, NCDimension] = {}
        self.global_attributes: dict[str, Any] = {}
        self.variables: dict[str, NCVariable] = {}
        self.numrecs = 0
        self.version = 0
        self.header_bytes = 0
        self.record_stride = 0
        self.record_begin = 0
        self._parse()

    @classmethod
    def from_bytes(cls, data: bytes) -> "NetCDFFile":
        return cls(MemoryStore(data))

    def _parse(self) -> None:
        magic = self.store.read(0, 4)
        if magic[:3] != b"CDF" or magic[3] not in (1, 2, 5):
            raise FormatError(f"not a netCDF classic file (magic {magic!r})")
        self.version = magic[3]
        r = _HeaderReader(self.store, self.version)
        r.pos = 4
        if self.version == 5:
            self.numrecs = struct.unpack(">q", r.take(8))[0]
        else:
            self.numrecs = r.i4()
        if self.numrecs < 0:
            raise FormatError("streaming numrecs (-1) is not supported")
        # dim_list
        tag = r.i4()
        count = r.nonneg()
        if tag == NC_DIMENSION:
            for _ in range(count):
                name = r.name()
                length = r.nonneg()
                self.dimensions[name] = NCDimension(name, None if length == 0 else length)
        elif tag != ZERO or count:
            raise FormatError(f"bad dim_list tag {tag:#x}")
        self.global_attributes = _read_att_list(r)
        # var_list
        tag = r.i4()
        count = r.nonneg()
        dim_names = list(self.dimensions)
        if tag == NC_VARIABLE:
            for _ in range(count):
                name = r.name()
                ndims = r.nonneg()
                ids = [r.nonneg() for _ in range(ndims)]
                for i in ids:
                    if i >= len(dim_names):
                        raise FormatError(f"variable {name!r} references dimension id {i}")
                attrs = _read_att_list(r)
                nc_type = r.i4()
                vsize = r.nonneg()
                begin = r.begin()
                if nc_type not in TYPE_INFO:
                    raise FormatError(f"variable {name!r} has unknown nc_type {nc_type}")
                dnames = tuple(dim_names[i] for i in ids)
                isrec = bool(dnames) and self.dimensions[dnames[0]].isrec
                shape = tuple(
                    self.numrecs if self.dimensions[d].isrec else self.dimensions[d].length
                    for d in dnames
                )
                self.variables[name] = NCVariable(
                    name=name,
                    nc_type=nc_type,
                    dim_names=dnames,
                    shape=shape,  # type: ignore[arg-type]
                    isrec=isrec,
                    vsize=vsize,
                    begin=begin,
                    attributes=attrs,
                )
        elif tag != ZERO or count:
            raise FormatError(f"bad var_list tag {tag:#x}")
        self.header_bytes = r.pos
        self._build_layouts()

    def _build_layouts(self) -> None:
        rec_vars = [v for v in self.variables.values() if v.isrec]
        self.record_stride = sum(v.vsize for v in rec_vars)
        self.record_begin = min((v.begin for v in rec_vars), default=0)
        for v in self.variables.values():
            slab = self._slab_bytes(v)
            if v.isrec:
                v.layout = RecordLayout(
                    begin=v.begin,
                    slab_bytes=slab,
                    stride_bytes=max(self.record_stride, slab),
                    num_records=self.numrecs,
                )
            else:
                v.layout = ContiguousLayout(begin=v.begin, nbytes=slab)

    def _slab_bytes(self, v: NCVariable) -> int:
        n = v.itemsize
        for d, s in zip(v.dim_names, v.shape):
            if not self.dimensions[d].isrec:
                n *= s
        return n

    # -- reads --------------------------------------------------------------

    def variable(self, name: str) -> NCVariable:
        try:
            return self.variables[name]
        except KeyError:
            raise FormatError(f"no variable {name!r} in file") from None

    def read_variable(self, name: str) -> np.ndarray:
        v = self.variable(name)
        return self.read_subarray(name, (0,) * len(v.shape), v.shape)

    def read_subarray(
        self, name: str, start: Sequence[int], count: Sequence[int]
    ) -> np.ndarray:
        """Read a hyperslab of a variable into a native-endian array."""
        v = self.variable(name)
        assert v.layout is not None
        ranges = v.layout.subarray_file_ranges(v.shape, start, count, v.itemsize)
        raw = read_ranges(self.store, *ranges)
        arr = np.frombuffer(raw, dtype=v.dtype).astype(v.dtype.newbyteorder("="))
        return arr.reshape(tuple(int(c) for c in count))

    def subarray_file_ranges(
        self, name: str, start: Sequence[int], count: Sequence[int]
    ) -> Iterator[tuple[int, int]]:
        """File (offset, length) ranges a hyperslab read must touch."""
        v = self.variable(name)
        assert v.layout is not None
        return range_pairs(*v.layout.subarray_file_ranges(v.shape, start, count, v.itemsize))

    # -- introspection (Fig. 8) -----------------------------------------------

    def describe_layout(self, max_records: int = 3) -> str:
        """Human-readable file map: header, fixed section, record interleaving."""
        lines = [
            f"netCDF classic (CDF-{self.version}), {self.store.size()} bytes, "
            f"{self.numrecs} records",
            f"  [0, {self.header_bytes}) header",
        ]
        for v in self.variables.values():
            if not v.isrec:
                lines.append(
                    f"  [{v.begin}, {v.begin + v.vsize}) fixed var {v.name!r}"
                )
        rec_vars = [v for v in self.variables.values() if v.isrec]
        for r in range(min(self.numrecs, max_records)):
            for v in rec_vars:
                off = v.begin + r * self.record_stride
                lines.append(
                    f"  [{off}, {off + v.vsize}) record {r} of {v.name!r}"
                )
        if self.numrecs > max_records and rec_vars:
            lines.append(f"  ... {self.numrecs - max_records} more records ...")
        return "\n".join(lines)
