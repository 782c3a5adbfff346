"""Payload handling: sizing and value-snapshot semantics.

MPI send buffers are copied out at send time; mutating the source array
afterwards must not change what the receiver sees.  ``snapshot``
implements that for the container shapes this codebase sends.

``VirtualPayload`` carries only a byte count.  Performance-mode runs at
large scale use it so the DES moves no real data.  ``Detached`` carries
a body that was snapshotted and sized once, so forwarding it (a gather
subtree going up the tree) copies and sizes nothing again.
"""

from __future__ import annotations

import copy
import sys
from typing import Any

import numpy as np

from repro.render.image import PartialImage
from repro.utils.errors import CommunicationError


class VirtualPayload:
    """A size-only message body for performance-mode simulation."""

    __slots__ = ("nbytes", "label")

    def __init__(self, nbytes: int, label: str = ""):
        if nbytes < 0:
            raise CommunicationError(f"negative virtual payload size {nbytes}")
        self.nbytes = int(nbytes)
        self.label = label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VirtualPayload) and other.nbytes == self.nbytes

    def __hash__(self) -> int:
        return hash(("VirtualPayload", self.nbytes))

    def __repr__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return f"VirtualPayload({self.nbytes}B{tag})"


class Detached:
    """A payload already detached from its senders, with its wire size.

    ``snapshot`` passes it by reference and ``payload_nbytes`` reads its
    stated ``nbytes``, so a body assembled from values that were each
    snapshotted once (a gather subtree) is forwarded without being
    copied or sized again.  Whoever builds one owns that guarantee.
    """

    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int):
        self.value = value
        self.nbytes = nbytes


def payload_nbytes(obj: Any) -> int:
    """Wire size of a payload, in bytes.

    NumPy arrays count their buffer; containers sum their elements plus
    a small per-element envelope; scalars and small objects count a
    fixed envelope, mirroring pickled-header costs without pickling.
    The built-in shapes, and the bodies that state their own size
    (partial images, virtual payloads, :class:`Detached`), are matched
    by exact class first; subclasses and everything else take the
    ``isinstance`` ladder, :func:`_nbytes_by_kind`.
    """
    cls = obj.__class__
    if cls is PartialImage or cls is np.ndarray or cls is VirtualPayload or cls is Detached:
        return obj.nbytes
    if cls is tuple or cls is list:
        return 16 + sum(map(payload_nbytes, obj))
    if cls is int or cls is float or obj is None:
        return 16
    if cls is dict:
        return 16 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    return _nbytes_by_kind(obj)


def _nbytes_by_kind(obj: Any) -> int:
    if isinstance(obj, VirtualPayload):
        return obj.nbytes
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (bool, int, float, complex, np.generic)) or obj is None:
        return 16
    if isinstance(obj, str):
        return len(obj.encode("utf-8")) + 16
    if isinstance(obj, (tuple, list)):
        return 16 + sum(payload_nbytes(v) for v in obj)
    if isinstance(obj, dict):
        return 16 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in obj.items())
    # Objects with a meaningful nbytes attribute (e.g. partial images).
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return max(sys.getsizeof(obj), 16)


def snapshot(obj: Any) -> Any:
    """Copy-on-send: detach the payload from the sender's buffers.

    NumPy arrays are copied; containers are rebuilt with copied leaves
    and keep their class (a namedtuple stays one, a ``defaultdict``
    keeps its factory); immutable scalars pass through.  Arbitrary
    objects pass through by reference — senders of custom objects must
    not mutate them after sending (the library's own message types are
    all immutable or consumed).
    """
    cls = obj.__class__
    if cls is PartialImage or cls is VirtualPayload or cls is Detached:
        return obj
    if cls is np.ndarray:
        return obj.copy()
    if cls is tuple:
        return tuple(map(snapshot, obj))
    if cls is list:
        return list(map(snapshot, obj))
    if cls is dict:
        return {k: snapshot(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return getattr(cls, "_make", cls)(map(snapshot, obj))
    if isinstance(obj, (list, dict)):
        copied = copy.copy(obj)
        for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            copied[k] = snapshot(v)
        return copied
    return obj
