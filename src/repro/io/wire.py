"""Zero-copy binary wire format for :class:`~repro.cograph.FlatCotree` /
:class:`~repro.cograph.forest.FlatForest` (PR 10).

The hot path's canonical in-memory form is already a handful of flat NumPy
arrays (the CSR struct-of-arrays of :mod:`repro.cograph.flat`); this module
makes that layout the *interchange* form too, so server and stream ingestion
stop paying JSON/text parsing entirely:

* :func:`to_bytes` serialises a tree (or packed forest) as a fixed 56-byte
  header followed by the raw little-endian array buffers — ``int64`` arrays
  first (so every one stays 8-byte aligned), ``int8`` arrays last;
* :func:`from_bytes` is **zero-copy**: after validating the header (magic,
  byte-order mark, version, CRC-32, exact total length) every array is an
  ``np.frombuffer`` view into the caller's buffer — no parse, no copy;
* :func:`save` / :func:`load` move trees through files, with ``load``
  memory-mapping by default (the OS pages the arrays in lazily);
* :func:`frame` / :func:`read_frames` wrap payloads in ``u32``
  length-prefixed frames for streaming transports
  (``solve --stream --format binary`` and the server's
  ``application/octet-stream`` bodies reuse them).

Every malformed input — truncated buffer, wrong magic, byte-swapped
(big-endian) header, unknown version, CRC mismatch, inconsistent lengths —
raises :class:`ValueError` with a message naming the offending field; so
does a body that is not a cotree (a forest of them in the forest
container), as :meth:`~repro.cograph.FlatCotree.validate` decides in one
O(n) vectorized pass: kind codes (PRIME only under the prime flag), CSR
offsets, index ranges, each node one node's child or a root, parent/child
agreement, acyclicity, the leaf vertex permutation, the quotient payload
and the forest bookkeeping.  The decoder never crashes into NumPy index
errors, and a decoded tree is never checked again.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO, Iterator, Union

import numpy as np

from ..cograph.cotree import CotreeError
from ..cograph.flat import FlatCotree
from ..cograph.forest import FlatForest

__all__ = ["MAGIC", "VERSION", "HEADER_SIZE", "to_bytes", "from_bytes",
           "save", "load", "frame", "read_frames", "MAX_FRAME_BYTES"]

#: the 4 magic bytes every wire buffer starts with
MAGIC = b"RPRW"
#: wire format version this build reads and writes
VERSION = 1

#: header layout (all little-endian): magic, byte-order mark, version,
#: container, flags, index dtype code, kind dtype code, num_nodes,
#: num_edges, num_q_edges, root, num_instances — followed by a u32 CRC-32
#: of those 52 bytes.
_HEADER = struct.Struct("<4sHHBBBBQQQqQ")
_CRC = struct.Struct("<I")
HEADER_SIZE = _HEADER.size + _CRC.size          # 52 + 4 = 56 (8-aligned)

_BOM = 0xFEFF                                   # reads as 0xFFFE when swapped
_CONTAINER_TREE = 0
_CONTAINER_FOREST = 1
_FLAG_PRIME = 0x01                              # quotient payload present
_DTYPE_INDEX = 8                                # int64 (itemsize)
_DTYPE_KIND = 1                                 # int8 (itemsize)

_I64 = np.dtype("<i8")
_I8 = np.dtype("|i1")

#: refuse length-prefixed frames larger than this (a corrupt length prefix
#: must not trigger a multi-gigabyte allocation)
MAX_FRAME_BYTES = 1 << 31

WireTree = Union[FlatCotree, FlatForest]


def _le64(a: np.ndarray) -> np.ndarray:
    """The array as contiguous little-endian int64 (no copy on LE hosts)."""
    return np.ascontiguousarray(a, dtype=np.int64).astype(_I64, copy=False)


def _le8(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int8).astype(_I8, copy=False)


def _int64_arrays(tree: WireTree):
    """The tree's int64 payload arrays, in wire order."""
    arrays = [tree.child_offset, tree.child_index, tree.parent,
              tree.leaf_vertex]
    if isinstance(tree, FlatForest):
        arrays += [tree.roots, tree.instance_id, tree.node_base,
                   tree.vertex_base, tree.leaf_vertex_local]
    elif len(tree.q_offset):
        arrays += [tree.q_offset, tree.q_edge_u, tree.q_edge_v]
    return arrays


# --------------------------------------------------------------------------- #
# encoding
# --------------------------------------------------------------------------- #

def to_bytes(tree: WireTree) -> bytes:
    """Serialise a :class:`FlatCotree` or :class:`FlatForest` to wire bytes.

    The inverse of :func:`from_bytes`:
    ``from_bytes(to_bytes(t)) == t`` field for field.
    """
    if not isinstance(tree, FlatCotree):
        raise TypeError(f"to_bytes serialises FlatCotree / FlatForest, got "
                        f"{type(tree).__name__}; convert with "
                        f"as_flat_cotree() first")
    is_forest = isinstance(tree, FlatForest)
    has_prime = (not is_forest) and bool(len(tree.q_offset))
    container = _CONTAINER_FOREST if is_forest else _CONTAINER_TREE
    flags = _FLAG_PRIME if has_prime else 0
    header = _HEADER.pack(
        MAGIC, _BOM, VERSION, container, flags, _DTYPE_INDEX, _DTYPE_KIND,
        tree.num_nodes, len(tree.child_index),
        len(tree.q_edge_u) if has_prime else 0,
        int(tree.root),
        tree.num_instances if is_forest else 0)
    chunks = [header, _CRC.pack(zlib.crc32(header))]
    chunks += [_le64(a).tobytes() for a in _int64_arrays(tree)]
    chunks.append(_le8(tree.kind).tobytes())
    if has_prime:
        chunks.append(_le8(tree.spider).tobytes())
    return b"".join(chunks)


# --------------------------------------------------------------------------- #
# decoding
# --------------------------------------------------------------------------- #

def _fail(what: str) -> ValueError:
    return ValueError(f"invalid wire buffer: {what}")


def from_bytes(buf) -> WireTree:
    """Decode wire bytes into a :class:`FlatCotree` / :class:`FlatForest`.

    Accepts ``bytes``, ``bytearray``, ``memoryview`` or an ``mmap`` — every
    array of the result is a **zero-copy view** into ``buf`` (keep the
    buffer alive as long as the tree; the views hold a reference for you).
    Raises :class:`ValueError` on any malformed input.
    """
    view = memoryview(buf)
    total = view.nbytes
    if total < HEADER_SIZE:
        raise _fail(f"truncated header ({total} bytes, need {HEADER_SIZE})")
    (magic, bom, version, container, flags, dtype_index, dtype_kind,
     num_nodes, num_edges, num_q, root, num_instances) = \
        _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise _fail(f"bad magic {bytes(magic)!r} (expected {MAGIC!r})")
    if bom != _BOM:
        if bom == 0xFFFE:
            raise _fail("byte-swapped header: the buffer was produced on a "
                        "big-endian host; the wire format is little-endian "
                        "only")
        raise _fail(f"bad byte-order mark 0x{bom:04X}")
    if version != VERSION:
        raise _fail(f"unsupported version {version} (this build reads "
                    f"version {VERSION})")
    (crc_stored,) = _CRC.unpack_from(view, _HEADER.size)
    crc_actual = zlib.crc32(view[:_HEADER.size])
    if crc_stored != crc_actual:
        raise _fail(f"header CRC mismatch (stored 0x{crc_stored:08X}, "
                    f"computed 0x{crc_actual:08X})")
    if container not in (_CONTAINER_TREE, _CONTAINER_FOREST):
        raise _fail(f"unknown container code {container}")
    if flags & ~_FLAG_PRIME:
        raise _fail(f"unknown flag bits 0x{flags:02X}")
    is_forest = container == _CONTAINER_FOREST
    has_prime = bool(flags & _FLAG_PRIME)
    if is_forest and has_prime:
        raise _fail("a forest container cannot carry a quotient payload")
    if not is_forest and num_instances:
        raise _fail("a tree container must have num_instances == 0")
    if dtype_index != _DTYPE_INDEX or dtype_kind != _DTYPE_KIND:
        raise _fail(f"unsupported dtype codes ({dtype_index}, {dtype_kind}); "
                    f"this build reads int64 indices and int8 kinds")
    n, e, k = int(num_nodes), int(num_edges), int(num_instances)
    if root < -1 or root >= n:
        raise _fail(f"root {root} out of range for {n} nodes")

    # exact layout: int64 arrays first (8-aligned after the 56-byte
    # header), int8 arrays last
    i64_lens = [n + 1, e, n, n]
    if is_forest:
        i64_lens += [k, n, k + 1, k + 1, n]
    elif has_prime:
        i64_lens += [n + 1, num_q, num_q]
    i8_lens = [n, n] if has_prime else [n]
    expected = HEADER_SIZE + 8 * sum(i64_lens) + sum(i8_lens)
    if total != expected:
        raise _fail(f"payload length mismatch: buffer has {total} bytes, "
                    f"header describes {expected}")

    offset = HEADER_SIZE
    i64 = []
    for length in i64_lens:
        i64.append(np.frombuffer(view, dtype=_I64, count=length,
                                 offset=offset))
        offset += 8 * length
    i8 = []
    for length in i8_lens:
        i8.append(np.frombuffer(view, dtype=_I8, count=length,
                                offset=offset))
        offset += length

    # the CRC covers only the header: the body goes through the one
    # structural validator, so a bad buffer is refused here, not answered
    # wrongly or crashed into a NumPy IndexError downstream
    if is_forest:
        out: WireTree = FlatForest(i8[0], *i64)
    else:
        payload = dict(zip(("q_offset", "q_edge_u", "q_edge_v", "spider"),
                           i64[4:] + i8[1:]))
        out = FlatCotree(i8[0], *i64[:4], root, **payload)
    try:
        out.validate()
    except CotreeError as exc:
        raise _fail(str(exc)) from None
    return out


# --------------------------------------------------------------------------- #
# files
# --------------------------------------------------------------------------- #

def save(tree: WireTree, path) -> None:
    """Write ``to_bytes(tree)`` to ``path``."""
    with open(path, "wb") as fh:
        fh.write(to_bytes(tree))


def load(path, *, mmap: bool = True) -> WireTree:
    """Load a wire file, memory-mapping it by default.

    With ``mmap=True`` the returned tree's arrays are views into the
    mapped file (pages fault in on first touch; nothing is read up
    front).  With ``mmap=False`` the whole file is read into one bytes
    object first.
    """
    if not mmap:
        with open(path, "rb") as fh:
            return from_bytes(fh.read())
    import mmap as _mmap
    with open(path, "rb") as fh:
        mapped = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
    return from_bytes(mapped)       # the views keep the mapping alive


# --------------------------------------------------------------------------- #
# length-prefixed frames (streaming transports)
# --------------------------------------------------------------------------- #

def frame(payload: bytes) -> bytes:
    """Wrap a payload in a ``u32`` little-endian length prefix."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"frame payload of {len(payload)} bytes exceeds "
                         f"the {MAX_FRAME_BYTES}-byte limit")
    return struct.pack("<I", len(payload)) + payload


def read_frames(fh: BinaryIO) -> Iterator[bytes]:
    """Yield successive length-prefixed payloads from a binary stream.

    Stops cleanly at EOF on a frame boundary; a truncated prefix or body
    raises :class:`ValueError` (the stream died mid-frame).
    """
    while True:
        prefix = fh.read(4)
        if not prefix:
            return
        if len(prefix) < 4:
            raise ValueError(f"truncated frame prefix ({len(prefix)} of 4 "
                             f"bytes) — the binary stream ended mid-frame")
        (length,) = struct.unpack("<I", prefix)
        if length > MAX_FRAME_BYTES:
            raise ValueError(f"frame of {length} bytes exceeds the "
                             f"{MAX_FRAME_BYTES}-byte limit (corrupt "
                             f"prefix?)")
        payload = fh.read(length)
        if len(payload) < length:
            raise ValueError(f"truncated frame: prefix promised {length} "
                             f"bytes, stream delivered {len(payload)}")
        yield payload
