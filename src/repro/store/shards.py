"""Memory-mapped columnar shard files — the persistent spill format.

The PR 4 spill store wrote each shard as an opaque ``.npz``: every read
decompressed and copied the whole shard into fresh arrays, and nothing in the
file said *which* population recipe produced it, so a spill directory reused
across configs or seeds silently served the wrong data. This module replaces
it with a self-describing, memory-mappable columnar format:

* one file per shard holding a JSON header plus raw, 64-byte-aligned
  little-endian segments — ``lengths`` (``int64``), ``values`` and ``truth``
  (``float64``, series-concatenated along the time axis). ``float64`` bytes
  round-trip exactly, so a stored shard is bitwise-identical to its
  regeneration, NaN payloads and signed zeros included;
* the header carries a **recipe fingerprint** (:func:`recipe_fingerprint`) —
  a SHA-256 over the generator/injection configs, the node range, the
  per-series seed entropy and the shared event windows — so a reader can
  prove the file belongs to the recipe in hand before serving it;
* :func:`read_shard` opens the segments as ``np.memmap`` views:
  :meth:`ShardHandle.series` and :meth:`ShardHandle.block` hand out
  zero-copy :class:`~repro.data.stream.TimeSeries` /
  :class:`~repro.data.block.SampleBlock` views straight off the page cache,
  so a re-streaming pass touches only the pages it reads and never copies
  shard data.

Writes are atomic (``{path}.tmp{pid}`` + ``os.replace``), so concurrent
workers spilling disjoint shards need no coordination and a torn write can
never be mistaken for a shard (:func:`read_shard` rejects bad magic,
truncated segments and short headers with :class:`~repro.errors.StoreError`).
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import struct
from typing import Optional, Sequence

import numpy as np

from repro.data.block import SampleBlock
from repro.data.stream import TimeSeries
from repro.data.topology import NodeId
from repro.errors import DataShapeError, StoreError
from repro.testing.faults import fault_fires, inject_fault

__all__ = [
    "SHARD_SUFFIX",
    "recipe_fingerprint",
    "write_shard",
    "read_shard",
    "ShardHandle",
]

#: File suffix of columnar shard files in a spill directory.
SHARD_SUFFIX = ".slab"

_MAGIC = b"REPROSLAB\x01"
_ALIGN = 64
_DTYPES = {"lengths": "<i8", "values": "<f8", "truth": "<f8"}
#: Largest header a reader accepts. A real header is a few hundred bytes;
#: the cap bounds what a corrupt length field can make the reader allocate.
_MAX_HEADER = 1 << 20


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------------
# Recipe fingerprints
# ---------------------------------------------------------------------------


def _seed_token(seq: np.random.SeedSequence) -> tuple:
    """The replayable identity of a seed sequence (what its draws depend on)."""
    return (seq.entropy, seq.spawn_key, seq.pool_size)


def recipe_fingerprint(source) -> str:
    """SHA-256 identity of a :class:`~repro.data.slab.SlabSource` recipe.

    Two sources share a fingerprint iff they materialise bitwise-identical
    shards: the hash covers both stage configs (frozen dataclasses with
    deterministic ``repr``), the node range and identities, every per-series
    seed's entropy/spawn-key, and the shared event-window mask bytes. The
    spill path (``store_path``) is deliberately excluded — where a shard
    lives says nothing about what it contains.
    """
    h = hashlib.sha256()
    for part in (
        f"gen={source.gen_config!r}",
        f"inj={source.inj_config!r}",
        f"range=({source.start},{source.stop})",
        f"nodes={source.nodes!r}",
        f"gen_seeds={[_seed_token(s) for s in source.gen_seeds]!r}",
        f"inj_seeds={[_seed_token(s) for s in source.inj_seeds]!r}",
        f"events={source.events.shape}:{source.events.dtype.str}",
    ):
        h.update(part.encode())
        h.update(b"\x00")
    h.update(np.ascontiguousarray(source.events).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def write_shard(
    path: str,
    lengths: np.ndarray,
    values: np.ndarray,
    truth: Optional[np.ndarray] = None,
    fingerprint: str = "",
    attributes: Sequence[str] = (),
) -> int:
    """Atomically write one columnar shard file; returns its size in bytes.

    ``lengths`` is the ``(n,)`` per-series step count, ``values`` (and the
    optional ``truth``) the ``(sum(lengths), v)`` series-concatenated cell
    tensor. Segments are stored raw and little-endian, so ``float64`` cells
    — NaN payloads and ``-0.0`` included — round-trip bitwise through
    :func:`read_shard`. The write lands under ``{path}.tmp{pid}`` first and
    is published by ``os.replace``, so readers never observe a torn file.
    """
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DataShapeError(f"values must be (N, v), got shape {values.shape}")
    if int(lengths.sum()) != values.shape[0]:
        raise DataShapeError(
            f"lengths sum to {int(lengths.sum())} rows but values has "
            f"{values.shape[0]}"
        )
    if truth is not None:
        truth = np.ascontiguousarray(truth, dtype=np.float64)
        if truth.shape != values.shape:
            raise DataShapeError(
                f"truth shape {truth.shape} does not match values shape "
                f"{values.shape}"
            )
    segments = {"lengths": lengths, "values": values, "truth": truth}
    header = {
        "version": 1,
        "fingerprint": fingerprint,
        "attributes": list(attributes),
        "segments": [
            {"name": name, "dtype": _DTYPES[name], "shape": list(arr.shape)}
            for name, arr in segments.items()
            if arr is not None
        ],
    }
    raw = json.dumps(header, sort_keys=True).encode()
    tmp = f"{path}.tmp{os.getpid()}"
    inject_fault(
        "slab.enospc", lambda: OSError(errno.ENOSPC, "No space left on device")
    )
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<Q", len(raw)))
            fh.write(raw)
            pos = len(_MAGIC) + 8 + len(raw)
            for spec in header["segments"]:
                arr = segments[spec["name"]]
                pad = _aligned(pos) - pos
                fh.write(b"\x00" * pad)
                data = arr.astype(spec["dtype"], copy=False).tobytes(order="C")
                fh.write(data)
                pos += pad + len(data)
        if fault_fires("slab.torn"):
            # Publish a half-written file: what a crash between write and
            # publish would leave if the rename landed anyway. read_shard
            # must reject it with StoreError and the slab layer regenerate.
            with open(tmp, "r+b") as fh:
                fh.truncate(max(1, pos // 2))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    return pos


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


class ShardHandle:
    """One opened shard: header metadata plus memory-mapped segments.

    ``lengths``/``values``/``truth`` are read-only ``np.memmap`` views (or
    ordinary empty arrays for zero-byte segments — an empty file region
    cannot be mapped). Nothing is read eagerly: pages fault in as consumers
    touch them, and slicing (:meth:`series`, :meth:`block`) produces views,
    so a pass that inspects one column of one series costs exactly those
    pages. A handle with ``path=None`` holds the same segments in memory:
    :func:`~repro.data.slab.open_slab` serves a shard regenerated from its
    recipe that way.
    """

    __slots__ = ("path", "fingerprint", "attributes", "lengths", "values", "truth")

    def __init__(
        self,
        path: Optional[str],
        fingerprint: str,
        attributes: tuple[str, ...],
        lengths: np.ndarray,
        values: np.ndarray,
        truth: Optional[np.ndarray],
    ):
        self.path = path
        self.fingerprint = fingerprint
        self.attributes = attributes
        self.lengths = lengths
        self.values = values
        self.truth = truth

    @property
    def n_series(self) -> int:
        """Number of member series."""
        return int(self.lengths.shape[0])

    @property
    def nbytes(self) -> int:
        """Total payload bytes across segments."""
        return sum(
            arr.nbytes
            for arr in (self.lengths, self.values, self.truth)
            if arr is not None
        )

    @property
    def uniform(self) -> bool:
        """Whether every member series has the same length."""
        return self.n_series == 0 or bool(
            (np.asarray(self.lengths) == int(self.lengths[0])).all()
        )

    def _bounds(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.lengths)])

    def series(self, nodes: Sequence[NodeId]) -> list[TimeSeries]:
        """The member series as zero-copy views into the mapped segments."""
        if len(nodes) != self.n_series:
            raise DataShapeError(
                f"got {len(nodes)} nodes for a {self.n_series}-series shard"
            )
        bounds = self._bounds()
        attributes = self.attributes or None
        return [
            TimeSeries(
                node,
                self.values[bounds[i] : bounds[i + 1]],
                attributes=attributes,
                truth=(
                    None
                    if self.truth is None
                    else self.truth[bounds[i] : bounds[i + 1]]
                ),
            )
            for i, node in enumerate(nodes)
        ]

    def block(self, nodes: Sequence[NodeId]) -> SampleBlock:
        """The whole shard as one zero-copy ``(n, T, v)`` :class:`SampleBlock`.

        Requires a uniform series length (ragged shards cannot stack); the
        reshape is a view of the mapped ``values``/``truth`` segments, so
        building the block moves no data.
        """
        if not self.uniform:
            raise DataShapeError(
                "a zero-copy block needs a uniform series length; this shard "
                "is ragged"
            )
        if len(nodes) != self.n_series:
            raise DataShapeError(
                f"got {len(nodes)} nodes for a {self.n_series}-series shard"
            )
        n = self.n_series
        length = int(self.lengths[0]) if n else 0
        v = int(self.values.shape[1])
        return SampleBlock(
            values=np.asarray(self.values).reshape(n, length, v),
            attributes=self.attributes
            or tuple(f"attr{i + 1}" for i in range(v)),
            nodes=tuple(nodes),
            truth=(
                None
                if self.truth is None
                else np.asarray(self.truth).reshape(n, length, v)
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardHandle(n={self.n_series}, rows={self.values.shape[0]}, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )


def _segment_table(path: str, header) -> list[tuple[str, np.dtype, tuple]]:
    """``(name, dtype, shape)`` per segment of a parsed header, in file order.

    Raises :class:`~repro.errors.StoreError` for a header that does not
    have the shape :func:`write_shard` writes: an object whose
    ``attributes`` is a list of names and whose ``segments`` lists each
    known segment at most once, with that segment's dtype and a shape of
    non-negative integers (1-D ``lengths``, 2-D ``values`` and ``truth``).
    """
    if not isinstance(header, dict):
        raise StoreError(f"{path}: shard header is not an object")
    attributes = header.get("attributes", [])
    if not isinstance(attributes, list) or not all(
        isinstance(a, str) for a in attributes
    ):
        raise StoreError(f"{path}: header attributes must be a list of names")
    segments = header.get("segments", [])
    if not isinstance(segments, list):
        raise StoreError(f"{path}: header segments must be a list")
    table: dict[str, tuple] = {}
    for spec in segments:
        name = spec.get("name") if isinstance(spec, dict) else None
        if not isinstance(name, str) or name not in _DTYPES or name in table:
            raise StoreError(f"{path}: unknown or repeated segment {name!r}")
        if spec.get("dtype") != _DTYPES[name]:
            raise StoreError(
                f"{path}: segment {name!r} has dtype {spec.get('dtype')!r}, "
                f"not {_DTYPES[name]!r}"
            )
        shape = spec.get("shape")
        if (
            not isinstance(shape, list)
            or len(shape) != (1 if name == "lengths" else 2)
            or not all(type(d) is int and d >= 0 for d in shape)
        ):
            raise StoreError(f"{path}: segment {name!r} has bad shape {shape!r}")
        table[name] = tuple(shape)
    return [(name, np.dtype(_DTYPES[name]), shape) for name, shape in table.items()]


def read_shard(path: str) -> ShardHandle:
    """Open one shard file as memory-mapped segment views.

    Raises :class:`~repro.errors.StoreError` for anything that is not a
    complete, well-formed shard file — wrong magic (e.g. a legacy ``.npz``
    left by an older run), a truncated, oversized or malformed header,
    segments extending past the end of the file, or series lengths that do
    not cover the value rows — so callers can treat "unreadable" exactly
    like "stale" and fall back to the seed recipe. The header length is
    checked against the file size before anything is allocated for it.
    """
    try:
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise StoreError(f"{path}: not a columnar shard file")
            packed = fh.read(8)
            if len(packed) != 8:
                raise StoreError(f"{path}: truncated shard header")
            (header_len,) = struct.unpack("<Q", packed)
            if header_len > min(size - len(_MAGIC) - 8, _MAX_HEADER):
                raise StoreError(
                    f"{path}: header length {header_len} exceeds the file "
                    f"({size} bytes) or the {_MAX_HEADER}-byte cap"
                )
            raw = fh.read(header_len)
            if len(raw) != header_len:
                raise StoreError(f"{path}: truncated shard header")
            try:
                header = json.loads(raw)
            except ValueError as exc:
                raise StoreError(f"{path}: corrupt shard header: {exc}") from exc
    except OSError as exc:
        raise StoreError(f"{path}: unreadable shard file: {exc}") from exc

    pos = len(_MAGIC) + 8 + header_len
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape in _segment_table(path, header):
        nbytes = dtype.itemsize * math.prod(shape)
        pos = _aligned(pos)
        if pos + nbytes > size:
            raise StoreError(
                f"{path}: segment {name!r} extends past end of file "
                f"({pos + nbytes} > {size})"
            )
        if nbytes:
            arrays[name] = np.memmap(
                path, dtype=dtype, mode="r", offset=pos, shape=shape, order="C"
            )
        else:
            arrays[name] = np.empty(shape, dtype=dtype)
        pos += nbytes
    for required in ("lengths", "values"):
        if required not in arrays:
            raise StoreError(f"{path}: missing segment {required!r}")
    lengths, values = arrays["lengths"], arrays["values"]
    if (lengths < 0).any() or int(lengths.sum()) != values.shape[0]:
        raise StoreError(
            f"{path}: series lengths do not cover the {values.shape[0]} value rows"
        )
    if "truth" in arrays and arrays["truth"].shape != values.shape:
        raise StoreError(f"{path}: truth is not shaped like values")
    return ShardHandle(
        path=path,
        fingerprint=str(header.get("fingerprint", "")),
        attributes=tuple(header.get("attributes", ())),
        lengths=arrays["lengths"],
        values=arrays["values"],
        truth=arrays.get("truth"),
    )
