"""On-disk formats: the 'HSM1' binary container for column-major
complex128 or float64 matrices, and the JSON manifest tying an instance
directory together.

An instance directory holds ``manifest.json`` and ``KEY.hsm`` for each
key of ``_FIELDS``.  Each field is one HSM1 matrix of shape
``(entries per row, n_atoms * n_l)`` whose column-major payload is the
field's row-major bytes, so atoms a0..a1 are one contiguous byte range;
``u.hsm`` is float64, every other field complex128.  The manifest
records one ``zlib.crc32`` per field and ``probgen.atom_chunks`` chunk.
Fields are written straight from their buffers, loaded as views, and
checked against their CRCs chunk by chunk.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
import zlib
from pathlib import Path

import numpy as np

from .matcore import Dims
from .probgen import ProblemInstance, atom_chunks, instance_fields

MAGIC = b"HSM1"
#: magic, version (u32), dtype tag (u8), rows (u64), cols (u64) - 25 bytes
_HEADER = struct.Struct("<4sIBQQ")
_VERSION = 1
#: dtype tag -> element type, stored little-endian
_DTYPES = {1: np.dtype(np.complex128), 2: np.dtype(np.float64)}
_TAGS = {dtype: tag for tag, dtype in _DTYPES.items()}


class StorageError(ValueError):
    """A file is missing, truncated, inconsistent with its manifest, or
    cannot be written."""


def write_matrix(path, m) -> None:
    """Write a 2-D matrix: float64 as tag 2, anything else as complex128."""
    m = np.asarray(m)
    tag = _TAGS.get(m.dtype, 1)
    if m.ndim != 2:
        raise StorageError(f"{path}: only 2-D matrices can be written")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, _VERSION, tag, m.shape[0], m.shape[1]))
        # the transpose of the column-major array is C-contiguous, so its
        # buffer is the column-major payload and is written without a copy
        fh.write(np.asfortranarray(m).astype(_DTYPES[tag].newbyteorder("<"), copy=False).T)


def read_matrix(path) -> np.ndarray:
    # non-blocking, so opening a FIFO cannot hang; the fstat of the open
    # file then refuses anything but a regular file, with no race
    with open(os.open(path, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise StorageError(f"{path}: not a regular file")
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise StorageError(f"{path}: file shorter than the 25-byte header")
        magic, version, tag, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise StorageError(f"{path}: bad magic {magic!r}")
        dtype = _DTYPES.get(tag)
        if version != _VERSION or dtype is None:
            raise StorageError(f"{path}: unsupported version/dtype {version}/{tag}")
        payload = info.st_size - _HEADER.size
        if payload != dtype.itemsize * rows * cols:
            raise StorageError(
                f"{path}: payload is {payload} bytes, expected {dtype.itemsize * rows * cols}"
            )
        flat = np.fromfile(fh, dtype=dtype.newbyteorder("<"), count=rows * cols)
    if flat.size != rows * cols:
        raise StorageError(f"{path}: payload shrank while it was read")
    # no copy on little-endian hosts, where '<' is the native byte order
    return flat.astype(dtype, copy=False).reshape((rows, cols), order="F")


#: file-name stem ``KEY.hsm`` -> ProblemInstance field
_FIELDS = {"a": "a_blocks", "b": "b_blocks", "t_aa": "t_aa", "t_ab": "t_ab",
           "t_bb": "t_bb", "u": "u_norms"}

MANIFEST_NAME = "manifest.json"
#: every file an instance directory is read from
INSTANCE_FILES = (MANIFEST_NAME, *(f"{key}.hsm" for key in _FIELDS))
FORMAT = 3  # 2 named its files in the manifest; 1, with no "format" key, was per atom


def save_instance(p: ProblemInstance, outdir, seed: int = 0,
                  nonhpd_fraction: float = 0.0) -> dict:
    """Check every field's shape, then write one file per field plus the
    manifest with the per-chunk CRCs; returns the manifest."""
    specs = instance_fields(p.dims)
    for field, (shape, _) in specs.items():
        if (got := getattr(getattr(p, field), "shape", None)) != shape:
            raise StorageError(f"cannot save: {field} has shape {got}, expected {shape}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows, chunks, crcs = p.dims.n_atoms * p.dims.n_l, atom_chunks(p.dims), {}
    for key, field in _FIELDS.items():
        # the bytes written, so the CRCs are those of the file's payload
        x = np.ascontiguousarray(getattr(p, field), dtype=specs[field][1])
        write_matrix(outdir / f"{key}.hsm", x.reshape(rows, -1).T)
        crcs[key] = [zlib.crc32(x[a0:a1]) for a0, a1 in chunks]
    manifest = {
        "format": FORMAT,
        "dims": {"n_atoms": p.dims.n_atoms, "n_l": p.dims.n_l, "n_g": p.dims.n_g},
        "seed": seed,
        "nonhpd_fraction": nonhpd_fraction,
        "crc32": crcs,
    }
    (outdir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def load_instance(indir) -> ProblemInstance:
    """Read an instance directory back as views of the buffers read,
    checking each field's dtype and shape against the manifest and its
    bytes against the per-chunk CRCs."""
    indir = Path(indir)
    mpath = indir / MANIFEST_NAME
    if not mpath.is_file():
        raise StorageError(f"{mpath}: manifest not found")
    try:
        manifest = json.loads(mpath.read_text())
        dims = Dims(**manifest["dims"])
        version = manifest.get("format")
        crcs = manifest.get("crc32")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:  # RecursionError: deeply nested JSON
        raise StorageError(f"{mpath}: malformed manifest ({exc})") from exc
    if version != FORMAT:
        raise StorageError(f"{mpath}: instance format {version!r} is not {FORMAT}; "
                           f"regenerate the instance with 'hsgen generate'")

    specs, rows = instance_fields(dims), dims.n_atoms * dims.n_l
    fields, chunks = {}, None
    for key, field in _FIELDS.items():
        path = indir / f"{key}.hsm"
        try:
            x = read_matrix(path)
        except OSError as exc:  # missing, unreadable, ...
            raise StorageError(f"{path}: cannot read ({exc.strerror})") from exc
        shape, dtype = specs[field]
        want = (math.prod(shape[2:]), rows)
        if x.dtype != dtype or x.shape != want:
            raise StorageError(f"{path}: {x.dtype} {x.shape} does not match "
                               f"manifest {dtype} {want}")
        fields[field] = x.T.reshape(shape)  # x.T is C-contiguous: a view
        # only now, with the dims bounded by a file's size, is the grid cut
        chunks = chunks or atom_chunks(dims)
        listed = crcs.get(key) if isinstance(crcs, dict) else None
        if not isinstance(listed, list) or len(listed) != len(chunks):
            raise StorageError(f"{mpath}: malformed manifest (crc32 must list one "
                               f"checksum per atom chunk for {key!r})")
        for crc, (a0, a1) in zip(listed, chunks):
            if crc != zlib.crc32(fields[field][a0:a1]):
                raise StorageError(f"{path}: checksum mismatch in atoms {a0}..{a1 - 1}")
    return ProblemInstance(dims, **fields)
