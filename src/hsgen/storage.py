"""On-disk formats: the 'HSM1' binary container for complex column-major
matrices, raw float64 vectors, and the JSON manifest tying an instance
directory together.

An instance directory holds ``manifest.json`` and one file per key of
``_FIELDS``: ``u.f64`` raw, every other field one HSM1 matrix of shape
``(last dim, n_atoms * n_l)`` whose column-major payload is the field's
row-major bytes, so atoms a0..a1 are one contiguous byte range.  Fields
are written straight from their buffers and loaded as views.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .matcore import Dims
from .probgen import ProblemInstance, instance_shapes

MAGIC = b"HSM1"
#: magic, version (u32), dtype tag (u8), rows (u64), cols (u64) - 25 bytes
_HEADER = struct.Struct("<4sIBQQ")
_VERSION = 1
_DTYPE_COMPLEX128 = 1


class StorageError(ValueError):
    """A file is missing, truncated, inconsistent with its manifest, or
    cannot be written."""


def write_matrix(path, m) -> None:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise StorageError(f"{path}: only 2-D matrices can be written")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, _VERSION, _DTYPE_COMPLEX128, m.shape[0], m.shape[1]))
        # the transpose of the column-major array is C-contiguous, so its
        # buffer is the column-major payload and is written without a copy
        fh.write(np.asfortranarray(m).astype("<c16", copy=False).T)


def read_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise StorageError(f"{path}: file shorter than the 25-byte header")
        magic, version, dtype, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise StorageError(f"{path}: bad magic {magic!r}")
        if version != _VERSION or dtype != _DTYPE_COMPLEX128:
            raise StorageError(f"{path}: unsupported version/dtype {version}/{dtype}")
        payload = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload != 16 * rows * cols:
            raise StorageError(
                f"{path}: payload is {payload} bytes, expected {16 * rows * cols}"
            )
        flat = np.fromfile(fh, dtype="<c16", count=rows * cols)
    if flat.size != rows * cols:
        raise StorageError(f"{path}: payload shrank while it was read")
    # no copy on little-endian hosts, where '<c16' is the native complex128
    return flat.astype(np.complex128, copy=False).reshape((rows, cols), order="F")


def write_vector(path, v) -> None:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise StorageError(f"{path}: only 1-D vectors can be written")
    Path(path).write_bytes(v.astype("<f8", copy=False).tobytes())


def read_vector(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) % 8:
        raise StorageError(f"{path}: length {len(data)} is not a multiple of 8")
    return np.frombuffer(data, dtype="<f8").astype(np.float64)


#: manifest key, which is also the file-name stem -> ProblemInstance field
_FIELDS = {"a": "a_blocks", "b": "b_blocks", "t_aa": "t_aa", "t_ab": "t_ab",
           "t_bb": "t_bb", "u": "u_norms"}

MANIFEST_NAME = "manifest.json"
FORMAT = 2  # 1, with no "format" key, was one file per atom and field


def save_instance(p: ProblemInstance, outdir, seed: int = 0,
                  nonhpd_fraction: float = 0.0) -> dict:
    """Check every field's shape, then write one file per field plus the
    manifest; returns the manifest."""
    for field, shape in instance_shapes(p.dims).items():
        if (got := getattr(getattr(p, field), "shape", None)) != shape:
            raise StorageError(f"cannot save: {field} has shape {got}, expected {shape}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = {key: key + (".f64" if key == "u" else ".hsm") for key in _FIELDS}
    for key, field in _FIELDS.items():
        x = getattr(p, field)
        if key == "u":
            write_vector(outdir / files[key], x.reshape(-1))
        else:
            write_matrix(outdir / files[key], x.reshape(-1, x.shape[-1]).T)
    manifest = {
        "format": FORMAT,
        "dims": {"n_atoms": p.dims.n_atoms, "n_l": p.dims.n_l, "n_g": p.dims.n_g},
        "seed": seed,
        "nonhpd_fraction": nonhpd_fraction,
        "files": files,
    }
    (outdir / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def _member(indir: Path, mpath: Path, fname) -> Path:
    """indir / fname for a manifest entry that names a file inside indir."""
    if (not isinstance(fname, str) or fname in ("", ".", "..")
            or Path(fname).name != fname or not fname.isprintable()):
        raise StorageError(f"{mpath}: file name {fname!r} is not printable or "
                           f"escapes the instance directory")
    return indir / fname


def load_instance(indir) -> ProblemInstance:
    """Read an instance directory back as views of the buffers read,
    checking shapes against the manifest."""
    indir = Path(indir)
    mpath = indir / MANIFEST_NAME
    if not mpath.is_file():
        raise StorageError(f"{mpath}: manifest not found")
    try:
        manifest = json.loads(mpath.read_text())
        dims = Dims(**manifest["dims"])
        version = manifest.get("format")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:  # RecursionError: deeply nested JSON
        raise StorageError(f"{mpath}: malformed manifest ({exc})") from exc
    if version != FORMAT:
        raise StorageError(f"{mpath}: instance format {version!r} is not {FORMAT}; "
                           f"regenerate the instance with 'hsgen generate'")
    files = manifest.get("files")
    if not isinstance(files, dict) or not all(isinstance(files.get(k), str) for k in _FIELDS):
        raise StorageError(f"{mpath}: malformed manifest (files must name one file per field)")
    if len({files[k] for k in _FIELDS}) != len(_FIELDS):
        raise StorageError(f"{mpath}: files names one file for two fields")

    shapes, rows = instance_shapes(dims), dims.n_atoms * dims.n_l
    fields = {}
    for key, field in _FIELDS.items():
        path = _member(indir, mpath, files[key])
        try:
            x = read_vector(path) if key == "u" else read_matrix(path)
        except OSError as exc:  # missing, a directory, a name too long, ...
            raise StorageError(f"{path}: cannot read ({exc.strerror})") from exc
        shape = shapes[field]
        want = (rows,) if key == "u" else (shape[-1], rows)
        if x.shape != want:
            raise StorageError(f"{path}: shape {x.shape} does not match manifest {want}")
        fields[field] = x.T.reshape(shape)  # x.T is C-contiguous: a view
    return ProblemInstance(dims, **fields)
