"""On-disk formats: the 'HSM1' binary container for complex column-major
matrices, raw float64 vectors, and the JSON manifest tying an instance
directory together.

An instance directory holds ``{key}_{atom:04d}.hsm`` (``.f64`` for ``u``)
per manifest key of ``_FIELDS``; ``save_instance`` and ``load_instance``
are each one loop over that table, with shapes from
``probgen.instance_shapes``.
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


#: manifest key, which is also the file-name prefix -> ProblemInstance
#: field; ``u`` holds raw float64 vectors, every other key HSM1 matrices
_FIELDS = {"a": "a_blocks", "b": "b_blocks", "t_aa": "t_aa", "t_ab": "t_ab",
           "t_bb": "t_bb", "u": "u_norms"}

MANIFEST_NAME = "manifest.json"


def save_instance(p: ProblemInstance, outdir, seed: int = 0,
                  nonhpd_fraction: float = 0.0) -> dict:
    """Write per-atom block files plus the manifest; returns the manifest."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, list[str]] = {key: [] for key in _FIELDS}
    for key, field in _FIELDS.items():
        vector = key == "u"
        for a, x in enumerate(getattr(p, field)):
            fname = f"{key}_{a + 1:04d}" + (".f64" if vector else ".hsm")
            (write_vector if vector else write_matrix)(outdir / fname, x)
            files[key].append(fname)
    manifest = {
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
            or Path(fname).name != fname):
        raise StorageError(
            f"{mpath}: file name {fname!r} escapes the instance directory"
        )
    return indir / fname


def load_instance(indir) -> ProblemInstance:
    """Read an instance directory back, checking shapes against the manifest."""
    indir = Path(indir)
    mpath = indir / MANIFEST_NAME
    if not mpath.is_file():
        raise StorageError(f"{mpath}: manifest not found")
    try:
        manifest = json.loads(mpath.read_text())
        dims = Dims(**manifest["dims"])
        files = manifest["files"]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:  # RecursionError: deeply nested JSON
        raise StorageError(f"{mpath}: malformed manifest ({exc})") from exc
    if not isinstance(files, dict) or not all(isinstance(v, list) for v in files.values()):
        raise StorageError(f"{mpath}: malformed manifest (files must map fields to lists)")

    inst = ProblemInstance(dims)
    shapes = instance_shapes(dims)
    for key, field in _FIELDS.items():
        names = files.get(key, [])
        if len(names) != dims.n_atoms:
            raise StorageError(
                f"{mpath}: {len(names)} {key} files listed, expected {dims.n_atoms}"
            )
        for fname in names:
            path = _member(indir, mpath, fname)
            if not path.is_file():
                raise StorageError(f"{path}: referenced by manifest but missing")
            x = read_vector(path) if key == "u" else read_matrix(path)
            if x.shape != shapes[field]:
                raise StorageError(
                    f"{path}: shape {x.shape} does not match manifest {shapes[field]}"
                )
            getattr(inst, field).append(x)
    return inst
