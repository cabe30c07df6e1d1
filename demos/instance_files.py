#!/usr/bin/env python3
"""Instance directories on disk: one file per field plus a JSON manifest.

Every field is one matrix in a small binary container ('HSM1' magic,
25-byte header with a dtype tag, column-major payload): complex128 for
the blocks, float64 for the norm weights in ``u.hsm``.  Each field is
stored whole: its row-major bytes are the HSM1 payload, so ``a.hsm`` is
an (n_g, n_atoms * n_l) matrix whose column a * n_l + l is row l of atom
a's A block.  The manifest holds one CRC-32 per field and atom chunk, so
a flipped byte is refused on load.  Round-trips are bit-exact, and
regeneration from the same seed reproduces every file byte for byte.
"""

import struct
import tempfile
from pathlib import Path

from hsgen import Dims, ProblemSpec, generate
from hsgen.storage import StorageError, load_instance, read_matrix, save_instance

spec = ProblemSpec(Dims(2, 3, 5), seed=11, nonhpd_fraction=0.5)
inst = generate(spec)
print(f"a_blocks: shape {inst.a_blocks.shape}, C-contiguous "
      f"{inst.a_blocks.flags.c_contiguous}")

with tempfile.TemporaryDirectory() as tmp:
    outdir = Path(tmp) / "instance"
    manifest = save_instance(inst, outdir, seed=spec.seed,
                             nonhpd_fraction=spec.nonhpd_fraction)
    files = sorted(f.name for f in outdir.iterdir())
    print(f"wrote {len(files)} files: {files}")

    # the header is 25 bytes: magic, version, dtype tag, rows, cols
    raw = (outdir / "a.hsm").read_bytes()
    magic, version, dtype, rows, cols = struct.unpack_from("<4sIBQQ", raw)
    print(f"a.hsm: magic={magic}, version={version}, dtype={dtype}, "
          f"shape=({rows}, {cols}), {len(raw)} bytes = 25 + 16*{rows}*{cols}")

    back = load_instance(outdir)
    same = all(
        getattr(inst, name).tobytes() == getattr(back, name).tobytes()
        for name in ("a_blocks", "b_blocks", "t_aa", "t_ab", "t_bb", "u_norms")
    )
    print(f"round-trip bit-exact: {same}; loaded a_blocks is a view: "
          f"{back.a_blocks.base is not None}")

    # regeneration from the same spec reproduces the bytes exactly
    again = Path(tmp) / "again"
    save_instance(generate(spec), again, seed=spec.seed,
                  nonhpd_fraction=spec.nonhpd_fraction)
    identical = all(
        (outdir / f.name).read_bytes() == f.read_bytes() for f in again.iterdir()
    )
    print(f"regenerated directory byte-identical: {identical}")

    print(f"manifest: format {manifest['format']}, one CRC-32 per atom chunk:")
    for key, crcs in manifest["crc32"].items():
        print(f"  {key}.hsm: {crcs}")
    tag = struct.unpack_from("<4sIBQQ", (outdir / "u.hsm").read_bytes())[2]
    print(f"u.hsm dtype tag: {tag} (float64); the blocks use 1 (complex128)")

    # one flipped payload byte no longer matches its chunk's CRC
    path = outdir / "t_ab.hsm"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    try:
        load_instance(outdir)
    except StorageError as exc:
        print(f"one byte flipped in t_ab.hsm, refused: {exc}")
    else:
        raise SystemExit("a flipped byte was loaded")

    a = read_matrix(outdir / "a.hsm")
    print(f"a.hsm as read, transposed: atom 0's A block is rows 0..2\n{a.T.round(3)}")
    print(f"equals inst.a_blocks[0]: {(a.T[:3] == inst.a_blocks[0]).all()}")
