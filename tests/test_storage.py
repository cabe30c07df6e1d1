import contextlib
import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hsgen import cli, probgen
from hsgen.matcore import Dims
from hsgen.probgen import ProblemSpec, generate
from hsgen.storage import StorageError, load_instance, read_matrix, save_instance, write_matrix

from oracles import random_complex


def test_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    for shape in [(1, 1), (3, 5), (7, 2)]:
        m = random_complex(rng, *shape)
        path = tmp_path / "m.hsm"
        write_matrix(path, m)
        back = read_matrix(path)
        assert back.shape == m.shape
        assert back.tobytes() == m.tobytes()
        assert back.flags.f_contiguous


def test_matrix_header_layout(tmp_path):
    m = np.array([[1 + 2j, 3 + 4j]], order="F")
    path = tmp_path / "m.hsm"
    write_matrix(path, m)
    data = path.read_bytes()
    assert len(data) == 25 + 16 * 2
    magic, version, dtype, rows, cols = struct.unpack_from("<4sIBQQ", data)
    assert magic == b"HSM1"
    assert (version, dtype, rows, cols) == (1, 1, 1, 2)
    # column-major payload: (re, im) f64 pairs, little endian
    vals = struct.unpack_from("<4d", data, 25)
    assert vals == (1.0, 2.0, 3.0, 4.0)


def test_matrix_read_errors(tmp_path):
    short = tmp_path / "short.hsm"
    short.write_bytes(b"HSM1\x01")
    with pytest.raises(StorageError, match="short.hsm"):
        read_matrix(short)

    bad_magic = tmp_path / "bad.hsm"
    bad_magic.write_bytes(b"XXXX" + b"\x00" * 30)
    with pytest.raises(StorageError, match="magic"):
        read_matrix(bad_magic)

    truncated = tmp_path / "trunc.hsm"
    write_matrix(truncated, np.eye(3, dtype=complex))
    data = truncated.read_bytes()
    truncated.write_bytes(data[:-8])
    with pytest.raises(StorageError, match="payload"):
        read_matrix(truncated)


def test_vector_roundtrip(tmp_path):
    # a float64 matrix is stored as itself, dtype tag 2, 8 bytes a value
    v = np.random.default_rng(2).uniform(0.5, 1.5, (1, 7))
    path = tmp_path / "u.hsm"
    write_matrix(path, v)
    data = path.read_bytes()
    assert len(data) == 25 + 8 * 7
    assert struct.unpack_from("<4sIBQQ", data) == (b"HSM1", 1, 2, 1, 7)
    back = read_matrix(path)
    assert back.dtype == np.float64 and back.shape == (1, 7)
    assert back.tobytes() == v.tobytes()
    path.write_bytes(data[:-3])
    with pytest.raises(StorageError, match="payload"):
        read_matrix(path)


def test_instance_roundtrip(tmp_path):
    p = generate(ProblemSpec(Dims(3, 2, 4), seed=5, nonhpd_fraction=0.5))
    manifest = save_instance(p, tmp_path, seed=5, nonhpd_fraction=0.5)
    assert manifest["dims"] == {"n_atoms": 3, "n_l": 2, "n_g": 4}
    assert manifest["seed"] == 5
    assert manifest["format"] == 3
    assert "files" not in manifest
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "a.hsm", "b.hsm", "manifest.json", "t_aa.hsm", "t_ab.hsm", "t_bb.hsm", "u.hsm"]
    # one CRC per field and atom chunk: here one chunk
    assert sorted(manifest["crc32"]) == ["a", "b", "t_aa", "t_ab", "t_bb", "u"]
    assert all(len(crcs) == 1 for crcs in manifest["crc32"].values())
    back = load_instance(tmp_path)
    for name in ("a_blocks", "b_blocks", "t_aa", "t_ab", "t_bb", "u_norms"):
        for x, y in zip(getattr(p, name), getattr(back, name)):
            assert x.tobytes() == y.tobytes()


def test_load_missing_manifest(tmp_path):
    with pytest.raises(StorageError, match="manifest"):
        load_instance(tmp_path)


def test_load_detects_missing_file(tmp_path):
    p = generate(ProblemSpec(Dims(2, 2, 3), seed=6))
    save_instance(p, tmp_path)
    (tmp_path / "t_aa.hsm").unlink()
    with pytest.raises(StorageError, match="t_aa.hsm"):
        load_instance(tmp_path)


def test_load_detects_dimension_mismatch(tmp_path):
    p = generate(ProblemSpec(Dims(2, 2, 3), seed=7))
    save_instance(p, tmp_path)
    write_matrix(tmp_path / "a.hsm", np.zeros((5, 5), dtype=complex))
    with pytest.raises(StorageError, match="a.hsm"):
        load_instance(tmp_path)


def test_load_detects_malformed_manifest(tmp_path):
    p = generate(ProblemSpec(Dims(2, 2, 3), seed=8))
    save_instance(p, tmp_path)
    mpath = tmp_path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    del manifest["dims"]
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match="malformed"):
        load_instance(mpath.parent)


def test_load_detects_wrong_length_u_vector(tmp_path):
    p = generate(ProblemSpec(Dims(2, 3, 4), seed=7))
    save_instance(p, tmp_path)
    write_matrix(tmp_path / "u.hsm", np.ones((1, 4)))
    with pytest.raises(StorageError, match="u.hsm"):
        load_instance(tmp_path)
    # the right length as complex128 is the wrong dtype
    write_matrix(tmp_path / "u.hsm", np.ones((1, 6), dtype=complex))
    with pytest.raises(StorageError, match="u.hsm.*float64"):
        load_instance(tmp_path)


@pytest.mark.parametrize("text", ['{"dims": {"n_atoms": 1e400, "n_l": 1, "n_g": 1}}',
                                  '{"dims": {"n_atoms": NaN, "n_l": 1, "n_g": 1}}',
                                  '{"dims": {"n_atoms": true, "n_l": 1, "n_g": 1}}',
                                  "[" * 200_000],
                         ids=["infinite-dims", "nan-dims", "bool-dims", "deep-nesting"])
def test_load_rejects_hostile_manifest_text(tmp_path, text):
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(StorageError, match="malformed"):
        load_instance(tmp_path)


@pytest.mark.parametrize("pair", [("a", "b"), ("t_aa", "t_ab")], ids=["a-b", "t_aa-t_ab"])
def test_load_rejects_swapped_field_files(tmp_path, capsys, pair):
    # each pair has one shape, so no shape check could see the swap
    save_instance(generate(ProblemSpec(Dims(2, 3, 4), seed=10)), tmp_path)
    one, two = (tmp_path / f"{key}.hsm" for key in pair)
    data_one, data_two = one.read_bytes(), two.read_bytes()
    one.write_bytes(data_two)
    two.write_bytes(data_one)
    with pytest.raises(StorageError, match="checksum"):
        load_instance(tmp_path)
    assert cli.main(["run", "--in", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_checksum_error_names_the_file_and_the_atom_range(tmp_path, monkeypatch):
    dims = Dims(5, 2, 3)
    monkeypatch.setattr(probgen, "_CHUNK_BYTES", 2 * 16 * dims.n_l * dims.n_g)
    manifest = save_instance(generate(ProblemSpec(dims, seed=11)), tmp_path)
    assert [len(crcs) for crcs in manifest["crc32"].values()] == [3] * 6
    raw = bytearray((tmp_path / "b.hsm").read_bytes())
    raw[25 + 16 * 2 * 3 * 2] ^= 1  # the first byte of atom 2's rows
    (tmp_path / "b.hsm").write_bytes(bytes(raw))
    with pytest.raises(StorageError, match=r"b\.hsm: checksum mismatch in atoms 2\.\.3"):
        load_instance(tmp_path)


@pytest.mark.parametrize("crcs", ["missing", "not-a-list", "one-short", "one-long"])
def test_load_rejects_missing_or_malformed_crc_lists(tmp_path, crcs):
    save_instance(generate(ProblemSpec(Dims(2, 2, 3), seed=12)), tmp_path)
    mpath = tmp_path / "manifest.json"
    manifest = json.loads(mpath.read_text())
    listed = manifest["crc32"]["t_bb"]
    if crcs == "missing":
        del manifest["crc32"]["t_bb"]
    else:
        manifest["crc32"]["t_bb"] = {"not-a-list": listed[0], "one-short": listed[:-1],
                                     "one-long": listed * 2}[crcs]
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match="malformed manifest.*crc32"):
        load_instance(tmp_path)


def test_large_matrix_reads_without_payload_copies(tmp_path):
    rng = np.random.default_rng(3)
    m = random_complex(rng, 512, 512)  # 4 MiB payload
    path = tmp_path / "big.hsm"
    write_matrix(path, m)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back.tobytes(order="F") == m.tobytes(order="F")
    assert back.flags.f_contiguous
    assert peak < 1.5 * m.nbytes


def test_large_matrix_writes_without_payload_copies(tmp_path):
    rng = np.random.default_rng(4)
    m = random_complex(rng, 512, 512)  # 4 MiB payload
    path = tmp_path / "big.hsm"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        write_matrix(path, m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * m.nbytes
    assert path.read_bytes()[25:] == m.tobytes(order="F")
    assert read_matrix(path).tobytes() == m.tobytes()


@pytest.mark.parametrize("field", ["a_blocks", "b_blocks", "t_aa", "t_ab", "t_bb", "u_norms"])
def test_save_rejects_a_field_one_atom_short_before_writing(tmp_path, field):
    p = generate(ProblemSpec(Dims(3, 2, 4), seed=13))
    short = dataclasses.replace(p, **{field: getattr(p, field)[:-1]})
    out = tmp_path / "inst"
    with pytest.raises(StorageError, match=field):
        save_instance(short, out)
    assert not out.exists()


@pytest.mark.parametrize("version", [None, 1, "2"])
def test_load_rejects_an_old_or_unknown_format(tmp_path, version):
    # the per-atom layout: one file per atom per field, no "format" key
    manifest = {
        "dims": {"n_atoms": 2, "n_l": 2, "n_g": 3},
        "seed": 0,
        "nonhpd_fraction": 0.0,
        "files": {key: [f"{key}_{a:04d}.{'f64' if key == 'u' else 'hsm'}" for a in (1, 2)]
                  for key in ("a", "b", "t_aa", "t_ab", "t_bb", "u")},
    }
    if version is not None:
        manifest["format"] = version
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match="regenerate"):
        load_instance(tmp_path)


def test_load_rejects_a_format_2_instance(tmp_path, capsys):
    # format 2: one file per field, named in the manifest, u as raw float64
    files = {key: f"{key}.hsm" for key in ("a", "b", "t_aa", "t_ab", "t_bb")}
    manifest = {"format": 2, "dims": {"n_atoms": 1, "n_l": 1, "n_g": 1}, "seed": 0,
                "nonhpd_fraction": 0.0, "files": {**files, "u": "u.f64"}}
    for name in files.values():
        write_matrix(tmp_path / name, np.ones((1, 1), dtype=complex))
    (tmp_path / "u.f64").write_bytes(np.ones(1).tobytes())
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match="format 2 is not 3.*regenerate"):
        load_instance(tmp_path)
    assert cli.main(["run", "--in", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "regenerate" in err


def test_load_checks_checksums_without_copying_fields(tmp_path):
    p = generate(ProblemSpec(Dims(2, 8, 2048), seed=16))  # 1 MiB of A and B rows
    save_instance(p, tmp_path)
    payload = sum(getattr(p, f).nbytes for f in ("a_blocks", "b_blocks", "t_aa", "t_ab",
                                                 "t_bb", "u_norms"))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        back = load_instance(tmp_path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back.a_blocks.tobytes() == p.a_blocks.tobytes()
    assert peak < 1.1 * payload


def test_loaded_fields_are_c_contiguous_views(tmp_path):
    p = generate(ProblemSpec(Dims(3, 2, 4), seed=14))
    save_instance(p, tmp_path)
    back = load_instance(tmp_path)
    for name in ("a_blocks", "b_blocks", "t_aa", "t_ab", "t_bb"):
        x = getattr(back, name)
        assert x.flags.c_contiguous and x.base is not None
        assert x.tobytes() == getattr(p, name).tobytes()


# ---------------------------------------------------------------------------
# property tests: a damaged instance directory ends in StorageError

_FIELD_FILES = ["a.hsm", "b.hsm", "t_aa.hsm", "t_ab.hsm", "t_bb.hsm", "u.hsm"]
_FUZZ = settings(max_examples=100, deadline=None, database=None, derandomize=True)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """An instance directory and the original bytes of each of its files."""
    d = tmp_path_factory.mktemp("fuzz")
    save_instance(generate(ProblemSpec(Dims(2, 3, 4), seed=15)), d)
    return d, {f.name: f.read_bytes() for f in d.iterdir()}


@contextlib.contextmanager
def _replaced(path, data: bytes):
    original = path.read_bytes()
    path.write_bytes(data)
    try:
        yield
    finally:
        path.write_bytes(original)


@_FUZZ
@given(name=st.sampled_from(_FIELD_FILES), data=st.data())
def test_truncated_field_file_is_storage_error(saved, name, data):
    d, files = saved
    size = data.draw(st.integers(0, len(files[name]) - 1), label="size")
    with _replaced(d / name, files[name][:size]), pytest.raises(StorageError):
        load_instance(d)


@_FUZZ
@given(name=st.sampled_from(_FIELD_FILES), pos=st.integers(0, 24),
       value=st.integers(0, 255))
def test_overwritten_header_byte_is_storage_error(saved, name, pos, value):
    d, files = saved
    raw = bytearray(files[name])
    assume(raw[pos] != value)
    raw[pos] = value
    with _replaced(d / name, bytes(raw)), pytest.raises(StorageError):
        load_instance(d)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(_FIELD_FILES), data=st.data())
def test_flipped_payload_bit_is_storage_error(saved, name, data):
    d, files = saved
    raw = bytearray(files[name])
    pos = data.draw(st.integers(25, len(raw) - 1), label="pos")
    raw[pos] ^= 1 << data.draw(st.integers(0, 7), label="bit")
    with _replaced(d / name, bytes(raw)), pytest.raises(StorageError, match="checksum"):
        load_instance(d)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@_FUZZ
@given(data=st.data(), value=_JSON)
def test_manifest_value_replaced_by_any_json_is_storage_error(saved, data, value):
    d, files = saved
    manifest = json.loads(files["manifest.json"])
    paths = [(k,) for k in manifest] + [
        (k, sub) for k, v in manifest.items() if isinstance(v, dict) for sub in v]
    path = data.draw(st.sampled_from(sorted(paths)), label="path")
    parent = manifest
    for k in path[:-1]:
        parent = parent[k]
    assume(parent[path[-1]] != value)
    parent[path[-1]] = value
    with _replaced(d / "manifest.json", json.dumps(manifest).encode()):
        if path[0] in ("seed", "nonhpd_fraction"):  # recorded, never read
            assert load_instance(d).a_blocks.shape == (2, 3, 4)
        else:
            with pytest.raises(StorageError):
                load_instance(d)
