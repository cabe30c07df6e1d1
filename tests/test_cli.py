import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hsgen import cli
from hsgen.storage import StorageError, load_instance, read_matrix, save_instance, write_matrix
from hsgen.probgen import ProblemSpec, generate
from hsgen.matcore import Dims, InputError, InvariantError


def run_cli(*args):
    try:
        return cli.main(list(args))
    except SystemExit as exc:  # argparse usage failures
        return int(exc.code)


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.is_file()}


# ---------------------------------------------------------------------------
# generate


def test_generate_explicit_dims(tmp_path, capsys):
    out = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "3", "--ng", "4",
                   "--seed", "1", "--out", str(out)) == 0
    assert "n_atoms=2 n_l=3 n_g=4" in capsys.readouterr().out
    assert (out / "manifest.json").is_file()
    # one file per field: a's HSM1 matrix is (n_g, n_atoms * n_l)
    assert read_matrix(out / "a.hsm").shape == (4, 6)
    assert len(list(out.iterdir())) == 7


def test_generate_preset_dims(tmp_path, capsys):
    # writing a full preset is large; check the manifest dims come from the table
    out = tmp_path / "nacl"
    code = run_cli("generate", "--preset", "NaCl", "--kmax", "2.5", "--seed", "7",
                   "--na", "1", "--nl", "1", "--ng", "1", "--out", str(out))
    assert code == 2  # both preset and explicit dims given


def test_generate_deterministic_directories(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    args = ["generate", "--na", "2", "--nl", "3", "--ng", "4", "--seed", "9",
            "--nonhpd-frac", "0.5"]
    assert run_cli(*args, "--out", str(d1)) == 0
    assert run_cli(*args, "--out", str(d2)) == 0
    assert _dir_bytes(d1) == _dir_bytes(d2)


def test_generate_usage_errors(tmp_path, capsys):
    assert run_cli("generate", "--out", str(tmp_path / "x")) == 2
    assert run_cli("generate", "--na", "2", "--nl", "3", "--out", str(tmp_path / "y")) == 2
    assert run_cli("generate", "--preset", "KCl", "--kmax", "4.0",
                   "--out", str(tmp_path / "z")) == 2
    err = capsys.readouterr().err
    assert "NaCl" in err and "AuAg" in err


def test_generate_unwritable_dir(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert run_cli("generate", "--na", "1", "--nl", "1", "--ng", "1",
                   "--out", str(blocker)) == 1


def test_generate_into_a_non_empty_directory_writes_nothing(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--out", str(inst)) == 0
    assert run_cli("run", "--in", str(inst)) == 0
    before = _dir_bytes(inst)
    capsys.readouterr()
    assert run_cli("generate", "--na", "1", "--nl", "2", "--ng", "3", "--out", str(inst)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1
    assert _dir_bytes(inst) == before


def test_generate_counts_the_bytes_it_wrote(tmp_path, capsys):
    inst = tmp_path / "inst"
    inst.mkdir()  # an existing empty directory is accepted
    assert run_cli("generate", "--na", "3", "--nl", "2", "--ng", "5", "--out", str(inst)) == 0
    files = _dir_bytes(inst)
    assert len(files) == 7
    total = sum(len(data) for data in files.values())
    assert f"({total} bytes)" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# run


def test_run_writes_outputs_and_report(tmp_path):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "3", "--ng", "8", "--seed", "3",
                   "--nonhpd-frac", "0.5", "--out", str(inst)) == 0
    report = tmp_path / "rep.json"
    assert run_cli("run", "--in", str(inst), "--workers", "2", "--tile", "32",
                   "--report", str(report)) == 0
    assert (inst / "H.hsm").is_file() and (inst / "S.hsm").is_file()
    rep = json.loads(report.read_text())
    assert rep["policy"] == {"workers": 2, "tile": 32, "engine": "native"}
    assert rep["split"]["hpd"] + rep["split"]["nonhpd"] == 2
    assert rep["total_flops"] > 0
    sections = {s["section"] for s in rep["sections"]}
    assert {"Loop 1", "S1", "S2", "H1"} <= sections


def test_run_worker_invariance_bytes(tmp_path):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "3", "--ng", "70", "--seed", "4",
                   "--out", str(inst)) == 0
    results = {}
    for workers in ("1", "4"):
        for engine in ("native", "numpy"):
            assert run_cli("run", "--in", str(inst), "--workers", workers,
                           "--tile", "32", "--engine", engine) == 0
            assert json.loads((inst / "report.json").read_text())["policy"]["engine"] == engine
            results[workers, engine] = ((inst / "H.hsm").read_bytes(),
                                        (inst / "S.hsm").read_bytes())
    assert len(set(results.values())) == 1


def test_run_scalar_instance_closed_form(tmp_path):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "1", "--nl", "1", "--ng", "1", "--seed", "5",
                   "--out", str(inst)) == 0
    assert run_cli("run", "--in", str(inst)) == 0
    p = load_instance(inst)
    t = p.t_aa[0][0, 0].real
    u = p.t_ab[0][0, 0]
    v = p.t_bb[0][0, 0].real
    w = p.u_norms[0][0]
    a = p.a_blocks[0][0, 0]
    b = p.b_blocks[0][0, 0]
    h = read_matrix(inst / "H.hsm")[0, 0]
    s = read_matrix(inst / "S.hsm")[0, 0]
    expected_h = (np.conj(a) * t * a + 2 * (u * np.conj(a) * b).real + np.conj(b) * v * b).real
    expected_s = abs(a) ** 2 + w**2 * abs(b) ** 2
    assert h.real == pytest.approx(expected_h, rel=1e-12)
    assert s.real == pytest.approx(expected_s, rel=1e-12)


def test_run_missing_instance(tmp_path, capsys):
    assert run_cli("run", "--in", str(tmp_path / "nope")) == 1
    assert "manifest" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("manifest", ['{"dims": {"n_atoms": 1e400, "n_l": 1, "n_g": 1}}',
                                      "[" * 200_000], ids=["infinite-dims", "deep-nesting"])
def test_hostile_manifest_is_failure_without_traceback(tmp_path, capsys, command, manifest):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "1", "--nl", "1", "--ng", "1", "--out", str(inst)) == 0
    capsys.readouterr()
    (inst / "manifest.json").write_text(manifest)
    assert run_cli(command, "--in", str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "malformed manifest" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["run", "verify"])
def test_old_format_instance_is_failure_without_traceback(tmp_path, capsys, command):
    # the per-atom layout: one file per atom per field, no "format" key
    manifest = {
        "dims": {"n_atoms": 1, "n_l": 1, "n_g": 1},
        "seed": 0,
        "nonhpd_fraction": 0.0,
        "files": {"a": ["a_0001.hsm"], "b": ["b_0001.hsm"], "t_aa": ["t_aa_0001.hsm"],
                  "t_ab": ["t_ab_0001.hsm"], "t_bb": ["t_bb_0001.hsm"], "u": ["u_0001.f64"]},
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli(command, "--in", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "regenerate" in err
    assert len(err.splitlines()) == 1


def _save_non_hermitian(inst, seed, atom, entry, delta):
    """Save an instance whose AA block of ``atom`` is not Hermitian; its
    files and checksums agree, so only the build can refuse it."""
    p = generate(ProblemSpec(Dims(2, 2, 3), seed=seed))
    p.t_aa[atom][entry] += delta
    save_instance(p, inst, seed=seed)


def test_run_invariant_violation(tmp_path):
    inst = tmp_path / "inst"
    _save_non_hermitian(inst, 6, 0, (1, 0), 3.0)
    assert run_cli("run", "--in", str(inst)) == 3


@pytest.mark.parametrize("command", ["run", "verify"])
def test_hand_edited_field_file_is_failure_without_traceback(tmp_path, capsys, command):
    # a block rewritten behind the manifest's back fails its checksum
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "6",
                   "--out", str(inst)) == 0
    capsys.readouterr()
    bad = read_matrix(inst / "t_aa.hsm")
    bad[0, 1] += 3.0  # atom 0, row 1, column 0
    write_matrix(inst / "t_aa.hsm", bad)
    assert run_cli(command, "--in", str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_aa.hsm: checksum mismatch" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_run_missing_report_directory_fails_before_writing(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "2",
                   "--out", str(inst)) == 0
    report = tmp_path / "no" / "such" / "dir" / "r.json"
    assert run_cli("run", "--in", str(inst), "--report", str(report)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (inst / "H.hsm").exists() and not (inst / "S.hsm").exists()


@pytest.mark.parametrize("name", ["H.hsm", "S.hsm", "manifest.json", "a.hsm", "b.hsm",
                                  "t_aa.hsm", "t_ab.hsm", "t_bb.hsm", "u.hsm"])
def test_run_report_onto_an_instance_file_is_usage_error(tmp_path, capsys, name):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "2",
                   "--out", str(inst)) == 0
    assert run_cli("run", "--in", str(inst)) == 0
    earlier = _tree_bytes(tmp_path)
    capsys.readouterr()
    # spelled another way, it is still the same file
    report = inst / ".." / "inst" / name
    assert run_cli("run", "--in", str(inst), "--report", str(report)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --report") and name in err and err.count("\n") == 1
    assert _tree_bytes(tmp_path) == earlier  # nothing written, no temporary


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_run_on_a_fifo_field_file_is_failure_not_a_hang(tmp_path):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "2",
                   "--out", str(inst)) == 0
    (inst / "b.hsm").unlink()
    os.mkfifo(inst / "b.hsm")  # no writer: a blocking open would wait forever
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "hsgen.cli", "run", "--in", str(inst)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    err = done.stderr
    assert err.startswith("error:") and err.count("\n") == 1 and "b.hsm" in err
    assert not any((inst / f).exists() for f in ("H.hsm", "S.hsm", "report.json"))


def test_run_unwritable_output_is_failure(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "2",
                   "--out", str(inst)) == 0
    (inst / "S.hsm").mkdir()  # a directory where the output file should go
    assert run_cli("run", "--in", str(inst)) == 1
    assert capsys.readouterr().err.startswith("error: cannot write outputs")


def _tree_bytes(root):
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file()}


def test_failed_run_keeps_earlier_outputs_and_leaves_no_temporaries(tmp_path, monkeypatch):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "2",
                   "--out", str(inst)) == 0
    assert run_cli("run", "--in", str(inst)) == 0
    (inst / "H.hsm").write_bytes(b"earlier H")  # a new run would replace it
    earlier = _tree_bytes(tmp_path)

    # S fails to write after H has gone to its temporary, as on a full disk
    write_matrix = cli.write_matrix

    def write_or_fail(path, m):
        if "S.hsm" in path.name:
            raise OSError(28, "No space left on device")
        write_matrix(path, m)

    monkeypatch.setattr(cli, "write_matrix", write_or_fail)
    assert run_cli("run", "--in", str(inst)) == 1
    assert _tree_bytes(tmp_path) == earlier
    monkeypatch.undo()

    # S.hsm taken by a directory, which no file can replace
    (inst / "S.hsm").unlink()
    (inst / "S.hsm").mkdir()
    earlier = _tree_bytes(tmp_path)
    assert run_cli("run", "--in", str(inst)) == 1
    assert _tree_bytes(tmp_path) == earlier


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 14.6 TiB for an array")


def test_run_out_of_memory_is_failure_that_writes_nothing(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "2",
                   "--out", str(inst)) == 0
    earlier = _tree_bytes(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr(cli, "build_hs", _out_of_memory)
    assert run_cli("run", "--in", str(inst)) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 14.6 TiB for an array\n"
    assert _tree_bytes(tmp_path) == earlier  # no H.hsm, S.hsm, report.json or temporary


def test_generate_out_of_memory_is_failure_that_writes_nothing(tmp_path, monkeypatch, capsys):
    out = tmp_path / "inst"
    monkeypatch.setattr(cli, "generate", _out_of_memory)
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 14.6 TiB for an array\n"
    assert not out.exists()


def test_generate_dims_no_array_can_hold_are_usage_errors(tmp_path, capsys):
    # numpy could not even describe a_blocks: 1e21 elements of 16 bytes
    out = tmp_path / "inst"
    assert run_cli("generate", "--na", "10000000", "--nl", "10000000", "--ng", "10000000",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "16000000000000000000000 bytes" in err
    assert not out.exists()


def test_run_bad_tile_is_usage_error(tmp_path):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "1", "--nl", "1", "--ng", "1", "--seed", "1",
                   "--out", str(inst)) == 0
    assert run_cli("run", "--in", str(inst), "--tile", "8") == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_small_instance(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "3", "--nl", "2", "--ng", "6", "--seed", "8",
                   "--nonhpd-frac", "0.5", "--out", str(inst)) == 0
    assert run_cli("verify", "--in", str(inst)) == 0
    out = capsys.readouterr().out
    assert "rel_frob_error H" in out and "OK" in out


def test_verify_strict_tolerance_fails(tmp_path):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "3", "--nl", "2", "--ng", "6", "--seed", "9",
                   "--out", str(inst)) == 0
    assert run_cli("verify", "--in", str(inst), "--tol", "0") == 1


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_rejects_bad_tol(tmp_path, capsys, tol):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "4", "--out", str(inst)) == 0
    capsys.readouterr()
    assert run_cli("verify", "--in", str(inst), "--tol", tol) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --tol") and err.count("\n") == 1


def test_verify_corrupted_block_is_invariant_violation(tmp_path):
    inst = tmp_path / "inst"
    _save_non_hermitian(inst, 10, 1, (0, 1), 2.0j)
    assert run_cli("verify", "--in", str(inst)) == 3


def test_verify_oracle_guard(tmp_path):
    # the numpy oracle runs at any size: no guard, and no flag to lift one
    inst = tmp_path / "inst"
    p = generate(ProblemSpec(Dims(1, 1, 513), seed=11))
    save_instance(p, inst, seed=11)
    assert run_cli("verify", "--in", str(inst)) == 0
    assert run_cli("verify", "--in", str(inst), "--force") == 2


# ---------------------------------------------------------------------------
# flops


def test_flops_table5_validation(capsys):
    assert run_cli("flops", "--preset", "NaCl", "--kmax", "4.0", "--table5") == 0
    out = capsys.readouterr().out
    assert "1974.63" in out and "1956.72" in out and "1818.57" in out
    assert "128.0 atoms" in out and "512.0 atoms" in out
    assert "heavy fraction" in out


def test_flops_nacl_heavy_fraction(capsys):
    assert run_cli("flops", "--preset", "NaCl", "--kmax", "4.0") == 0
    out = capsys.readouterr().out
    frac = float(out.split("heavy fraction (S1+S2+H1+H2+H3):")[1].split()[0])
    assert frac >= 0.99
    assert "NOTE" not in out


def test_flops_auag_notes_low_fraction(capsys):
    assert run_cli("flops", "--preset", "AuAg", "--kmax", "2.5") == 0
    out = capsys.readouterr().out
    frac = float(out.split("heavy fraction (S1+S2+H1+H2+H3):")[1].split()[0])
    assert 0.95 < frac < 0.97
    assert "NOTE" in out


def test_flops_invalid_preset(capsys):
    assert run_cli("flops", "--preset", "XYZ", "--kmax", "4.0") == 2
    assert run_cli("flops", "--preset", "NaCl", "--kmax", "9.9") == 2
    assert run_cli("flops", "--preset", "NaCl", "--kmax", "4.0",
                   "--nonhpd-count", "600") == 2


# ---------------------------------------------------------------------------
# exit-code table


@pytest.mark.parametrize("exc,code", [
    (InvariantError("bad block"), 3),
    (InputError("bad value"), 2),
    (StorageError("bad file"), 1),
    (OSError(28, "No space left on device"), 1),
])
def test_main_maps_each_error_class_to_its_exit_code(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "flops", fail)
    assert run_cli("flops", "--preset", "NaCl", "--kmax", "4.0") == code
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {exc}\n"


def test_main_lets_other_exceptions_propagate(monkeypatch):
    def fail(args):
        raise RuntimeError("a bug")

    monkeypatch.setitem(cli._COMMANDS, "flops", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        cli.main(["flops", "--preset", "NaCl", "--kmax", "4.0"])
