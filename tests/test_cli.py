import json

import numpy as np
import pytest

from hsgen import cli
from hsgen.storage import load_instance, read_matrix, save_instance
from hsgen.probgen import ProblemSpec, generate
from hsgen.matcore import Dims


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
    a = read_matrix(out / "a_0001.hsm")
    assert a.shape == (3, 4)
    assert read_matrix(out / "a_0002.hsm").shape == (3, 4)


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
    assert rep["policy"] == {"workers": 2, "tile": 32}
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
        assert run_cli("run", "--in", str(inst), "--workers", workers,
                       "--tile", "32") == 0
        results[workers] = ((inst / "H.hsm").read_bytes(), (inst / "S.hsm").read_bytes())
    assert results["1"] == results["4"]


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


def test_run_malformed_manifest_files_is_failure(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "6",
                   "--out", str(inst)) == 0
    mpath = inst / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["files"] = {"a": 5}
    mpath.write_text(json.dumps(manifest))
    assert run_cli("run", "--in", str(inst)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_run_invariant_violation(tmp_path):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "6",
                   "--out", str(inst)) == 0
    # corrupt one AA block so it is no longer Hermitian
    bad = read_matrix(inst / "t_aa_0001.hsm")
    bad[0, 1] += 3.0
    from hsgen.storage import write_matrix

    write_matrix(inst / "t_aa_0001.hsm", bad)
    assert run_cli("run", "--in", str(inst)) == 3


def test_run_missing_report_directory_fails_before_writing(tmp_path, capsys):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "2",
                   "--out", str(inst)) == 0
    report = tmp_path / "no" / "such" / "dir" / "r.json"
    assert run_cli("run", "--in", str(inst), "--report", str(report)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (inst / "H.hsm").exists() and not (inst / "S.hsm").exists()


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


def test_verify_corrupted_block_is_invariant_violation(tmp_path):
    inst = tmp_path / "inst"
    assert run_cli("generate", "--na", "2", "--nl", "2", "--ng", "3", "--seed", "10",
                   "--out", str(inst)) == 0
    from hsgen.storage import write_matrix

    bad = read_matrix(inst / "t_aa_0002.hsm")
    bad[1, 0] += 2.0j
    write_matrix(inst / "t_aa_0002.hsm", bad)
    assert run_cli("verify", "--in", str(inst)) == 3


def test_verify_oracle_guard(tmp_path):
    inst = tmp_path / "inst"
    p = generate(ProblemSpec(Dims(1, 1, 513), seed=11))
    save_instance(p, inst, seed=11)
    assert run_cli("verify", "--in", str(inst)) == 2
    assert run_cli("verify", "--in", str(inst), "--force") == 0


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


def test_workers_env_default(monkeypatch):
    monkeypatch.setenv("HSGEN_WORKERS", "7")
    parser = cli.build_parser()
    args = parser.parse_args(["run", "--in", "x"])
    assert args.workers == 7
    monkeypatch.setenv("HSGEN_WORKERS", "junk")
    args = cli.build_parser().parse_args(["run", "--in", "x"])
    assert args.workers == 1
