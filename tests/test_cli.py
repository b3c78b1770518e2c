import json
import os
import subprocess
import sys

import pytest

from adlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [["cube", "1,2", "--k", "3"], ["verify", "--seed", "1"], ["bsg", "1,2", "1,2", "--seed", "1"]],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_import_leaves_sympy_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, adlab, adlab.cli; print('sympy' in sys.modules, 'numpy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_dim_json_frozen(capsys):
    code, out, err = run(capsys, "dim", "1,2,3,4", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["bounds"]["lower"] == payload["bounds"]["upper"] == 3
    assert payload["bounds"]["exact"]
    assert payload["certificate"]["verdict"] == "relation"


def test_dim_certificate_shares_the_budget(capsys):
    code, out, err = run(capsys, "dim", "1,2,4,8,16,32,64,128", "--budget", "12", "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["bounds"]["lower"] == 8 and payload["bounds"]["states"] == 13
    assert payload["certificate"] is None
    assert "budget exhausted" in payload["note"]


def test_dim_human_output(capsys):
    code, out, _ = run(capsys, "dim", "1,2")
    assert code == 0
    assert "dim_1: 2 (exact)" in out
    assert "dissociated" in out


def test_energy_frozen(capsys):
    code, out, _ = run(capsys, "energy", "1,2,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"]["value_dec"] == "19"
    assert payload["e_symmetric"] == 19


def test_sidon_frozen(capsys):
    code, out, _ = run(capsys, "sidon", "1,2,3,4,5", "--json")
    assert code == 0
    assert json.loads(out)["elements"] == [1, 2, 4]


def test_dirichlet_subgroup(capsys):
    code, out, _ = run(capsys, "dirichlet", "1,2,4", "--mod", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["measured"]["dirichlet"]["value"] == "2/7"
    assert all(not r["violated"] for r in payload["records"])


def test_sumset_iterates(capsys):
    code, out, _ = run(capsys, "sumset", "1,2,3", "--n", "2", "--json")
    assert code == 0
    assert json.loads(out)["elements"] == [2, 3, 4, 5, 6]


def test_span_symmetric(capsys):
    code, out, _ = run(capsys, "span", "1,2", "--k", "2", "--json")
    assert code == 0
    assert json.loads(out)["elements"] == list(range(-6, 7))


def test_cube_proper(capsys):
    code, out, _ = run(capsys, "cube", "1,10,100", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 8 and payload["proper"]


def test_ratiobox_frozen(capsys):
    code, out, _ = run(capsys, "ratiobox", "0,1,3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["missing"] == "1/4"


def test_subgroup_command(capsys):
    code, out, _ = run(capsys, "subgroup", "--p", "7", "--t", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["measured"]["curve"]["sizes"] == [3, 6, 7, 7]


def test_fourier_subgroup_peak(capsys):
    code, out, _ = run(capsys, "fourier", "1,2,4", "--mod", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_abs"] == pytest.approx(2 ** 0.5, abs=1e-9)


def test_bsg_default_k(capsys):
    code, out, _ = run(capsys, "bsg", "1,2,3,4,5,6,7,8", "1,2,3,4,5,6,7,8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["stats"]["k_target"] == "128/43"  # 2|A||B|^2 / E(A,B)
    assert "seed" not in payload["stats"]
    assert payload["h"]


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "1,2,4,8,16,32,64,128", "--json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["b"] + payload["c"]) == [2 ** i for i in range(8)]


def test_gen_roundtrip_through_file(tmp_path, capsys):
    target = tmp_path / "interval.txt"
    code, _, _ = run(capsys, "gen", "interval", "n=4", "--out", str(target))
    assert code == 0
    code, out, _ = run(capsys, "dim", str(target), "--json")
    assert code == 0
    assert json.loads(out)["bounds"]["lower"] == 3


def test_gen_prints_set_format(capsys):
    code, out, _ = run(capsys, "gen", "interval", "n=4")
    assert code == 0
    assert out.splitlines()[0].startswith("@ambient z")
    assert out.splitlines()[1:] == ["1", "2", "3", "4"]


def test_bad_set_argument_errors(capsys):
    code, out, err = run(capsys, "dim", "no-such-file.txt")
    assert code == 1
    assert "error:" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "bad.txt"],
        ["dim", "1,2,3", "--mod", "1"],
        ["dim", "1,2,3", "--k", "0"],
        ["span", "1,2", "--k", "-1"],
        ["sumset", "1,2", "--n", "0"],
    ],
)
def test_bad_argument_values_are_errors_not_tracebacks(capsys, tmp_path, monkeypatch, argv):
    (tmp_path / "bad.txt").write_text("@ambient foo\n1\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_unknown_suite_errors(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1
    assert "unknown suite" in err


def test_verify_core_suite_clean(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "core")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["hard_violations"] == 0
    assert payload["schema"] == 1


def test_verify_writes_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "core", "--out", str(target))
    assert code == 0
    on_disk = json.loads(target.read_text())
    assert on_disk["summary"]["hard_violations"] == 0
