import json
import subprocess
import sys

from parahoric.cli import main


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "parahoric.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_roots_g2_text():
    proc = run_cli(["roots", "--type", "G", "--rank", "2"])
    assert proc.returncode == 0
    assert "coxeter_number: 6" in proc.stdout


def test_roots_a_discrepancy_finding():
    proc = run_cli(["roots", "--type", "A", "--rank", "5", "--format", "json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["findings"]["printed_A_count_formula"] == "n-l-1"
    assert payload["findings"]["rows"]


def test_roots_invalid_rank_exits_nonzero():
    proc = run_cli(["roots", "--type", "E", "--rank", "9"])
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_graphs_f4_json():
    proc = run_cli(["graphs", "--type", "F", "--rank", "4", "--format", "json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    by_l = {g["l"]: g for g in payload["graphs"]}
    assert by_l[3]["cycles"] == [{"length": 3, "reduced": False, "level": 1, "det": None}]
    assert by_l[4]["cycles"] == [{"length": 3, "reduced": True, "level": 2, "det": 3}]
    assert all(g["connected"] for g in payload["graphs"])


def test_graphs_b5_acyclic():
    proc = run_cli(["graphs", "--type", "B", "--rank", "5", "--format", "json"])
    payload = json.loads(proc.stdout)
    assert all(not g["cycles"] for g in payload["graphs"])


def test_graphs_e8_l6_det():
    proc = run_cli(["graphs", "--type", "E", "--rank", "8", "--l", "6",
                    "--format", "json"])
    payload = json.loads(proc.stdout)
    cycles = payload["graphs"][0]["cycles"]
    assert {"length": 7, "reduced": True, "level": 4, "det": 5} in cycles


def test_graphs_dot_output():
    proc = run_cli(["graphs", "--type", "F", "--rank", "4", "--l", "3",
                    "--format", "dot"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph G3 {")


def test_signs_g2_reports_every_axiom():
    proc = run_cli(["signs", "--type", "G", "--rank", "2"])
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        "axiom antisymmetry: pass (60 checked)",
        "axiom opposite: pass (60 checked)",
        "axiom cyclic: pass (60 checked)",
        "axiom cocycle: pass (120 checked)",
        "axiom jacobi: pass (372 checked)",
    ]
    lines = proc.stdout.splitlines()
    assert len(lines) == 60  # one line per ordered pair with a root sum
    assert lines[0] == "(-3 -2) + (0 1) : eps=+1 p=1"


def test_signs_seed_gauge():
    proc = run_cli(["signs", "--type", "A", "--rank", "2", "--gauge", "-3"])
    assert proc.returncode == 0
    assert "axiom jacobi: pass (36 checked)" in proc.stderr


def test_signs_rejects_unknown_gauge():
    proc = run_cli(["signs", "--type", "A", "--rank", "2", "--gauge", "foo"])
    assert proc.returncode == 2
    assert "error: argument --gauge: unsupported gauge 'foo'" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not proc.stdout


def test_verify_rejects_p2():
    proc = run_cli(["verify", "--type", "A1", "-p", "2", "-h", "2"])
    assert proc.returncode == 2
    assert "odd prime" in proc.stderr


def test_verify_adjoint_a1_json_deterministic():
    args = ["verify", "--type", "A1", "--isogeny", "adjoint", "-p", "3", "-h", "2",
            "--format", "json"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout  # byte-identical
    payload = json.loads(first.stdout)
    assert payload["pass"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"parahoric_axioms", "rank1_classes", "exterior_class_absorption", "multiplicity_freeness"} <= names
    main_checks = [c for c in payload["checks"] if c["name"] == "multiplicity_freeness"][0]
    st_st = [c for c in main_checks["result"] if c["name"] == "st_st_equals_orbits"][0]
    assert st_st["computed"] == 1


def test_verify_reports_skipped_checks():
    proc = run_cli(["verify", "--type", "A2", "-p", "3", "-h", "2", "--format", "json"])
    assert proc.returncode == 0  # a skipped hypothesis is not a failure
    payload = json.loads(proc.stdout)
    checks = {c["name"]: c for c in payload["checks"]}
    for name in ("exterior_class_absorption", "multiplicity_freeness"):
        assert checks[name]["status"] == "skipped"
        assert checks[name]["pass"] is False
        assert "adjoint index 3" in checks[name]["reason"]
        assert f"SKIP  {name}" in proc.stderr
    assert checks["parahoric_axioms"]["status"] == "pass"


def test_verify_reports_budget_refusal():
    proc = run_cli(["verify", "--type", "A1", "-p", "3", "-h", "2", "--budget-cosets", "5"])
    assert proc.returncode == 1
    assert ("REFUSED  flag_space: |G/B| = 12 exceeds the coset budget 5 (--budget-cosets)"
            in proc.stderr)
    # a refusal alone fails the run, even when every check that ran passed
    proc = run_cli(["verify", "--type", "A1", "--isogeny", "adjoint", "-p", "3", "-h", "2",
                    "--budget-cosets", "5", "--format", "json"])
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["pass"] is False
    assert [(c["name"], c["status"]) for c in payload["checks"] if c["status"] != "pass"] == [
        ("flag_space", "refused")
    ]
    assert payload["checks"][-1]["reason"] == (
        "|G/B| = 12 exceeds the coset budget 5 (--budget-cosets)")


def test_verify_sc_a1_p3_json():
    # SL2(Z/9): root-keyed normalizer witnesses serialize; the exit code
    # reports the genuine self-normalizer failure, as the text format does
    proc = run_cli(["verify", "--type", "A1", "-p", "3", "-h", "2", "--format", "json"])
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    assert proc.returncode == 1
    assert payload["pass"] is False
    assert payload["instance"]["kernel"] in ("compiled", "python")
    failed = [c for c in payload["checks"] if c["status"] != "pass"]
    assert [c["name"] for c in failed] == ["overgroup_classification"]
    witnesses = failed[0]["result"]["normalizer_witnesses"]
    assert [f for f, _ in witnesses] == [{"-1": 2}]


def test_verify_sc_a1_p5():
    proc = run_cli(["verify", "--type", "A1", "--isogeny", "sc", "-p", "5",
                    "-h", "2", "--format", "json"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    main_checks = [c for c in payload["checks"] if c["name"] == "multiplicity_freeness"][0]
    st_st = [c for c in main_checks["result"] if c["name"] == "st_st_equals_orbits"][0]
    assert st_st["computed"] == 2


def test_main_callable_directly(capsys):
    code = main(["roots", "--type", "A", "--rank", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "coxeter_number: 3" in out
