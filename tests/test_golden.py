import json
import subprocess
import sys
import warnings
from pathlib import Path

import golden
import pytest


def test_outputs_match_golden(tmp_path):
    """Every case writes its golden outputs: bytes where the fingerprint
    matches the one the files were written with, parsed values always."""
    recorded = json.loads((golden.GOLDEN / "fingerprint.json").read_text())
    exact = recorded == golden.fingerprint()
    differ, digest_only = [], []
    for case, args in golden.CASES.items():
        outputs = golden.run_case(args, tmp_path / case)
        for mode in ((True, False) if exact else (False,)):
            case_differ, case_digest_only = golden.compare(case, outputs, mode)
            differ += case_differ
            digest_only += case_digest_only
    print(f"golden outputs compared {'as bytes and parsed' if exact else 'parsed'}")
    if not exact:
        warnings.warn("golden fingerprint differs, so outputs were compared parsed; "
                      "checked by line count only: " + ", ".join(sorted(set(digest_only))))
    assert not differ, "outputs differ from tests/golden: " + ", ".join(sorted(set(differ)))
    assert set(golden.CASES) == {p.name for p in golden.GOLDEN.iterdir() if p.is_dir()}


def test_fingerprint_names_the_openblas_core(monkeypatch):
    """Two forced OpenBLAS cores give two fingerprints, so bytes are
    compared only on the core the golden files were written with."""
    prints = []
    for core in ("Haswell", "Prescott"):
        monkeypatch.setenv("OPENBLAS_CORETYPE", core)
        prints.append(golden.fingerprint())
    assert prints[0]["openblas_core"] == "Haswell"
    assert prints[1]["openblas_core"] not in (None, "Haswell")  # OpenBLAS 0.3.31 says Katmai
    assert prints[0] != prints[1]


def test_fingerprint_leaves_out_numpy_simd_dispatch(monkeypatch):
    """numpy with every SIMD feature above its baseline disabled, which
    moves no golden byte, has the fingerprint of this process, so such a
    machine compares bytes."""
    import numpy as np

    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    if not found:
        pytest.skip("numpy found no SIMD feature above its baseline")
    monkeypatch.setenv("NPY_DISABLE_CPU_FEATURES", " ".join(found))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, golden, numpy as np; print(json.dumps("
         "[golden.fingerprint(), np.show_config(mode='dicts')['SIMD Extensions']]))"],
        capture_output=True, text=True, check=True, cwd=Path(golden.__file__).parent)
    disabled, simd = json.loads(proc.stdout)
    assert sorted(simd["not found"]) == sorted(found)
    assert disabled == golden.fingerprint()


def test_evidence_snapshot_matches_golden_seed_1():
    """tests/evidence.json's seed-1 figures are those of the golden cases
    that are the same runs, so a stream change must refresh both."""
    evidence = json.loads((golden.REPO / "tests" / "evidence.json").read_text())
    for workload, figures in evidence["rho"].items():
        text = (golden.GOLDEN / f"{workload}_1_fl" / "correlation.txt").read_text()
        assert text.splitlines()[0] == "spearman_rho=%.9g" % figures["all"]["by_seed"][0]
    report = (golden.GOLDEN / "reference_1_validate" / "fit_report.csv").read_text()
    row = dict(zip(*(line.split(",") for line in report.splitlines())))
    tv = evidence["c02"]["cases"]["24:11.8"]["tv_distance"]["by_seed"][0]
    assert row["tv_distance"] == "%.9g" % tv


def test_parsed_comparison_tolerates_rounding_only():
    line = "h,t_s,round\n24,11.8000001,3\n"
    assert golden.same_text(line, "h,t_s,round\n24,11.8000002,3\n")
    assert not golden.same_text(line, "h,t_s,round\n24,11.8001,3\n")
    assert not golden.same_text(line, "h,t_s,round\n24,11.8000001,4\n")
    assert not golden.same_text(line, "h,t_s,round\n24,11.8000001,3\n24,1,1\n")
    assert not golden.same_text(line, "h,t,round\n24,11.8000001,3\n")
    assert golden.same_text("rho=nan x=inf", "rho=nan x=inf")
    assert not golden.same_text("rho=nan", "rho=0.5")
