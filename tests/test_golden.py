import json
import warnings

import golden


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
