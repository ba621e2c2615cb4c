"""The comparison step of ``scripts/byte_identity.py``."""

import importlib.util
import os
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "byte_identity.py"
_spec = importlib.util.spec_from_file_location("byte_identity", _SCRIPT)
byte_identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(byte_identity)


def _tree(root):
    (root / "run").mkdir(parents=True)
    (root / "run" / "labels.txt").write_text("0\n1\n1\n")
    (root / "run" / "losses.tsv").write_text("1\t0.5\t0.25\t-3\n")
    (root / "verify.gradients.0.txt").write_text("4/4 checks passed\nexit 0\n")
    return root


def test_identical_trees_show_no_difference(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    assert byte_identity.differences(a, b) == []
    assert byte_identity.verdict(a, b) is None


def test_one_changed_byte_names_its_file(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "run" / "losses.tsv").write_text("1\t0.5\t0.24\t-3\n")
    assert byte_identity.differences(a, b) == ["run/losses.tsv: differs"]


def test_a_file_on_one_side_only_is_a_difference(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (a / "run" / "zbar.tsv").write_text("0\t1\n")
    assert byte_identity.differences(a, b) == [f"run/zbar.tsv: only in {a}"]
    assert byte_identity.differences(b, a) == [f"run/zbar.tsv: only in {a}"]


def test_a_run_that_fails_on_both_sides_fails_the_check(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    for root in (a, b):
        (root / "knn_n600_v3.cluster.txt").write_text("exit 1\n")
    assert byte_identity.differences(a, b) == []
    assert byte_identity.failed_runs(a) == ["knn_n600_v3.cluster.txt"]
    assert byte_identity.verdict(a, b) == (
        "parent run failed: knn_n600_v3.cluster.txt"
    )


def test_a_run_that_fails_on_the_change_side_only_is_named(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "verify.gradients.0.txt").write_text("3/4 checks passed\nexit 1\n")
    assert byte_identity.verdict(a, b) == "change run failed: verify.gradients.0.txt"


def test_every_difference_is_named_under_the_given_labels(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (b / "run" / "labels.txt").write_text("0\n1\n0\n")
    (b / "run" / "losses.tsv").write_text("1\t0.5\t0.24\t-3\n")
    assert byte_identity.verdict(a, b) == (
        "run/labels.txt: differs\nrun/losses.tsv: differs"
    )
    (a / "verify.gradients.0.txt").write_text("exit 1\n")
    assert byte_identity.verdict(a, b, labels=("threads1", "threads2")) == (
        "threads1 run failed: verify.gradients.0.txt"
    )


def test_each_differing_numeric_tsv_reports_its_largest_relative_gap(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    # 0.25 -> 0.24 is 4% of 0.25, and -3 -> -3.03 1% of 3.03
    (b / "run" / "losses.tsv").write_text("1\t0.5\t0.24\t-3.03\n")
    (a / "run" / "consensus.tsv").write_text("0\t1\t0.6\n1\t0\t0.6\n")
    (b / "run" / "consensus.tsv").write_text("0\t1\t0.6\n")
    (a / "run" / "beliefs.tsv").write_text("1\t1\n0.5\t0\n")
    (b / "run" / "beliefs.tsv").write_text("1\t1\n0.5\t-0.0\n")
    (b / "run" / "labels.txt").write_text("0\n1\n0\n")
    assert byte_identity.gaps(a, b) == [
        "run/beliefs.tsv: largest relative cell difference 0.00e+00",
        "run/consensus.tsv: row counts differ (2 and 1)",
        "run/losses.tsv: largest relative cell difference 4.00e-02",
    ]
    assert byte_identity.numeric_gap(
        b / "run" / "losses.tsv", a / "run" / "losses.tsv"
    ) == "largest relative cell difference 4.00e-02"


def test_a_tsv_whose_differing_cell_is_not_a_number_reports_no_gap(tmp_path):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (a / "run" / "notes.tsv").write_text("x\t1\n")
    (b / "run" / "notes.tsv").write_text("y\t1\n")
    (b / "run" / "z.tsv").write_text("1\t2\n")
    (a / "run" / "z.tsv").write_text("1\t2\t3\n")
    notes = [root / "run" / "notes.tsv" for root in (a, b)]
    assert byte_identity.numeric_gap(*notes) is None
    assert byte_identity.gaps(a, b) == ["run/z.tsv: cell counts differ in row 1"]


def test_the_blas_thread_count_is_set_in_the_child_environment_alone(tmp_path):
    before = dict(os.environ)
    env = byte_identity.child_env(tmp_path, blas_threads=2)
    assert env["OPENBLAS_NUM_THREADS"] == "2"
    assert env["PYTHONPATH"] == str(tmp_path.resolve() / "src")
    assert dict(os.environ) == before
    assert byte_identity.child_env(tmp_path).get("OPENBLAS_NUM_THREADS") == (
        before.get("OPENBLAS_NUM_THREADS")
    )
