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


def test_the_blas_thread_count_is_set_in_the_child_environment_alone(tmp_path):
    before = dict(os.environ)
    env = byte_identity.child_env(tmp_path, blas_threads=2)
    assert env["OPENBLAS_NUM_THREADS"] == "2"
    assert env["PYTHONPATH"] == str(tmp_path.resolve() / "src")
    assert dict(os.environ) == before
    assert byte_identity.child_env(tmp_path).get("OPENBLAS_NUM_THREADS") == (
        before.get("OPENBLAS_NUM_THREADS")
    )
