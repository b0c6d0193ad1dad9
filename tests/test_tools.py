"""The repository's command-line tools."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

_SPEC = importlib.util.spec_from_file_location(
    "report_identity", Path(__file__).resolve().parents[1] / "tools" / "report_identity.py")
report_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_identity)


class TestDifferingPaths:
    def paths(self, a, b):
        return list(report_identity.differing_paths(a, b))

    def test_equal_values_differ_nowhere(self):
        report = {"results": [{"eta": {"matrix": [[1, 0]]}}], "ok": True}
        assert self.paths(report, report) == []

    def test_a_matrix_is_one_path(self):
        old = {"results": [{"w": {"rank": 0}, "eta": {"matrix": [[1, 0], [0, 1]]}}]}
        new = {"results": [{"w": {"rank": 0}, "eta": {"matrix": [[1, 0], [0, -1]]}}]}
        assert self.paths(old, new) == ["results[0].eta.matrix"]

    def test_keys_and_lists_of_other_lengths(self):
        old = {"a": 1, "b": [{"c": 1}], "d": [1, 2]}
        new = {"b": [{"c": 1}, {"c": 2}], "d": [1, 3], "e": 0}
        assert self.paths(old, new) == ["a", "b", "d", "e"]

    def test_top_level_values(self):
        assert self.paths(1, 2) == ["$"]
        assert self.paths([{"x": 1}], [{"x": 2}]) == ["[0].x"]


class TestDifference:
    REPORT = '{"results":[{"w":{"rank":0}}]}'

    def test_printed_output_alone(self):
        old, new = [0, self.REPORT, "M: W = 3\n"], [0, self.REPORT, "M: W = 9\n"]
        assert report_identity.difference(old, new) == ("printed output differs", [])

    def test_report_and_printed_output(self):
        old = [0, self.REPORT, "a\n"]
        new = [0, '{"results":[{"w":{"rank":1}}]}', "b\n"]
        assert report_identity.difference(old, new) == (
            "report differs at results[0].w.rank; printed output differs",
            ["results[0].w.rank"])

    def test_exit_code_and_missing_op(self):
        assert report_identity.difference([0, None, ""], [2, None, "error\n"]) \
            == ("exit code differs", [])
        assert report_identity.difference(None, [0, None, ""]) == ("op missing", [])


def test_an_op_keeps_what_it_printed(tmp_path):
    """run_op keeps the printed text with the temporary path replaced."""
    missing = tmp_path / "missing.json"
    op = SimpleNamespace(argv=["replay", "--input", str(missing)], out=str(missing))
    rc, report, printed = report_identity.run_op(op, str(tmp_path))
    assert (rc, report) == (2, None)
    assert printed.startswith(f"error: cannot read {report_identity.TMP_TOKEN}/missing.json")
    assert str(tmp_path) not in printed
