"""The repository's command-line tools."""

import importlib.util
from pathlib import Path

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
