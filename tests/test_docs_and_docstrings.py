"""The documentation satellites: docs/ tree present, docstring gate green.

Keeps the docs from rotting silently: the stdlib docstring gate
(``python -m tools.lint --rule lint.docstring``) must pass, the docs
tree must exist, and the README must point at it instead of
duplicating it.
"""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT))
try:
    from tools.lint.docstrings import check_file
finally:
    sys.path.pop(0)


class TestDocstringGate:
    def test_audited_public_api_is_fully_documented(self):
        """The ``lint.docstring`` rule exits 0 over the audited surface."""
        result = subprocess.run(
            [sys.executable, "-m", "tools.lint", "--rule", "lint.docstring"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 finding(s)" in result.stdout

    def test_gate_actually_detects_omissions(self, tmp_path):
        """The gate is not vacuous: an undocumented def is reported."""
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Module docstring."""\n\n\ndef naked():\n    return 1\n'
        )
        assert check_file(bad) == [(4, "function", "naked")]
        good = tmp_path / "good.py"
        good.write_text(
            '"""Module docstring."""\n\n\ndef covered():\n    """Doc."""\n'
        )
        assert check_file(good) == []


class TestDocsTree:
    def test_docs_pages_exist_and_cover_their_topics(self):
        docs = REPO_ROOT / "docs"
        architecture = (docs / "architecture.md").read_text()
        dispatch = (docs / "dispatch.md").read_text()
        cli = (docs / "cli.md").read_text()
        # each page owns its contract: tiers, wire forms, cookbook
        assert "Engine" in architecture and "digest" in architecture
        for anchor in ("POST /run", "ScenarioSpec", "RegressionReport",
                       "work-stealing", "HostFailure"):
            assert anchor in dispatch, anchor
        for anchor in ("--shards", "--hosts", "--merge", "close",
                       "repro.dispatch.worker"):
            assert anchor in cli, anchor

    def test_readme_points_at_docs_instead_of_duplicating(self):
        readme = (REPO_ROOT / "README.md").read_text()
        assert "docs/architecture.md" in readme
        assert "docs/dispatch.md" in readme
        assert "docs/cli.md" in readme


class TestRetiredEntryPoints:
    """``python -m repro`` is the one command line and the Workbench the
    one Figure 1 front end; nothing may point at the retired ones."""

    RETIRED = ("python -m repro.scenarios", "repro.flow", "DesignFlow")
    SCANNED = ("src", "docs", "examples", "benchmarks", "tools", ".github",
               ".claude", "README.md")

    def test_no_reference_to_retired_entry_points(self):
        hits = []
        for name in self.SCANNED:
            root = REPO_ROOT / name
            paths = [root] if root.is_file() else sorted(root.rglob("*"))
            for path in paths:
                if not path.is_file() or "__pycache__" in path.parts:
                    continue
                try:
                    text = path.read_text(encoding="utf-8")
                except UnicodeDecodeError:
                    continue
                # whitespace-folded, so a reference wrapped over two
                # lines is caught too
                flat = " ".join(text.split())
                hits.extend(
                    f"{path.relative_to(REPO_ROOT)}: {needle}"
                    for needle in self.RETIRED
                    if needle in flat
                )
        assert not hits, "\n".join(hits)
