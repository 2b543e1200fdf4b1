"""Repo lint framework: registered AST checks over the codebase.

Generalizes the original public-API docstring gate into a
registry of typed-finding checks sharing the analyzer's report and
suppression pipeline::

    python -m tools.lint            # run every check, gate on clean
    python -m tools.lint --list     # show the registered rules
    python -m tools.lint --json     # machine-readable report

Registered rules: ``lint.docstring``, ``lint.monitor-construction``,
``lint.wall-clock``, ``lint.wire-parity`` (see :mod:`.docstrings` and
:mod:`.checks`).
"""

from .registry import REPO_ROOT, register, registered_checks, run_checks

__all__ = ["REPO_ROOT", "register", "registered_checks", "run_checks"]
