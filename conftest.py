"""Repo-root pytest configuration.

Registers the ``--bench-json-dir`` option globally so it is honoured no
matter which directory is on the command line (options registered in a
non-root ``conftest.py`` are only recognised when that directory is an
initial argument).  The fixture consuming it lives in
``benchmarks/conftest.py``.  Also registers the ``timeout`` marker.
"""

from __future__ import annotations

from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent


def pytest_configure(config: pytest.Config) -> None:
    # Honoured by pytest-timeout where installed; registered so suites
    # that mark slow modules run warning-free without the plugin.
    config.addinivalue_line(
        "markers", "timeout(seconds): per-test time limit (pytest-timeout)"
    )


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--bench-json-dir",
        action="store",
        default=str(_REPO_ROOT),
        help="Directory that receives BENCH_<name>.json result files "
        "(default: the repository root).",
    )
