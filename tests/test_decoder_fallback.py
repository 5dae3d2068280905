"""The ingest tests pass on the stdlib decoder too.

``data`` decodes JSON Lines with orjson when it imports and with stdlib
``json`` otherwise. Where orjson is installed a plain ``pytest`` run covers
only the first, so this runs the data tests and the CLI ingest and exit-code
tests again in a child interpreter where ``import orjson`` fails.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import sys
sys.modules["orjson"] = None  # makes ``import orjson`` raise ImportError
from disparity_audit import data
assert data.orjson is None
import pytest
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_ingest_tests_pass_without_orjson():
    pytest.importorskip("orjson")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-p", "no:cacheprovider",
         "tests/test_data.py", "tests/test_cli.py::TestExitCodes",
         "tests/test_cli.py::test_ingest_order_does_not_change_artifacts"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
