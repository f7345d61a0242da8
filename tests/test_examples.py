"""The example scripts run and report what they claim."""

import importlib.util
import re
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_storage_scaling_study_reports_a_nonempty_dbcp_table(capsys):
    """The unlimited DBCP table is measured after a replay that builds it.

    A compiled-kernel run leaves the Python-side table empty, which would
    print 0 KB.
    """
    assert _load("storage_scaling_study").main(["mcf", "3000"]) == 0
    match = re.search(r"Equivalent DBCP on-chip table: (\d+) KB", capsys.readouterr().out)
    assert match is not None and int(match.group(1)) > 0
