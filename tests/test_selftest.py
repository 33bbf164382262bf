"""The benchmark's self-test (perfbench/selftest.py) runs one small round of every workload and checks it.

perfbench/workloads.py builds Sample(...) positionally and calls
Polarity.from_name, MockBackend, ScoreHint and the prompt renderers, so a
refactor of the package that breaks one of them fails here, not first in a
benchmark run. The self-test writes only under the git-ignored .perfbench/.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr
