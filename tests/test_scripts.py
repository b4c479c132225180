import os
import subprocess
import sys
from pathlib import Path

import recnum

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_threshold_scan_smoke():
    # the script calls bounds.m_value, m_shifted and shift_modulus_limit
    # directly, so it breaks first when their signatures change
    src = str(Path(recnum.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "threshold_scan.py"), "--lo", "40", "--hi", "41"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[1:]}
    assert sorted(rows) == ["40", "41"]
    # a, m, m^(2), threshold, ...: criterion 3's miss at the low edge
    assert rows["40"][1:4] == ["4.0514", "4.2864", "6.0661"]
