import subprocess
import sys
from pathlib import Path

import sedlab

SRC = str(Path(sedlab.__file__).resolve().parents[1])


def test_import_loads_no_scipy_signal_or_integrate():
    # sedlab needs only numpy and scipy.linalg; scipy.signal and
    # scipy.integrate would add most of a second to every CLI start
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import sedlab, sedlab.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))"
    )
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                         text=True, check=True).stdout.split()
    assert "scipy.linalg" in out
    assert not [m for m in out if m.split(".")[1] in ("signal", "integrate")]
