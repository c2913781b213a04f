"""What importing the package costs: no third-party package but numpy."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the top-level packages that `import symstep, symstep.cli` adds to those a
# fresh interpreter loads at start-up
PROBE = """
import json, sys
preloaded = set(sys.modules)
import symstep, symstep.cli
print(json.dumps(sorted({n.partition(".")[0] for n in set(sys.modules) - preloaded})))
"""


def test_import_loads_no_third_party_package_but_numpy():
    """Every process pays for the import before its first step, the
    benchmark's setup_s included: the library and its command line load
    the standard library and numpy, nothing else (sympy, say, is for the
    tests only)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "symstep"}
