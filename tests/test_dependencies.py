"""policycast needs only the standard library and `cryptography`."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_ALL = """
import pkgutil, sys
import policycast
names = [m.name for m in pkgutil.iter_modules(policycast.__path__)]
for name in names:
    __import__("policycast." + name)
print(len(names), sorted(n for n in sys.modules if n.split(".")[0] == "requests"))
"""


def test_no_module_pulls_in_requests():
    # a fresh interpreter: the test process may have imported requests itself
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    out = subprocess.run([sys.executable, "-c", IMPORT_ALL], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    count, loaded = out.stdout.split(" ", 1)
    assert int(count) >= 9  # every module was imported
    assert loaded.strip() == "[]"
