"""Make the package importable in the CLI subprocesses the tests start.

pytest puts src/ on its own sys.path (pyproject.toml); a child
interpreter sees only PYTHONPATH, so src/ is added there too.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
