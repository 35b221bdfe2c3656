import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import nabla


@pytest.fixture
def run_in_child():
    """Run ``from tests.<module> import <name>; <name>()`` in a child Python
    bounded to 30 s and 1 GiB of address space, and assert that it passed.
    A walk of a tree instead of its shared objects cannot finish there."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    def run(module: str, name: str) -> None:
        paths = [str(Path(nabla.__file__).parents[1]), str(Path(__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        argv = [sys.executable, "-c", f"from tests.{module} import {name}; {name}()"]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30, preexec_fn=limit_memory)
        assert done.returncode == 0, done.stderr[-500:]

    return run
