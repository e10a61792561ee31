"""Child interpreters: the cli workload's commands and the set-up probes.

Nothing here imports weilpoly; each child imports it from the checkout's
src directory through PYTHONPATH.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

CLI_CODE = "import sys; from weilpoly.cli import main; sys.exit(main())"
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"

SETUP_CODE = "import weilpoly, weilpoly.cli; weilpoly.newton.load_case_table()"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(cmd: list[str], env: dict, cwd: Path) -> tuple[int, bytes, float]:
    """Run one child to its end: (exit code, stdout, its peak RSS in MB)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=cwd)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024


def cli_command(inp: dict, env: dict, cwd: Path, trace_file: Path | None = None) -> tuple[dict, float]:
    """One fresh interpreter for one command, as the weilpoly script runs it.

    With trace_file set the child runs under cli_child.py, which records the
    traced layers into that file.
    """
    if trace_file is None:
        cmd = [sys.executable, "-c", CLI_CODE, *inp["argv"]]
    else:
        cmd = [sys.executable, str(CLI_CHILD), str(trace_file), *inp["argv"]]
    code, out, rss = spawn(cmd, env, cwd)
    return {"exit": code, "stdout": out}, rss


def setup_seconds(env: dict, cwd: Path) -> float:
    """Wall seconds of a fresh interpreter that imports weilpoly and does
    the program's own preparation, from its start to its exit."""
    t0 = time.perf_counter()
    code, _, _ = spawn([sys.executable, "-c", SETUP_CODE], env, cwd)
    if code != 0:
        raise RuntimeError("the set-up probe could not import weilpoly")
    return time.perf_counter() - t0
