"""Process plumbing shared by the workloads: the checkout, child processes,
resource accounting and the host fingerprint."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COMMITTED_REPORT = ROOT / "BENCH_engine.json"
#: Scratch space for stores and child outputs; removed after every run.
WORK_ROOT = ROOT / ".perfbench-work"
#: Where traced runs leave their span files.
OUT_ROOT = ROOT / ".perfbench-out"


class CheckoutError(RuntimeError):
    """The benchmark is not running from a checkout of the program."""


def require_checkout() -> None:
    for needed in (SRC / "repro" / "__main__.py", COMMITTED_REPORT):
        if not needed.is_file():
            raise CheckoutError(f"missing {needed.relative_to(ROOT)}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    env.pop("REPRO_STORE_DIR", None)
    env.pop("REPRO_MP_CONTEXT", None)
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    output: str


def run_child(argv: list[str], log: Path, timeout: float = 170.0) -> ChildResult:
    """Run ``argv`` to completion; account wall, CPU and peak RSS.

    CPU and peak RSS come from ``wait4`` and cover the child and every
    descendant it waited for (the engine's pool workers).
    """
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=sink,
            stderr=subprocess.STDOUT,
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        output=log.read_text(encoding="utf-8", errors="replace"),
    )


def self_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User+system CPU of a live process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class WorkDir:
    """A fresh directory under :data:`WORK_ROOT`, removed on exit."""

    def __enter__(self) -> Path:
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(dir=WORK_ROOT))
        return self.path

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def source_digest() -> str:
    """SHA-256 over ``src/`` (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def fingerprint(**run: object) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
        "src_sha256": source_digest(),
        **run,
    }
