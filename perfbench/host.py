"""Engine pinning, the out-of-tree C extension build, and the host fingerprint.

``repro``'s ``auto`` engine silently switches to the compiled core
whenever a ``_core*.so`` sits in ``src/repro/_cext``, so every workload
pins its engine explicitly.  The compiled workload builds the extension
with the repository's own ``setup.py`` into ``.bench_build/`` (keyed by
the C source hash), never ``--inplace`` into ``src/``, and loads it by
putting that directory first on ``repro._cext.__path__``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD_ROOT = ROOT / ".bench_build" / "perfbench"
C_SOURCE = SRC / "repro" / "_cext" / "_coremodule.c"


def require_source_tree() -> None:
    """Put ``src`` on the import path, or fail: there is nothing to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _sha256(paths: Any) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def extension_dir() -> Path:
    """Where the extension for the current C source is (or will be) built."""
    return BUILD_ROOT / f"cext-{_sha256([C_SOURCE])[:16]}"


def build_extension() -> Path:
    """Build ``repro._cext._core`` out of tree (once per C source hash)."""
    target = extension_dir()
    if any(target.glob("repro/_cext/_core*.so")):
        return target
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="cext-", dir=BUILD_ROOT))
    try:
        subprocess.run(
            [
                sys.executable, "setup.py", "-q", "build_ext",
                "--build-lib", str(scratch / "lib"),
                "--build-temp", str(scratch / "tmp"),
            ],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=600,
        )
        if not any((scratch / "lib").glob("repro/_cext/_core*.so")):
            raise SystemExit("perfbench: the C extension did not build")
        try:
            os.replace(scratch / "lib", target)
        except OSError:
            if not any(target.glob("repro/_cext/_core*.so")):
                raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return target


def pin_engine(engine: str) -> Dict[str, Optional[str]]:
    """Activate ``engine`` explicitly and describe what was loaded."""
    from repro.core import engine_select

    if engine == "compiled":
        import repro._cext

        ext_dir = str(extension_dir() / "repro" / "_cext")
        if ext_dir not in repro._cext.__path__:
            repro._cext.__path__.insert(0, ext_dir)
    info = engine_select.activate(engine)
    extension = info.extension
    if extension is not None:
        extension = os.path.relpath(extension, ROOT)
        if not extension.startswith(".bench_build"):
            raise SystemExit(f"perfbench: loaded an in-tree extension {extension}")
    return {
        "engine": info.name,
        "extension": extension,
        "extension_source_sha256": (
            _sha256([C_SOURCE]) if engine == "compiled" else None
        ),
    }


def fingerprint(engine_info: Dict[str, Optional[str]]) -> Dict[str, Any]:
    """Host and build identity recorded next to every result."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sources = sorted(
        path
        for path in (SRC / "repro").rglob("*")
        if path.suffix in (".py", ".c") and path.is_file()
    )
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "source_sha256": _sha256(sources),
        **engine_info,
    }
