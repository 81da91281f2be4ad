"""Only ``repro.runtime.backends`` may touch pools and sockets.

The backend layer owns all execution plumbing; any other module importing
``concurrent.futures``, ``multiprocessing``, or the socket machinery is
re-growing a private pool (or a private wire protocol) and bypassing the
Engine's determinism contract.  The same rule gates CI via
``tools/lint.py`` (rule RT100) and ruff's TID251; this test keeps it
enforced even when only pytest runs.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
BACKENDS = SRC / "runtime" / "backends"

BANNED_ROOTS = {
    "concurrent",
    "multiprocessing",
    "socket",
    "socketserver",
    "selectors",
}


def banned_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in BANNED_ROOTS:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] in BANNED_ROOTS:
                yield node.lineno, node.module


def test_pool_and_socket_imports_confined_to_backends():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.parent == BACKENDS:
            continue
        for lineno, module in banned_imports(path):
            offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}: {module}")
    assert not offenders, (
        "pool/socket imports outside repro.runtime.backends:\n"
        + "\n".join(offenders)
    )


def test_backend_modules_do_hold_the_imports():
    """The guard is meaningful: the allowed modules really use the plumbing."""
    assert any(banned_imports(BACKENDS / "process_pool.py"))
    assert any(banned_imports(BACKENDS / "socket_worker.py"))
