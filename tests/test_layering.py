"""The import-layering contract, enforced as a test.

``scripts/check_layering.py`` is the single source of truth (CI also
runs it as a standalone step so the failure is visible even when the
test run aborts earlier); this wrapper makes the contract part of the
plain ``pytest`` loop and adds direct pins for the load-bearing rule:
``hardware`` — the simulator's ground truth — must stay importable in
total isolation from the budgeting framework it is modelling.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "check_layering.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_layering", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layering_contract_holds():
    checker = _load_checker()
    violations = checker.check()
    assert violations == [], "\n".join(violations)


def test_every_layer_is_registered():
    checker = _load_checker()
    on_disk = {
        p.name for p in checker.PACKAGE_ROOT.iterdir() if p.is_dir() and p.name != "__pycache__"
    }
    registered = set(checker.ALLOWED) - {"repro", "errors", "cli"}
    assert on_disk == registered, (
        "packages on disk and the allowlist in scripts/check_layering.py "
        f"disagree: {sorted(on_disk ^ registered)}"
    )


def test_hardware_never_allowed_to_import_core_or_experiments():
    # The ratchet can loosen other edges, but these must stay forbidden.
    checker = _load_checker()
    assert checker.ALLOWED["hardware"] == {"errors", "telemetry", "util"}
    assert ("hardware", "core") in checker.FORBIDDEN
    assert ("hardware", "experiments") in checker.FORBIDDEN


def test_telemetry_is_a_pure_leaf():
    # Telemetry is observation-only: importable from every layer, but it
    # may depend on nothing it observes — otherwise enabling it could
    # perturb the thing being measured.
    checker = _load_checker()
    assert checker.ALLOWED["telemetry"] == {"errors", "util"}
    for layer, allowed in checker.ALLOWED.items():
        if layer in ("errors", "util", "telemetry"):
            continue
        assert "telemetry" in allowed, f"{layer} cannot import telemetry"
    assert ("telemetry", "core") in checker.FORBIDDEN
    assert ("telemetry", "exec") in checker.FORBIDDEN
    assert ("telemetry", "experiments") in checker.FORBIDDEN


def test_shared_memory_stays_behind_two_modules():
    # POSIX segments outlive the interpreter, so every owner of one is a
    # place a leak can start: keep them to the fleet handoff and its
    # attach helper.
    checker = _load_checker()
    allowed = {"util/shm.py", "exec/shared.py"}
    users = set()
    for py in checker.PACKAGE_ROOT.rglob("*.py"):
        for node in ast.walk(ast.parse(py.read_text(), filename=str(py))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n.startswith("multiprocessing.shared_memory") for n in names):
                users.add(py.relative_to(checker.PACKAGE_ROOT).as_posix())
    assert users <= allowed, sorted(users - allowed)


def test_script_entrypoint_exits_zero():
    # CI invokes the script directly; keep that path working too.
    result = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, cwd=REPO_ROOT
    )
    assert result.returncode == 0, result.stderr
    assert "layering OK" in result.stdout
