"""Tier-1 coverage for the pure-Python fallback path.

With ``cryptography`` installed, the default backend is ``openssl`` and
the in-process test run exercises mostly that provider.  These tests
force ``REPRO_CRYPTO_BACKEND=pure`` in subprocesses so the from-scratch
implementations stay pinned by tier-1 even after OpenSSL becomes the
default.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")


def _env(backend: str) -> dict:
    env = dict(os.environ)
    env["REPRO_CRYPTO_BACKEND"] = backend
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run(args: list[str], backend: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=REPO,
        env=_env(backend),
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_env_override_selects_pure():
    result = _run(
        ["-c", "import repro.crypto as c; print(c.active_backend().name)"], "pure"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "pure"


def test_env_override_rejects_unknown_backend():
    result = _run(["-c", "import repro.crypto"], "enigma")
    assert result.returncode != 0
    assert "enigma" in result.stderr


def test_pure_backend_passes_core_crypto_tests():
    """The from-scratch path stays green: run the vector-pinned crypto
    tests plus the EphID suite in a subprocess forced to ``pure``."""
    result = _run(
        [
            "-m",
            "pytest",
            "-q",
            "-p",
            "no:cacheprovider",
            "tests/test_crypto_aes.py",
            "tests/test_crypto_modes.py",
            "tests/test_crypto_cmac.py",
            "tests/test_crypto_gcm.py",
            "tests/test_core_ephid.py",
        ],
        "pure",
    )
    assert result.returncode == 0, (
        f"pure-backend test run failed\n--- stdout ---\n{result.stdout[-4000:]}"
        f"\n--- stderr ---\n{result.stderr[-2000:]}"
    )
    summary = result.stdout.strip().splitlines()[-1]
    assert "passed" in summary, summary


def test_pure_backend_end_to_end_smoke():
    """A full seal/verify/open round-trip with every facade forced pure."""
    script = (
        "import repro.crypto as c\n"
        "from repro.core.ephid import EphIdCodec\n"
        "assert c.active_backend().name == 'pure'\n"
        "codec = EphIdCodec(bytes(16), bytes(range(16)))\n"
        "info = codec.open(codec.seal(7, 99, 3))\n"
        "assert (info.hid, info.exp_time) == (7, 99)\n"
        "aead = c.new_aead(bytes(32), 'gcm')\n"
        "assert aead.open(bytes(12), aead.seal(bytes(12), b'payload')) == b'payload'\n"
        "pub = c.ed25519.public_key(bytes(32))\n"
        "assert c.ed25519.verify(pub, b'm', c.ed25519.sign(bytes(32), b'm'))\n"
        "print('ok')\n"
    )
    result = _run(["-c", script], "pure")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
