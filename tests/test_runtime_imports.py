"""The runtime imports nothing outside the standard library.

A MetaComm process — construction with lanes and device links, the
static analysis (whose cycle check walks the mapping dependency graph)
and close — is run in a fresh interpreter started with ``-S``, so no
site-packages directory is even on the path, and the modules it loaded
are listed.  ``_hashlib`` (OpenSSL's libcrypto) must not be among them:
code fingerprints are checksums, not hash digests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SYSTEM_RUN = """
import json, sys
from repro.core import MetaComm, MetaCommConfig

system = MetaComm(MetaCommConfig(coordinator_lanes=2, device_links=True))
system.analyze()
system.close()
print(json.dumps(sorted(sys.modules)))
"""

FINGERPRINTS = """
import json
from repro.schemas.mappings import standard_mappings

print(json.dumps({
    f"{name}.{rule.target}": rule.code.fingerprint()
    for name, mapping in sorted(standard_mappings().items())
    for rule in mapping.rules
}))
"""


def _run(script: str, *flags: str, hash_seed: str = "0") -> object:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, *flags, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_a_system_loads_only_the_standard_library():
    loaded = _run(SYSTEM_RUN, "-S")
    outside = sorted(
        {name.partition(".")[0] for name in loaded}
        - set(sys.stdlib_module_names)
        - {"__main__", "repro"}
    )
    assert outside == []
    assert "_hashlib" not in loaded


def test_fingerprints_are_equal_across_processes():
    first = _run(FINGERPRINTS, hash_seed="1")
    second = _run(FINGERPRINTS, hash_seed="2")
    assert first == second
    assert all(len(fp) == 16 for fp in first.values())
