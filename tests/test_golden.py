"""Golden CLI output: one SHA-256 per command group.

Each digest covers, for every invocation in its group, the argv, the exit
code, stdout and stderr, so any byte that changes in any of them shows up
as a changed digest.  verify's residual digits depend on the platform's
libm, and so does the n that holds a sweep's worst residual: both are
masked in stdout before it is digested (only verify prints them), and the
verify-masked group stays at n <= 10**4, where no tol= passes through
math.log.  The same digests
are recomputed under every supported interpreter found on PATH.
"""

import collections
import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gammaprod import run_cli, survey

ODD_N = range(1, 200, 2)
MERSENNE_M = range(2, 65)
FORMATS = ("text", "latex", "json")

GROUPS = {
    "decompose": [["decompose", str(n)] for n in ODD_N],
    **{f"identities-{fmt}": [["identities", str(n), "--format", fmt] for n in ODD_N]
       for fmt in FORMATS},
    "full-product": [["full-product", str(n)] for n in ODD_N],
    **{f"mersenne-{fmt}": [["mersenne", str(m), "--format", fmt] for m in MERSENNE_M]
       for fmt in FORMATS},
    "survey-text": [["survey", "--max", "999"]],
    "survey-json": [["survey", "--max", "999", "--json"]],
    # test_survey_4999_rows_take_every_path: these rows cover each of survey_row's paths
    "survey-4999-text": [["survey", "--max", "4999"]],
    "survey-4999-json": [["survey", "--max", "4999", "--json"]],
    "check-claims-text": [["survey", "--max", "99", "--check-claims"]],
    "check-claims-json": [["survey", "--max", "99", "--check-claims", "--json"]],
    "verify-masked": [
        *(["verify", str(n)] for n in ODD_N),
        ["verify", "--max", "199"],
        ["verify", "199", "--coset-of", "3"],
        ["verify", "199", "--coset-of", "3", "--tol", "1e-30"],  # a long coset misses: exit 1
        ["verify", "7", "--tol", "-1e-9"],  # the tolerance refusal: exit 2
    ],
    # the prime 1000003 has one coset of 1,000,002; 2**20 - 1 has 24,000 cosets of 20.
    # No verify: past n = 10**4 its unmasked tol= goes through libm's math.log.
    "large-n": [
        ["decompose", "1000003"],
        *(["identities", "1000003", "--format", fmt] for fmt in FORMATS),
        ["decompose", "1048575"],
        ["identities", "1048575", "--format", "json"],
    ],
    "refusals": [
        ["decompose", str(2**61 - 1)],
        ["verify", str(2**61 - 1)],
        ["verify", "--max", "100001"],
        ["survey", "--max", "2"],
        ["mersenne", "10001"],
    ],
}

DIGESTS = {
    "check-claims-json": "dd0aee01e8c30f411ea91c052721b17acc9708f0fc78357e390d1f8212530921",
    "check-claims-text": "232d86b5dad5e321246b5dadc0391507805512bd8ce32adeb44e6ed9c317cdb2",
    "decompose": "10dc5c6daa31ed85c0c7369c71c926a37402cbdce7840b06c87503b4bbe92a75",
    "full-product": "1865129bdbc5c2b20f4ebc13dc90305795148c94f59870eabf46c15457d26c90",
    "identities-json": "01280c375f774566b15b037e578c8b93ef0b27d0ec177ab3e489b0d476935efd",
    "identities-latex": "390694bf00e8bb574593cdae45bc9af3df3ae60a9ac88a7260a1a2e21ae03249",
    "identities-text": "f5629a3a25daa859a17cca155ca90b34164495f46c2d01d3e22bba0d24d3c034",
    "large-n": "a8fccbebeba93cc091ec2358fbe89e458aa99e134895e220c6a8ef3ce66175a6",
    "mersenne-json": "903445d827d296af1e671faebda85cdd962855cb4bfd5662a47117d1f826da95",
    "mersenne-latex": "eab0baa7ee0acd4d51c102fd5d88ef40ef059d63b36ae2bcc783ea42841d2351",
    "mersenne-text": "27f3b2f8fa227ae55c823cb80b371152d241139ae4b3d7230a2236e0dfd6dcce",
    "refusals": "c90b300ff464e8263925915ed8ca8124f2148f9cbee1e3f2637fd34471a934af",
    "survey-4999-json": "7aa9d34e3380b2c8c280eea8cd7ff3837e9a0bea9920a83d798027fba101c8e6",
    "survey-4999-text": "313de6d751c8354c4f8491236d53f03fd4058325b01466938d3f511f3c95ef03",
    "survey-json": "fa40e2f463fd8f3e69e69999208e18326f19cf9a7257ccc2019677b9020f3184",
    "survey-text": "d6e9c0963b5a069d81added9051702042c1207261124c1918467d242f2821de1",
    "verify-masked": "a1d68bd1a96f294454a3da4739d8148f0a965df03d8bf67fa4c3c58beb100535",
}


def _digest(argvs) -> str:
    sha = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        out = re.sub(r"residual=\S+", "residual=#", out.getvalue())
        out = re.sub(r"^(worst \S+ residual) .*$", r"\1 #", out, flags=re.M)
        sha.update(json.dumps([argv, code, out, err.getvalue()]).encode())
    return sha.hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_output_is_unchanged(group):
    assert _digest(GROUPS[group]) == DIGESTS[group]


def test_survey_4999_rows_take_every_path(monkeypatch):
    # a row calls neither wrapped routine on the shortcut, both on the table,
    # and _fewest_ones alone on the scan
    called, table, fewest = [], survey._coset_representatives, survey._fewest_ones
    monkeypatch.setattr(survey, "_coset_representatives",
                        lambda *args: called.append("table") or table(*args))
    monkeypatch.setattr(survey, "_fewest_ones",
                        lambda *args: called.append("scan") or fewest(*args))
    paths = collections.Counter()
    for n in range(3, 5000, 2):
        called.clear()
        survey.survey_row(n)
        paths[called[0] if called else "shortcut"] += 1
    assert set(paths) == {"shortcut", "table", "scan"}, paths


# A stdlib-only child: it reads GROUPS on stdin and prints their digests.
_CHILD = "\n".join([
    "import contextlib, hashlib, io, json, re, sys",
    "from gammaprod import run_cli",
    inspect.getsource(_digest),
    "print(json.dumps({group: _digest(argvs) for group, argvs in json.load(sys.stdin).items()}))",
])


@pytest.mark.parametrize("minor", [10, 11, 12, 13])  # pyproject.toml: requires-python >= 3.10
def test_digests_match_under_each_supported_interpreter(minor):
    if sys.version_info[:2] == (3, minor):
        pytest.skip("the running interpreter is checked in process")
    exe = shutil.which(f"python3.{minor}")
    if exe is None:
        pytest.skip(f"no python3.{minor} on PATH")
    probe = subprocess.run([exe, "-c", "import sys; print(*sys.version_info[:2])"],
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0 or probe.stdout.split() != ["3", str(minor)]:
        pytest.skip(f"python3.{minor} on PATH does not start as Python 3.{minor}")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([exe, "-c", _CHILD], input=json.dumps(GROUPS), capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == DIGESTS
