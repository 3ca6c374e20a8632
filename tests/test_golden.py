"""The report bytes of two small scenario runs, pinned by SHA-256.

A change that moves any of these files on purpose updates the digests
here and says why in CHANGES.md; any other change must leave them as they
are. The outputs do not depend on PYTHONHASHSEED.
"""

import hashlib

import pytest

from conftest import build_scenario_files
from spamlab.evalcli import load_scenario, run_scenario

GOLDEN = {
    "plain": (
        {"filters": "bayes U"},
        {
            "results.csv": "23c23ca4a234bf139c3c86c2bde4934b70f9d70b1455b2ac849410047c86e8ff",
            "results.txt": "86ec19d94a677f9cbcc709a40b43be2c16fd0562ee8faaa550b07a377d01302b",
            "connections.log": "3268d8b27faeee42ac06c81d827b232c20d698551a066962a6737159b7cbcce7",
            "farfrr.svg": "31e2a375f8dfc8a258e346b8c5a2c327a4f4aad033b17531d956b91b69f6ed1f",
        },
    ),
    "personalized": (
        {"personalized": "true", "random_words": "true", "bogus_headers": "true"},
        {
            "results.csv": "8038fa40bf903a799fe824ea3c6f3537359518c7b2401b03710a7723a71067fd",
            "results.txt": "f6795c0a8b498cdad468c5631e0299f1eb7caeaac8a60866d975a0498076531c",
            "connections.log": "7b8d256b574de3b08e5c056b69bef5088e74f3b1c8cb062462bb93c22539be0f",
            "farfrr.svg": "730573018f26cb159d2ca3a192c9d7a75011b5c1d8b8bc2a1d78d9347fef3c37",
        },
    ),
}


@pytest.mark.parametrize("run", sorted(GOLDEN))
def test_reports_are_byte_identical(tmp_path, run):
    overrides, digests = GOLDEN[run]
    path = build_scenario_files(tmp_path, scenario_overrides=overrides)
    run_scenario(load_scenario(path), tmp_path / "out")
    got = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in digests
    }
    assert got == digests
