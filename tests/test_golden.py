"""The report bytes of four small scenario runs, pinned by SHA-256.

A change that moves any of these files on purpose updates the digests
here and says why in CHANGES.md; any other change must leave them as they
are. The outputs do not depend on PYTHONHASHSEED.

The plain run gets every verdict right, so it cannot show a change in
Bayes scoring; the mixed run, with random words, has wrong verdicts at
both levels, and the wrappers run pins two deterministic sh wrappers, one
of them reading the connection log.
"""

import hashlib

import pytest

from conftest import KEYWORD, LOG_PARITY, build_scenario_files
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
    "mixed": (  # ss/sh/hs/hh: bayes 2/7/2/414, bs 2/7/0/416
        {"filters": "bayes U; bs S bayes", "random_words": "true"},
        {
            "results.csv": "0997d99aab9071816c0b911aae81606d7c3aa90b2be527d16357d37520f49ae3",
            "results.txt": "14168052805d5c789605bbe6b34dfb8466211c434ab397272a44c8811008953f",
            "connections.log": "9352e17d737bf8cedcddba3ac2944f63aa90b4c824e45f3ac934172dd244b3d6",
            "farfrr.svg": "905507e9aabed72dcc5bfe7542b81618d9c2e2edeabc205ada150155abb8d59b",
        },
    ),
    "wrappers": (
        {"filters": "log S; kw U", "training_steps": 0, "eval_steps": 6,
         "external.kw": KEYWORD, "external.log": LOG_PARITY, "connlog.log": "true"},
        {
            "results.csv": "b67f98cef7fa204c2a702e23616318b7f91c03f6dfa43dd5a3f8c196707a0d8b",
            "results.txt": "cae87779c9434dac8db0b92fdca936dbdf0d302b6d033b718d66b4ac79b42c6e",
            "connections.log": "b198a8f6e2371535e30980d0a9e276c0c98cef15072d10fbab558a3dd1d55aaa",
            "farfrr.svg": "5eb336906ef36cd6e8d17d4ceed06a1a948a73f47a4444a667592836a41ed7e9",
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
