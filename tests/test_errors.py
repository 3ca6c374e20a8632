import random
import re

import pytest

from conftest import build_scenario_files, make_message
from spamlab import errors
from spamlab.bayes import train_messages
from spamlab.corpus import Label, load_corpus
from spamlab.errors import ConfigInvalid, SpamlabError
from spamlab.evalcli import load_scenario, run_scenario
from spamlab.trafficgen import SimConfig, add_random_words, calibrate_spam_fraction


def test_errors_defines_exactly_five_classes():
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {
        "SpamlabError", "ConfigInvalid", "TrainerFailed", "WrapperCrashed", "IoFailure",
    }
    assert all(issubclass(getattr(errors, name), SpamlabError) for name in defined)


def _run(root, **scenario_overrides):
    path = build_scenario_files(
        root, sim_overrides={"activation_prob": 0.001}, scenario_overrides=scenario_overrides
    )
    run_scenario(load_scenario(path), root / "out")


def _empty_dir(root):
    (root / "empty").mkdir()
    return load_corpus(root / "empty", "spam")


# each config mistake a library call can meet, and the message it raises
CONFIG_MISTAKES = {
    "corpus-missing": (lambda root: load_corpus(root / "nope", "spam"),
                       "spam corpus not found: {root}/nope"),
    "corpus-empty": (_empty_dir, "spam corpus has no messages: {root}/empty"),
    "ham-directory-missing": (lambda root: _run(root, ham_corpus="absent"),
                              "no ham corpus directory at {root}/absent"),
    "dictionary-empty": (lambda root: add_random_words("body", [], 3, random.Random(0)),
                         "random-word injection needs a dictionary"),
    "no-spammers": (lambda root: calibrate_spam_fraction(SimConfig(n_spammers=0)),
                    "no spammers configured"),
    "training-set-empty": (
        lambda root: train_messages([], [make_message(truth=Label.SPAM)]), "ham=0 spam=1"
    ),
    "training-stream-without-spam": (
        lambda root: _run(root, training_steps=3),
        "filter bayes: the training stream has no spam; raise training_steps",
    ),
}


@pytest.mark.parametrize("mistake", CONFIG_MISTAKES)
def test_config_mistakes_are_value_errors(tmp_path, mistake):
    call, message = CONFIG_MISTAKES[mistake]
    expect = f"^{re.escape(message.format(root=tmp_path))}$"
    with pytest.raises(ValueError, match=expect) as raised:
        call(tmp_path)
    assert raised.type is ConfigInvalid

