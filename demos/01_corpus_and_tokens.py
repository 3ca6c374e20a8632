#!/usr/bin/env python3
"""Corpus loading, the message wire format, and tokenization.

Builds a tiny topic corpus on disk, loads it, renders a message to its
canonical wire format, parses it back, and shows the tokenizer rules.
"""

import tempfile
from pathlib import Path

from spamlab.corpus import (
    Label,
    Message,
    load_corpus,
    parse_message,
    render_message,
    tokenize,
)

with tempfile.TemporaryDirectory(prefix="spamlab-demo-") as root:
    topic_dir = Path(root) / "cooking"
    topic_dir.mkdir()
    (topic_dir / "000.txt").write_text("the stew needs more thyme\nsimmer slowly")
    (topic_dir / "001.txt").write_text("proof the dough overnight")
    (topic_dir / "002.txt").write_text("deglaze the pan with stock")
    corpus = load_corpus(topic_dir, "cooking")

print(f"loaded corpus {corpus.topic!r} with {len(corpus.bodies)} bodies")
print("first body:", corpus.bodies[0].split("\n")[0])

message = Message(
    from_addr="user3@example.org",
    to_addrs=("user7@example.org",),
    cc_addrs=(),
    bcc_addrs=(),
    subject="stew question",
    message_id="<1.0@host3.client.example>",
    received_headers=("from host3.client.example by mx.example.org; step 0 seq 1",),
    body=corpus.bodies[0],
    truth=Label.HAM,
    origin_host="host3.client.example",
    step=0,
)

wire = render_message(message)
print("\nrendered wire format:")
print(wire)

parsed = parse_message(wire)
assert parsed.body == message.body
assert parsed.subject == message.subject
print("parse round-trip ok")

print("\ntokenizer examples:")
for text in ("Buy NOW!! Buy", "it's $9.99 re-send", "a xx", "<html> tags survive"):
    print(f"  {text!r} -> {tokenize(text)}")
