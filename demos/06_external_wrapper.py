#!/usr/bin/env python3
"""Attaching an external filter through the wrapper protocol.

Any command that reads a rendered message on stdin and prints one line
"spam" or "ham" (optionally with a score) can be benchmarked. Server-level
commands receive the connection-log path in SPAMLAB_CONNLOG.
"""

import shlex
import sys
import tempfile
from pathlib import Path

from spamlab.corpus import Label, Message
from spamlab.filters import FilterBinding, Level, build_filter, classify

def message(body):
    return Message(
        from_addr="a@b.c", to_addrs=("u@example.org",), cc_addrs=(),
        bcc_addrs=(), subject="hello", message_id="<x@y>",
        received_headers=(), body=body, truth=Label.HAM,
        origin_host="h", step=0,
    )


with tempfile.TemporaryDirectory(prefix="spamlab-demo-") as tmp:
    root = Path(tmp)

    keyword_filter = root / "keyword_filter.py"
    keyword_filter.write_text(
        "import sys\n"
        "text = sys.stdin.read().lower()\n"
        "bad = ('pills', 'winner', 'casino')\n"
        "hits = sum(word in text for word in bad)\n"
        "print('spam %.2f' % (hits / len(bad)) if hits else 'ham')\n"
    )

    log_filter = root / "log_filter.py"
    log_filter.write_text(
        "import os, sys\n"
        "sys.stdin.read()\n"
        "entries = open(os.environ['SPAMLAB_CONNLOG']).read().splitlines()\n"
        "print('spam' if len(entries) > 3 else 'ham')\n"
    )

    python = shlex.quote(sys.executable)
    keyword = build_filter(FilterBinding(
        name="keyword", level=Level.USER,
        command=f"{python} {shlex.quote(str(keyword_filter))}",
    ))
    print("user-level keyword filter over stdin:")
    for body in ("casino winner pills", "lunch at noon?"):
        verdict = classify(keyword, message(body))
        print(f"  {body!r} -> {verdict.label.value}"
              + (f" (score {verdict.score})" if verdict.score is not None else ""))

    connlog = root / "connections.log"
    connlog.write_text("0\th0\ta@b\t1\n1\th1\tc@d\t2\n2\th0\ta@b\t1\n3\th0\ta@b\t5\n")
    watcher = build_filter(FilterBinding(
        name="log-watcher", level=Level.SERVER,
        command=f"{python} {shlex.quote(str(log_filter))}",
        needs_connection_log=True,
    ), log_path=connlog)
    verdict = classify(watcher, message("anything"))
    print(f"\nserver-level filter saw {connlog.name} via SPAMLAB_CONNLOG"
          f" -> {verdict.label.value}")
