#!/bin/sh
# Server-level external filter: prints "spam" when the From: header names
# an address at DOMAIN, else "ham".
# usage: sh sender_filter.sh DOMAIN
# Exits 3 unless $SPAMLAB_CONNLOG is a non-empty file whose first line has
# the four tab-separated fields of a connection-log entry. Builtins only;
# the whole message is read.
domain=$1
if [ -n "$SPAMBENCH_SPAWNS" ]; then printf x >> "$SPAMBENCH_SPAWNS"; fi
[ -s "$SPAMLAB_CONNLOG" ] || exit 3
IFS= read -r first < "$SPAMLAB_CONNLOG"
case "$first" in
    *"	"*"	"*"	"*) ;;
    *) exit 3 ;;
esac
verdict=ham
in_body=
while IFS= read -r line || [ -n "$line" ]; do
    [ -n "$in_body" ] && continue
    case "$line" in
        "") in_body=1 ;;
        "From: "*"@$domain") verdict=spam ;;
    esac
done
echo "$verdict"
