#!/bin/sh
# User-level external filter: prints "spam" when a body line of the message
# on stdin holds MARKER as a whole word, else "ham".
# usage: sh marker_filter.sh MARKER STATE_FILE
# Exits 3 when STATE_FILE, written by count_trainer.sh, is missing. Builtins
# only. The whole message is read even after a verdict, and the last line
# is read although it has no final newline, because render_message ends
# with the body verbatim.
marker=$1
state=$2
if [ -n "$SPAMBENCH_SPAWNS" ]; then printf x >> "$SPAMBENCH_SPAWNS"; fi
[ -s "$state" ] || exit 3
verdict=ham
in_body=
while IFS= read -r line || [ -n "$line" ]; do
    if [ -z "$in_body" ]; then
        [ -z "$line" ] && in_body=1
        continue
    fi
    case " $line " in
        *" $marker "*) verdict=spam ;;
    esac
done
echo "$verdict"
