#!/bin/sh
# External trainer: writes the number of messages in each training mbox to
# STATE_FILE as "ham N" and "spam N" lines. Builtins only.
# usage: sh count_trainer.sh STATE_FILE HAM_MBOX SPAM_MBOX
count_messages() {
    n=0
    while IFS= read -r line || [ -n "$line" ]; do
        case "$line" in
            "From "*) n=$((n + 1)) ;;
        esac
    done < "$1"
}
count_messages "$2"
ham=$n
count_messages "$3"
printf 'ham %s\nspam %s\n' "$ham" "$n" > "$1"
