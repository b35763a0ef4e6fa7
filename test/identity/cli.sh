#!/bin/sh
# Runs pgrid_cli.exe once per CLI line of the smoke identity manifest and
# prints those lines as md5sum does: the MD5 of each run's stdout (of its
# trace, for the .jsonl), then the file it went to.  Every run uses the
# CLI's default seed, 42; the two --fault-plan runs are the moderate and
# maximal plans of the resilience sweep.
#
# Usage: cli.sh PGRID_CLI_EXE   (in the directory the outputs go to)
set -e
cli=$1

run() {
  out=$1
  shift
  "$cli" "$@" > "$out"
}

run planetlab-48.txt planetlab --peers 48
run planetlab-48-robust-txn.txt planetlab --peers 48 --robust --txn
run planetlab-48-balance.txt planetlab --peers 48 --balance
run planetlab-48-overload.txt planetlab --peers 48 --overload
run planetlab-48-maint-period-30.txt planetlab --peers 48 --maint-period 30
run planetlab-96-fault-0.5.txt planetlab --peers 96 --fault-plan \
  "burst(6000,30000,0.01,0.2,0,0.3);partition(21000,22800,0.075);crash(24000,28200,0.000125)"
run planetlab-96-fault-1.0.txt planetlab --peers 96 --fault-plan \
  "burst(6000,30000,0.02,0.2,0,0.6);partition(21000,22800,0.15);crash(24000,28200,0.00025)"
run construct-64-trie.txt construct --peers 64 --trie
run /dev/null planetlab --peers 48 --robust --trace planetlab-48-robust.jsonl

md5sum planetlab-48.txt planetlab-48-robust-txn.txt planetlab-48-balance.txt \
  planetlab-48-overload.txt planetlab-48-maint-period-30.txt \
  planetlab-96-fault-0.5.txt planetlab-96-fault-1.0.txt construct-64-trie.txt \
  planetlab-48-robust.jsonl
