#!/usr/bin/env bash
# Large-N online golden smoke: 1M queries through the online kernel; the
# printed result hash and the journal's sha256 must equal constants
# recorded from the former closure-based kernel.  The golden fixtures
# cover small instances; this pins the contract at a scale the unit tests
# cannot afford.  --gen-faults injects crashes and capacity losses so the
# shed/relocate paths run at a scale where the per-site handle lists
# compact (>64 entries), the regime the kernel is most likely to diverge
# in.
#
#   tools/large_n_golden_smoke.sh BUILD_DIR
set -euo pipefail
build=${1:?usage: large_n_golden_smoke.sh BUILD_DIR}

"$build"/tools/edgerep_cli online --gen-sites 256 \
  --gen-queries 1000000 --arrival-rate 100 --gen-faults 8 \
  --record large.journal | tee large.out
# Recorded at commit 98aca196, closure kernel selected, by:
#   edgerep_cli online --gen-sites 256 --gen-queries 1000000
#     --arrival-rate 100 --gen-faults 8 --record large.journal
want_hash='result hash: 4d872d07505913d4'
want_journal=17960edce8a03713550a3a8e31515c8fa9a1f2eb37182f62713c121a360a82fe
got_hash=$(grep '^result hash:' large.out)
[ "$got_hash" = "$want_hash" ] \
  || { echo "golden hash mismatch: '$got_hash'"; exit 1; }
# Byte-level causal equivalence, not just result-hash equality: the
# flight-recorder journal must match record for record.
got_journal=$(sha256sum large.journal | cut -d' ' -f1)
[ "$got_journal" = "$want_journal" ] \
  || { echo "golden journal mismatch: $got_journal"; exit 1; }
echo "large-N golden smoke ok: $got_hash"
