package results

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sort"

	"tcphack/internal/campaign"
)

// CodeVersion is the simulator's behavior version, folded into every
// point fingerprint as a salt. Bump it whenever a change alters
// simulation output (new MAC timing, a fixed RNG stream, a changed
// default), so memoization stores built by older builds miss instead
// of serving stale rows. Changes that cannot affect any Result (docs,
// CLIs, the distribution layer itself) need no bump.
const CodeVersion = "hack-sim-v7"

// PointFingerprint hashes one grid point's content-addressed identity
// — flat key=value fields (campaign.WireSpec.FingerprintFields) plus a
// code-version salt — into the memoization key. The hash is over
// sorted keys, so field insertion order never matters; it extends the
// sweep-shape fingerprint (Table.Fingerprint) down to point
// granularity: equal fingerprints promise byte-identical Result rows,
// which is what lets overlapping sweeps re-simulate only what changed.
func PointFingerprint(salt string, fields map[string]string) string {
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	fmt.Fprintf(h, "salt=%s\n", salt)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, fields[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// Merge assembles partial row sets into one complete result slice of n
// grid points in Points() order — the deterministic join the
// distributed layer uses to turn shard emissions back into the exact
// output a serial campaign.Run would have produced. Every row lands at
// its Point.Index; duplicate deliveries of the same index (at-least-
// once shard completion) must agree exactly, and every index must be
// covered. Violations are errors, never silent: a conflicting
// duplicate means two workers disagreed on a deterministic simulation
// (a code-version mismatch), and a gap means the job is not actually
// complete.
func Merge(n int, parts ...campaign.Results) (campaign.Results, error) {
	out := make(campaign.Results, n)
	have := make([]bool, n)
	for _, part := range parts {
		for _, r := range part {
			if r.Index < 0 || r.Index >= n {
				return nil, fmt.Errorf("results: merge: row index %d out of range [0,%d)", r.Index, n)
			}
			if have[r.Index] {
				if !reflect.DeepEqual(out[r.Index], r) {
					return nil, fmt.Errorf("results: merge: conflicting duplicate rows for index %d (non-deterministic producer or code-version mismatch)", r.Index)
				}
				continue
			}
			out[r.Index] = r
			have[r.Index] = true
		}
	}
	var missing []int
	for i, ok := range have {
		if !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("results: merge: %d of %d rows missing (first missing index %d)",
			len(missing), n, missing[0])
	}
	return out, nil
}
