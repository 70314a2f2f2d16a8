package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON holds SHA-256 digests of outputs the full-size workloads
// produce with -seed 1, keyed by workload and then by the seed of the
// figure or dataset.
//
//go:embed testdata/golden.json
var goldenJSON []byte

var golden = func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("hcperf: testdata/golden.json: " + err.Error())
	}
	return g
}()

// checkDigest fails the run when an output differs from the same
// seed's earlier output in this run or, for full-size runs, from its
// golden. A full-size output without a golden is printed, so that one
// can be recorded.
func checkDigest(r *runner, kind string, seed int64, digest string, seen map[int64]string) {
	if prev, ok := seen[seed]; ok {
		r.check(prev == digest, "%s seed %d: output changed between repetitions (%s then %s)", kind, seed, prev, digest)
		return
	}
	seen[seed] = digest
	if r.sz != full {
		return
	}
	want, ok := golden[kind][fmt.Sprint(seed)]
	if !ok {
		r.printf("%s seed %d digest %s (no golden)", kind, seed, digest)
		return
	}
	r.check(want == digest, "%s seed %d: digest %s, golden %s", kind, seed, digest, want)
}
