package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestFig2ParallelismDeterministicGivenSeed renders quick Figure 2 with
// one and with four scheduler threads and requires every rendering to
// match the SHA-256 pinned in testdata/fig2_quick_sha256.json, so the
// output cannot depend on how Fig2's cells are spread over goroutines.
// A pre-cancelled context must return context.Canceled and leave no
// goroutine behind.
func TestFig2ParallelismDeterministicGivenSeed(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fig2_quick_sha256.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned []struct {
		Seed   int64  `json:"seed"`
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range pinned {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			fig, err := Fig2(context.Background(), Options{Seed: p.Seed, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := fig.Render(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != p.SHA256 {
				t.Errorf("seed %d, GOMAXPROCS=%d: rendering sha256 %s, want %s", p.Seed, procs, got, p.SHA256)
			}
		}
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig2(ctx, quickOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Fig2 returned %v, want context.Canceled", err)
	}
	// An exited goroutine can stay in the count for a moment.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled Fig2 left %d goroutines behind", runtime.NumGoroutine()-before)
		}
	}
}
