package aggregate

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"hcrowd/internal/dataset"
	"hcrowd/internal/rngutil"
)

// goldenOutput is one aggregator's pinned output on one matrix: a
// SHA-256 over the bits of PTrue then WorkerAcc, plus the iteration
// count and convergence flag.
type goldenOutput struct {
	Name       string `json:"name"`
	SHA256     string `json:"sha256"`
	Iterations int    `json:"iterations"`
	Converged  bool   `json:"converged"`
}

// resultDigest hashes a result's posteriors and worker accuracies bit
// for bit.
func resultDigest(r *Result) string {
	h := sha256.New()
	var b [8]byte
	for _, xs := range [][]float64{r.PTrue, r.WorkerAcc} {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAggregatorsGolden pins every baseline's output bit for bit on two
// fixed matrices: a 200-task sentiment-like preliminary matrix, and the
// same matrix with 500 extra expert answers (a Figure 2 budget point).
// Rewriting an aggregator's inner loops must leave these hashes alone.
func TestAggregatorsGolden(t *testing.T) {
	cfg := dataset.DefaultSentiConfig()
	cfg.NumTasks = 200
	ds, err := dataset.SentiLike(rngutil.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	extra, err := ds.WithExpertAnswers(rngutil.New(2), 500)
	if err != nil {
		t.Fatal(err)
	}
	outputs := func(m *dataset.Matrix) []goldenOutput {
		var out []goldenOutput
		for _, a := range Registry(4) {
			res, err := a.Aggregate(m)
			if err != nil {
				t.Fatalf("%s: %v", a.Name(), err)
			}
			out = append(out, goldenOutput{a.Name(), resultDigest(res), res.Iterations, res.Converged})
		}
		return out
	}
	got, err := json.MarshalIndent(struct {
		Prelim   []goldenOutput `json:"prelim"`
		Extra500 []goldenOutput `json:"extra500"`
	}{outputs(ds.Prelim), outputs(extra)}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "aggregate_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), got) {
		t.Errorf("aggregator outputs drifted from testdata/aggregate_golden.json:\n got %s\nwant %s", got, bytes.TrimSpace(want))
	}
}
