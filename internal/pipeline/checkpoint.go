package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"hcrowd/internal/belief"
	"hcrowd/internal/dataset"
	"hcrowd/internal/taskselect"
)

// CheckpointVersion is the current checkpoint format version. Version 0
// (the original beliefs+spend format, which predates the field) still
// loads; the warm-resume sections below are optional.
const CheckpointVersion = 1

// StopVotes is the stopping rule's per-fact vote counts in global fact
// order, checkpointed so a resumed run freezes exactly the facts the
// interrupted run would have.
type StopVotes struct {
	Yes []int `json:"yes"`
	No  []int `json:"no"`
}

// Checkpoint captures a run's resumable state: the per-task beliefs and
// the budget already spent, plus — since version 1 — the optional warm
// sections: the incremental selector's gain cache and the stopping
// rule's vote counts. Long labeling jobs can persist it between rounds
// (see Config.Journal) and continue after a restart by passing it as
// Config.From to the flavor that wrote it (Run or RunCostAware); the answer
// stream itself is not replayed — the beliefs already incorporate it. A
// warm resume re-scans no unchanged task: the selection cache holds the
// round-start gains the interrupted run had already computed.
type Checkpoint struct {
	Version     int                        `json:"version,omitempty"`
	Beliefs     []*belief.Dist             `json:"beliefs"`
	BudgetSpent float64                    `json:"budget_spent"`
	Selection   *taskselect.SelectionCache `json:"selection_cache,omitempty"`
	StopVotes   *StopVotes                 `json:"stop_votes,omitempty"`
}

// NewCheckpoint snapshots a result's state, including the warm-resume
// sections when the run produced them.
func NewCheckpoint(res *Result) *Checkpoint {
	beliefs := make([]*belief.Dist, len(res.Beliefs))
	for i, b := range res.Beliefs {
		beliefs[i] = b.Clone()
	}
	return &Checkpoint{
		Version:     CheckpointVersion,
		Beliefs:     beliefs,
		BudgetSpent: res.BudgetSpent,
		Selection:   res.selCache,
		StopVotes:   res.stopVotes,
	}
}

// Write serializes the checkpoint as JSON.
func (c *Checkpoint) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(c)
}

// ReadCheckpoint deserializes a checkpoint written by Write. Checkpoints
// from before the versioned format (no version field, no warm sections)
// load as version 0 and resume cold.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("pipeline: checkpoint: %w", err)
	}
	if c.Version < 0 || c.Version > CheckpointVersion {
		return nil, fmt.Errorf("pipeline: checkpoint version %d, support <= %d", c.Version, CheckpointVersion)
	}
	if len(c.Beliefs) == 0 {
		return nil, errors.New("pipeline: checkpoint has no beliefs")
	}
	// NOT `< 0` alone: every comparison with NaN is false, so a NaN spend
	// would pass a plain sign check and poison all later budget math
	// (the resumed run's remaining-budget clamp, accumulate's sums).
	if math.IsNaN(c.BudgetSpent) || math.IsInf(c.BudgetSpent, 0) {
		return nil, fmt.Errorf("pipeline: checkpoint has non-finite spend %v", c.BudgetSpent)
	}
	if c.BudgetSpent < 0 {
		return nil, errors.New("pipeline: checkpoint has negative spend")
	}
	if c.Selection != nil {
		if err := c.Selection.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: checkpoint: %w", err)
		}
	}
	if v := c.StopVotes; v != nil {
		if len(v.Yes) != len(v.No) {
			return nil, fmt.Errorf("pipeline: checkpoint stop votes: %d yes vs %d no counts", len(v.Yes), len(v.No))
		}
		for i := range v.Yes {
			if v.Yes[i] < 0 || v.No[i] < 0 {
				return nil, fmt.Errorf("pipeline: checkpoint stop votes: negative count for fact %d", i)
			}
		}
	}
	return &c, nil
}

// matches verifies the checkpoint fits the dataset's task structure.
func (c *Checkpoint) matches(ds *dataset.Dataset) error {
	if len(c.Beliefs) != len(ds.Tasks) {
		return fmt.Errorf("pipeline: checkpoint has %d tasks, dataset has %d", len(c.Beliefs), len(ds.Tasks))
	}
	for t, b := range c.Beliefs {
		if b == nil {
			return fmt.Errorf("pipeline: checkpoint task %d belief missing", t)
		}
		if b.NumFacts() != len(ds.Tasks[t]) {
			return fmt.Errorf("pipeline: checkpoint task %d has %d facts, dataset has %d",
				t, b.NumFacts(), len(ds.Tasks[t]))
		}
	}
	return nil
}

// CheckFlavor reports whether the checkpoint can resume under the
// uniform loop (costAware false: Run) or the cost-aware one (costAware
// true: RunCostAware). A checkpoint whose selection cache was written by
// the other flavor's engine is an error naming both flavors; a cache-less
// checkpoint (version 0, or a run whose selector is not incremental)
// resumes under either, and a nil checkpoint passes.
func (c *Checkpoint) CheckFlavor(costAware bool) error {
	if c == nil || c.Selection == nil {
		return nil
	}
	wrote := c.Selection.Kind == taskselect.CacheKindAssign
	if wrote == costAware {
		return nil
	}
	name := map[bool]string{false: "uniform (Run)", true: "cost-aware (RunCostAware)"}
	return fmt.Errorf("pipeline: checkpoint was written by the %s loop, cannot resume it with the %s loop", name[wrote], name[costAware])
}

// accumulate folds the pre-checkpoint spend back into a resumed result,
// so the report reads cumulatively from the job's start.
func accumulate(res *Result, spentBefore float64) *Result {
	res.BudgetSpent += spentBefore
	for i := range res.Rounds {
		res.Rounds[i].BudgetSpent += spentBefore
	}
	return res
}
