package dataset

import (
	"bytes"
	"math"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

func smallConfig() SentiConfig {
	cfg := DefaultSentiConfig()
	cfg.NumTasks = 20
	return cfg
}

func TestSentiLikeShape(t *testing.T) {
	rng := rngutil.New(1)
	ds, err := SentiLike(rng, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumFacts() != 100 {
		t.Errorf("facts = %d, want 100", ds.NumFacts())
	}
	if len(ds.Tasks) != 20 {
		t.Errorf("tasks = %d", len(ds.Tasks))
	}
	for _, task := range ds.Tasks {
		if len(task) != 5 {
			t.Errorf("task size = %d", len(task))
		}
	}
	ce, cp := ds.Split()
	if len(ce) != 2 || len(cp) != 6 {
		t.Errorf("split = %d/%d, want 2/6", len(ce), len(cp))
	}
	// Fully redundant: every CP worker answered every fact.
	if got := ds.Prelim.NumAnswers(); got != 6*100 {
		t.Errorf("answers = %d, want 600", got)
	}
}

func TestSentiLikeDeterministic(t *testing.T) {
	a, err := SentiLike(rngutil.New(7), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SentiLike(rngutil.New(7), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for f := range a.Truth {
		if a.Truth[f] != b.Truth[f] {
			t.Fatal("same seed, different truth")
		}
	}
	if a.Prelim.NumAnswers() != b.Prelim.NumAnswers() {
		t.Fatal("same seed, different answer counts")
	}
}

func TestSentiLikeWorkerAccuracyRealized(t *testing.T) {
	// Empirical accuracy of each preliminary worker must track their
	// configured accuracy.
	cfg := DefaultSentiConfig()
	cfg.NumTasks = 400 // 2000 facts for tight frequencies
	ds, err := SentiLike(rngutil.New(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, cp := ds.Split()
	for wi, w := range cp {
		correct, total := 0, 0
		for _, o := range ds.Prelim.ByWorker(wi) {
			total++
			if o.Value == ds.Truth[o.Fact] {
				correct++
			}
		}
		got := float64(correct) / float64(total)
		if math.Abs(got-w.Accuracy) > 0.03 {
			t.Errorf("worker %s empirical %v vs configured %v", w.ID, got, w.Accuracy)
		}
	}
}

func TestSentiLikeCorrelation(t *testing.T) {
	// With small alpha, facts within a task must be far from independent:
	// measure the average absolute correlation between adjacent facts and
	// compare against a large-alpha (near independent) dataset.
	corr := func(alpha float64) float64 {
		cfg := DefaultSentiConfig()
		cfg.NumTasks = 500
		cfg.CorrelationAlpha = alpha
		ds, err := SentiLike(rngutil.New(11), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		n := 0
		for _, task := range ds.Tasks {
			for j := 1; j < len(task); j++ {
				a, b := ds.Truth[task[j-1]], ds.Truth[task[j]]
				if a == b {
					sum++
				}
				n++
			}
		}
		return math.Abs(sum/float64(n) - 0.5) // deviation from independence
	}
	dep := corr(0.1)
	indep := corr(100)
	if dep < 0.1 {
		t.Errorf("low-alpha agreement deviation %v, want strong correlation", dep)
	}
	if indep > 0.05 {
		t.Errorf("high-alpha agreement deviation %v, want near independence", indep)
	}
}

func TestSentiLikeAnswerRate(t *testing.T) {
	cfg := smallConfig()
	cfg.AnswerRate = 0.5
	ds, err := SentiLike(rngutil.New(5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(ds.Prelim.NumAnswers()) / float64(6*100)
	if math.Abs(got-0.5) > 0.08 {
		t.Errorf("answer rate realized %v, want ~0.5", got)
	}
}

func TestSentiConfigValidate(t *testing.T) {
	bad := []func(*SentiConfig){
		func(c *SentiConfig) { c.NumTasks = 0 },
		func(c *SentiConfig) { c.FactsPerTask = 0 },
		func(c *SentiConfig) { c.FactsPerTask = 25 },
		func(c *SentiConfig) { c.CorrelationAlpha = 0 },
		func(c *SentiConfig) { c.AnswerRate = 0 },
		func(c *SentiConfig) { c.AnswerRate = 1.5 },
		func(c *SentiConfig) { c.Theta = 0.3 },
	}
	for i, mutate := range bad {
		cfg := DefaultSentiConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestWideTask(t *testing.T) {
	ds, err := WideTask(rngutil.New(2), 22, crowd.DefaultHeterogeneous(), 0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Tasks) != 1 || len(ds.Tasks[0]) != 22 {
		t.Fatalf("task shape: %d tasks, first %d facts", len(ds.Tasks), len(ds.Tasks[0]))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := WideTask(rngutil.New(2), 0, crowd.DefaultHeterogeneous(), 0.9, 0.5); err == nil {
		t.Error("zero facts accepted")
	}
}

func TestDatasetValidateCatchesCorruption(t *testing.T) {
	ds, err := SentiLike(rngutil.New(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	broken := *ds
	broken.Tasks = ds.Tasks[1:] // fact 0..4 now in no task
	if broken.Validate() == nil {
		t.Error("uncovered facts accepted")
	}
	broken2 := *ds
	broken2.Tasks = append([][]int{{0, 1}}, ds.Tasks...) // facts in two tasks
	if broken2.Validate() == nil {
		t.Error("overlapping tasks accepted")
	}
}

func TestTaskOf(t *testing.T) {
	ds, err := SentiLike(rngutil.New(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	task, local := ds.TaskOf()
	for tIdx, facts := range ds.Tasks {
		for j, f := range facts {
			if task[f] != tIdx || local[f] != j {
				t.Fatalf("TaskOf wrong for fact %d: task %d local %d", f, task[f], local[f])
			}
		}
	}
}

func TestTaskTruth(t *testing.T) {
	ds, err := SentiLike(rngutil.New(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	tt := ds.TaskTruth(3)
	for j, f := range ds.Tasks[3] {
		if tt[j] != ds.Truth[f] {
			t.Fatal("TaskTruth mismatch")
		}
	}
}

func TestWithExpertAnswers(t *testing.T) {
	ds, err := SentiLike(rngutil.New(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	before := ds.Prelim.NumAnswers()
	m, err := ds.WithExpertAnswers(rngutil.New(2), 50)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumAnswers() != before+50 {
		t.Errorf("answers = %d, want %d", m.NumAnswers(), before+50)
	}
	if ds.Prelim.NumAnswers() != before {
		t.Error("WithExpertAnswers mutated the original matrix")
	}
	// Budget larger than available pairs is truncated, not an error.
	m2, err := ds.WithExpertAnswers(rngutil.New(2), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ce, _ := ds.Split()
	if m2.NumAnswers() != before+len(ce)*ds.NumFacts() {
		t.Errorf("oversized budget: answers = %d", m2.NumAnswers())
	}
}

// A negative budget is an error, not a slice-bounds panic.
func TestWithExpertAnswersRejectsNegativeBudget(t *testing.T) {
	ds, err := SentiLike(rngutil.New(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m, err := ds.WithExpertAnswers(rngutil.New(2), -1); err == nil {
		t.Fatalf("budget -1 accepted (%d answers)", m.NumAnswers())
	}
}

func TestRoundTripJSON(t *testing.T) {
	ds, err := SentiLike(rngutil.New(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFacts() != ds.NumFacts() || len(got.Tasks) != len(ds.Tasks) {
		t.Fatal("round trip changed shape")
	}
	for f := range ds.Truth {
		if got.Truth[f] != ds.Truth[f] {
			t.Fatal("round trip changed truth")
		}
	}
	if got.Prelim.NumAnswers() != ds.Prelim.NumAnswers() {
		t.Fatal("round trip changed answers")
	}
	if got.Theta != ds.Theta {
		t.Fatal("round trip changed theta")
	}
	// Spot-check one worker's answers survive keyed by ID.
	id := ds.Prelim.WorkerIDs()[0]
	gi, ok := got.Prelim.WorkerIndex(id)
	if !ok {
		t.Fatalf("worker %s lost in round trip", id)
	}
	oi, _ := ds.Prelim.WorkerIndex(id)
	a, b := ds.Prelim.ByWorker(oi), got.Prelim.ByWorker(gi)
	if len(a) != len(b) {
		t.Fatal("worker answer count changed")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString(`{"unknown_field": 1}`)); err == nil {
		t.Error("unknown fields accepted")
	}
	if _, err := Read(bytes.NewBufferString(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
	if _, err := Read(bytes.NewBufferString(`{"truth":[],"tasks":[],"workers":[],"theta":0.9,"answers":[]}`)); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestDatasetValidateRejectsUnsortedTaskFacts(t *testing.T) {
	ds, err := SentiLike(rngutil.New(1), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	broken := *ds
	broken.Tasks = make([][]int, len(ds.Tasks))
	copy(broken.Tasks, ds.Tasks)
	rev := append([]int{}, ds.Tasks[0]...)
	rev[0], rev[1] = rev[1], rev[0]
	broken.Tasks[0] = rev
	if broken.Validate() == nil {
		t.Error("unsorted task facts accepted")
	}
}
