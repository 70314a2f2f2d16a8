package taskselect

import (
	"context"
	"fmt"
	"testing"

	"hcrowd/internal/crowd"
	"hcrowd/internal/rngutil"
)

// TestProjKeyDistinguishesLargeFactIndices is the regression test for the
// projection-memo cache key: the old single-byte-per-fact encoding
// truncated indices ≥ 256, so fact sets {0} and {256} (or {1,2} and
// {1,258}) collided and could serve the wrong cached projection.
func TestProjKeyDistinguishesLargeFactIndices(t *testing.T) {
	collisions := [][2][]int{
		{{0}, {256}},       // 256 & 0xff == 0
		{{1, 2}, {1, 258}}, // 258 & 0xff == 2
		{{300}, {44}},      // 300 & 0xff == 44
	}
	for _, pair := range collisions {
		a := string(projKey(nil, pair[0]))
		b := string(projKey(nil, pair[1]))
		if a == b {
			t.Errorf("projKey collides for %v and %v", pair[0], pair[1])
		}
	}
	// Same facts must still produce the same key, including through a
	// reused buffer.
	buf := projKey(nil, []int{7, 300})
	if string(projKey(buf[:0], []int{7, 300})) != string(buf) {
		t.Error("projKey not stable across buffer reuse")
	}
}

// TestDuplicateFactBeyond64 is the regression test for query-set
// validation: the old int bitmask wrapped for fact indices ≥ 64
// (1<<70 == 1<<6 on 64-bit ints), hiding duplicates and inventing
// phantom ones.
func TestDuplicateFactBeyond64(t *testing.T) {
	if f, dup := duplicateFact([]int{70, 3, 70}, 128); !dup || f != 70 {
		t.Errorf("duplicateFact([70 3 70]) = (%d, %v), want (70, true)", f, dup)
	}
	// 70 and 6 collided under the 64-bit wrap (70 % 64 == 6).
	if f, dup := duplicateFact([]int{70, 6}, 128); dup {
		t.Errorf("duplicateFact([70 6]) reported phantom duplicate %d", f)
	}
	if _, dup := duplicateFact([]int{0, 1, 2, 63}, 64); dup {
		t.Error("duplicateFact flagged a distinct small set")
	}
}

// TestSelectionStateParallelRefillMatchesGreedy drives the parallel
// post-pick refill hard: few tasks and a large k force several picks into
// the same task each round, so every round runs multiple Workers>1
// refills on the asymmetric-crowd evaluation path. Run under -race by
// `make race`.
func TestSelectionStateParallelRefillMatchesGreedy(t *testing.T) {
	ctx := context.Background()
	ce := crowd.Crowd{
		{ID: "A", TPR: 0.9, TNR: 0.8},
		{ID: "B", TPR: 0.85, TNR: 0.95},
	}
	p := randomProblem(t, 11, 2, ce)
	state := NewSelectionState(4)
	rng := rngutil.New(42)
	for round := 0; round < 5; round++ {
		want, err := (Greedy{Workers: 4}).Select(ctx, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		got, err := state.Select(ctx, p, 6)
		if err != nil {
			t.Fatal(err)
		}
		samePicks(t, fmt.Sprintf("round %d", round), got, want)
		if len(got) == 0 {
			break
		}
		byTask := make(map[int][]int)
		for _, c := range got {
			byTask[c.Task] = append(byTask[c.Task], c.Fact)
		}
		for task, facts := range byTask {
			truth := func(f int) bool { return (task+f)%2 == 0 }
			fam := crowd.SimulateAnswerFamily(rng, ce, facts, truth)
			if err := p.Beliefs[task].Update(fam); err != nil {
				t.Fatal(err)
			}
			state.Invalidate(task)
		}
	}
}

// TestAssignStateParallelRefillMatchesCostGreedy is the assignment-engine
// counterpart: a budget large enough for repeated buys in the same task
// exercises the parallel unit refill and the lazy affordability re-scan.
func TestAssignStateParallelRefillMatchesCostGreedy(t *testing.T) {
	ctx := context.Background()
	p := randomProblem(t, 9, 2, assignExperts())
	state := NewAssignState(ablationCost, 0, 4)
	rng := rngutil.New(42)
	for round := 0; round < 4; round++ {
		want, err := (CostGreedy{Cost: ablationCost}).SelectAssign(ctx, p, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := state.SelectAssign(ctx, p, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameAssigns(t, fmt.Sprintf("round %d", round), got, want)
		if len(got) == 0 {
			break
		}
		touched := make(map[int]bool)
		for _, u := range got {
			truth := func(f int) bool { return (u.Task+f)%2 == 0 }
			fam := crowd.SimulateAnswerFamily(rng, crowd.Crowd{u.Worker}, []int{u.Fact}, truth)
			if err := p.Beliefs[u.Task].Update(fam); err != nil {
				t.Fatal(err)
			}
			touched[u.Task] = true
		}
		for task := range touched {
			state.Invalidate(task)
		}
	}
}

// TestIncrementalSelectionDeterministicGivenSeed runs two independent
// parallel-engine drives of the same seeded problem and demands
// identical pick sequences — goroutine scheduling must not leak into the
// output. The name keeps it inside the -count=2 determinism suite.
func TestIncrementalSelectionDeterministicGivenSeed(t *testing.T) {
	ctx := context.Background()
	drive := func() ([]string, []string) {
		ce := crowd.Crowd{
			{ID: "A", TPR: 0.9, TNR: 0.8},
			{ID: "B", TPR: 0.85, TNR: 0.95},
		}
		p := randomProblem(t, 21, 3, ce)
		pa := randomProblem(t, 22, 3, assignExperts())
		sel := NewSelectionState(4)
		asn := NewAssignState(ablationCost, 0, 4)
		rng := rngutil.New(5)
		var picks, buys []string
		for round := 0; round < 4; round++ {
			got, err := sel.Select(ctx, p, 4)
			if err != nil {
				t.Fatal(err)
			}
			picks = append(picks, fmt.Sprint(got))
			for _, c := range got {
				truth := func(f int) bool { return (c.Task+f)%2 == 0 }
				fam := crowd.SimulateAnswerFamily(rng, ce, []int{c.Fact}, truth)
				if err := p.Beliefs[c.Task].Update(fam); err != nil {
					t.Fatal(err)
				}
				sel.Invalidate(c.Task)
			}
			bought, err := asn.SelectAssign(ctx, pa, 5)
			if err != nil {
				t.Fatal(err)
			}
			buys = append(buys, fmt.Sprint(bought))
			for _, u := range bought {
				truth := func(f int) bool { return (u.Task+f)%2 == 0 }
				fam := crowd.SimulateAnswerFamily(rng, crowd.Crowd{u.Worker}, []int{u.Fact}, truth)
				if err := pa.Beliefs[u.Task].Update(fam); err != nil {
					t.Fatal(err)
				}
				asn.Invalidate(u.Task)
			}
		}
		return picks, buys
	}
	p1, b1 := drive()
	p2, b2 := drive()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Errorf("selection round %d diverged:\n  %s\n  %s", i, p1[i], p2[i])
		}
		if b1[i] != b2[i] {
			t.Errorf("assignment round %d diverged:\n  %s\n  %s", i, b1[i], b2[i])
		}
	}
}
