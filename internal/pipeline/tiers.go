package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"hcrowd/internal/crowd"
	"hcrowd/internal/dataset"
)

// TierConfig describes one expert tier in the multi-level hierarchy
// discussed in §III-D ("whether the crowd can be divided into more groups
// than just two"): the labels are initialized once by CP and then checked
// sequentially by each tier, each with its own budget share.
type TierConfig struct {
	Experts crowd.Crowd
	Budget  float64
}

// RunTiers executes the concatenation design: initialization from the
// preliminary workers followed by one checking phase per tier, in order.
// Beliefs carry over between phases. The base config supplies K, Selector,
// Init, Source and the optional cost model; its Budget field is ignored in
// favor of the per-tier budgets.
func RunTiers(ctx context.Context, ds *dataset.Dataset, base Config, tiers []TierConfig) (*Result, error) {
	if err := prepare(ds, &base); err != nil {
		return nil, err
	}
	if base.From != nil {
		return nil, errors.New("pipeline: RunTiers cannot resume from a checkpoint")
	}
	if len(tiers) == 0 {
		return nil, errors.New("pipeline: no tiers")
	}
	for i, tier := range tiers {
		if len(tier.Experts) == 0 {
			return nil, fmt.Errorf("pipeline: tier %d has no experts", i)
		}
		if err := tier.Experts.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: tier %d: %w", i, err)
		}
	}
	beliefs, err := initBeliefs(ds, base)
	if err != nil {
		return nil, err
	}
	var combined *Result
	for i, tier := range tiers {
		cfg := base
		cfg.Budget = tier.Budget
		res, err := runWith(ctx, ds, cfg, tier.Experts, beliefs, newUniformPlan, nil, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("pipeline: tier %d: %w", i, err)
		}
		if combined == nil {
			combined = res
		} else {
			// Rounds continue numbering and cumulative budget across tiers.
			offR := len(combined.Rounds)
			offB := combined.BudgetSpent
			for _, r := range res.Rounds {
				r.Round += offR
				r.BudgetSpent += offB
				combined.Rounds = append(combined.Rounds, r)
			}
			combined.BudgetSpent += res.BudgetSpent
			combined.Quality = res.Quality
			combined.Accuracy = res.Accuracy
			combined.Labels = res.Labels
			combined.Beliefs = res.Beliefs
		}
	}
	return combined, nil
}

// SplitTiers divides a crowd into n expert tiers by descending accuracy
// above theta (tier 0 is the most accurate) plus the preliminary rest.
// Each tier receives an equal share of the budget.
func SplitTiers(c crowd.Crowd, theta float64, n int, budget float64) ([]TierConfig, crowd.Crowd, error) {
	if n < 1 {
		return nil, nil, errors.New("pipeline: need at least one tier")
	}
	ce, cp := c.Split(theta)
	if len(ce) == 0 {
		return nil, nil, errors.New("pipeline: no experts above theta")
	}
	if n > len(ce) {
		n = len(ce)
	}
	sorted := ce.SortByAccuracy()
	tiers := make([]TierConfig, n)
	per := budget / float64(n)
	for i, w := range sorted {
		tiers[i%n].Experts = append(tiers[i%n].Experts, w)
	}
	for i := range tiers {
		tiers[i].Budget = per
		sort.Slice(tiers[i].Experts, func(a, b int) bool {
			return tiers[i].Experts[a].ID < tiers[i].Experts[b].ID
		})
	}
	return tiers, cp, nil
}
