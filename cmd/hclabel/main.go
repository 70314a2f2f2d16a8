// Command hclabel runs the full hierarchical crowdsourcing pipeline
// (Algorithm 3) on a dataset file produced by hcgen: initialize beliefs
// from the preliminary answers, then spend the checking budget on
// greedily selected expert queries, and print the resulting labels and
// per-round trace.
//
// Usage:
//
//	hclabel -in dataset.json -budget 500 -k 1 -init EBCC -selector approx
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hcrowd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hclabel:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hclabel", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "dataset JSON file (required; - for stdin)")
		budget   = fs.Float64("budget", 500, "expert answer budget B")
		k        = fs.Int("k", 1, "checking queries per round")
		initName = fs.String("init", "EBCC", "belief initializer: "+strings.Join(hcrowd.AggregatorNames(), ", "))
		selName  = fs.String("selector", "approx", "selection method: approx, opt, random, maxentropy")
		seed     = fs.Int64("seed", 1, "seed for simulated expert answers")
		trace    = fs.Bool("trace", false, "print one line per checking round")
		labels   = fs.Bool("labels", false, "print final labels, one fact per line")
		saveCk   = fs.String("save-checkpoint", "", "write the final belief state to this file")
		fromCk   = fs.String("resume", "", "resume from a checkpoint written by -save-checkpoint")
		costMode = fs.Bool("costaware", false, "buy (query, expert) units by gain-per-cost instead of polling the whole panel")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("missing -in (dataset file)")
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	ds, err := hcrowd.ReadDataset(r)
	if err != nil {
		return err
	}
	init, err := hcrowd.AggregatorByName(*initName, *seed)
	if err != nil {
		return err
	}
	var sel hcrowd.Selector
	switch strings.ToLower(*selName) {
	case "approx", "greedy":
		sel = hcrowd.GreedySelector()
	case "opt", "exact":
		sel = hcrowd.ExactSelector()
	case "random":
		sel = hcrowd.RandomSelector(*seed + 1)
	case "maxentropy":
		sel = hcrowd.MaxEntropySelector()
	default:
		return fmt.Errorf("unknown selector %q", *selName)
	}
	cfg := hcrowd.Config{
		K:        *k,
		Budget:   *budget,
		Init:     init,
		Selector: sel,
		Source:   hcrowd.NewSimulatedSource(*seed+2, ds),
	}
	if *fromCk != "" {
		ckFile, err := os.Open(*fromCk)
		if err != nil {
			return err
		}
		cfg.From, err = hcrowd.ReadCheckpoint(ckFile)
		ckFile.Close()
		if err != nil {
			return err
		}
	}
	run := hcrowd.Run
	if *costMode {
		run = hcrowd.RunCostAware
	}
	res, err := run(context.Background(), ds, cfg)
	if err != nil {
		return err
	}
	if *saveCk != "" {
		out, err := os.Create(*saveCk)
		if err != nil {
			return err
		}
		if err := hcrowd.NewCheckpoint(res).Write(out); err != nil {
			out.Close() //hclint:ignore errcheck-lite the checkpoint write failure is returned; the close error on the already-bad file is secondary
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "facts: %d  tasks: %d  init: %s  selector: %s\n",
		ds.NumFacts(), len(ds.Tasks), init.Name(), sel.Name())
	fmt.Fprintf(stdout, "accuracy: %.4f -> %.4f   quality: %.4f -> %.4f   budget spent: %.0f in %d rounds\n",
		res.InitAccuracy, res.Accuracy, res.InitQuality, res.Quality, res.BudgetSpent, len(res.Rounds))
	if *trace {
		for _, rd := range res.Rounds {
			fmt.Fprintf(stdout, "round %3d  spent %6.0f  accuracy %.4f  quality %.4f\n",
				rd.Round, rd.BudgetSpent, rd.Accuracy, rd.Quality)
		}
	}
	if *labels {
		for f, l := range res.Labels {
			fmt.Fprintf(stdout, "%d,%t\n", f, l)
		}
	}
	return nil
}
