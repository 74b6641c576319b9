// Command molocsim runs the full MoLoc pipeline end to end on a chosen
// floor plan and prints the headline comparison between MoLoc and the
// WiFi fingerprinting baseline, per AP count.
//
// Usage:
//
//	molocsim [-seed N] [-plan office|mall|museum] [-train N] [-test N] [-aps list]
//
// With -export DIR it also writes the full-AP deployment bundle that
// molocd serves with -bundle DIR. Load against a running server is
// perfbench's job (perfbench/run.py).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"moloc/internal/core"
	"moloc/internal/eval"
	"moloc/internal/floorplan"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "molocsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed     = flag.Int64("seed", 3, "experiment seed")
		planName = flag.String("plan", "office", "floor plan: office, mall, or museum")
		train    = flag.Int("train", 150, "number of training traces")
		test     = flag.Int("test", 34, "number of test traces")
		apCounts = flag.String("aps", "4,5,6", "comma-separated AP counts to evaluate")
		export   = flag.String("export", "", "directory to export the full-AP deployment bundle to")
	)
	flag.Parse()

	cfg := core.NewConfig()
	cfg.Seed = *seed
	cfg.NumTrainTraces = *train
	cfg.NumTestTraces = *test
	switch *planName {
	case "office":
		// defaults
	case "mall":
		cfg.Plan = floorplan.Mall()
		cfg.AdjDist = floorplan.MallAdjDist
	case "museum":
		cfg.Plan = floorplan.Museum()
		cfg.AdjDist = floorplan.MuseumAdjDist
	default:
		return fmt.Errorf("unknown plan %q", *planName)
	}

	sys, err := core.Build(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("plan=%s locations=%d aps=%d train=%d test=%d seed=%d\n",
		sys.Plan.Name, sys.Plan.NumLocs(), sys.Model.NumAPs(),
		len(sys.TrainTraces), len(sys.TestTraces), cfg.Seed)

	counts, err := parseCounts(*apCounts, sys.Model.NumAPs())
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %9s %9s %9s %9s\n",
		"setting", "method", "accuracy", "mean(m)", "p50(m)", "max(m)")
	for _, n := range counts {
		dep, err := sys.Deploy(sys.AllAPs()[:n])
		if err != nil {
			return err
		}
		ml, err := dep.NewMoLoc()
		if err != nil {
			return err
		}
		for _, pair := range []struct {
			name string
			sum  eval.Summary
		}{
			{"WiFi", eval.Summarize(dep.Evaluate(dep.NewWiFi()))},
			{"MoLoc", eval.Summarize(dep.Evaluate(ml))},
		} {
			fmt.Printf("%-8s %-10s %8.1f%% %9.2f %9.2f %9.2f\n",
				fmt.Sprintf("%d-AP", n), pair.name,
				pair.sum.Accuracy*100, pair.sum.MeanErr,
				pair.sum.CDF.Median(), pair.sum.MaxErr)
		}
	}
	dirErrs, offErrs := sys.MotionDBErrors()
	fmt.Printf("motion-db entries=%d dir-med=%.1fdeg off-med=%.2fm\n",
		sys.MDB.NumEntries(), median(dirErrs), median(offErrs))

	if *export != "" {
		dep, err := sys.Deploy(sys.AllAPs())
		if err != nil {
			return err
		}
		if err := dep.SaveBundle(*export); err != nil {
			return err
		}
		fmt.Printf("deployment bundle exported to %s (serve with: molocd -bundle %s)\n",
			*export, *export)
	}
	return nil
}

func parseCounts(s string, maxAPs int) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad AP count %q: %w", p, err)
		}
		if n < 1 || n > maxAPs {
			return nil, fmt.Errorf("AP count %d out of range [1,%d]", n, maxAPs)
		}
		out = append(out, n)
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
