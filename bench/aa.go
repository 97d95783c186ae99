package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// selfCheck is the A/A test: the whole untraced set twice in one
// invocation, the second time in reverse workload order, then every
// end-to-end metric's change from the first set to the second beside its
// bound. The same code ran both times, so a change beyond the bound is
// noise the bound does not cover; it returns an error then. Run it before
// claiming a gain: a difference between two commits means nothing unless
// it is larger than what this prints for one.
func selfCheck(ctx context.Context, opt options, manifestPath string) error {
	mf, err := readManifest(manifestPath)
	if err != nil {
		return err
	}
	sets := [2]map[string]report{{}, {}}
	for i := range sets {
		for j := range specs {
			sp := specs[j]
			if i == 1 {
				sp = specs[len(specs)-1-j]
			}
			rep, err := untracedRun(ctx, opt, sp)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s: %d of %d queries failed", sp.name, rep.Failed, rep.Attempted)
			}
			sets[i][sp.name] = rep
		}
	}

	fmt.Printf("\n%-12s %-18s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	var over []string
	for _, sp := range specs {
		for _, d := range mf.EndToEnd {
			a, b := sets[0][sp.name].Metrics[d.Name].Value, sets[1][sp.name].Metrics[d.Name].Value
			w := worseBy(a, b, d.Better)
			flag := ""
			if math.Abs(w) > d.Bound {
				flag = "  OVER"
				over = append(over, sp.name+"/"+d.Name)
			}
			fmt.Printf("%-12s %-18s %12.5g %12.5g %+8.1f%% %6.0f%%%s\n", sp.name, d.Name, a, b, 100*w, 100*d.Bound, flag)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("A/A difference beyond the bound on %v", over)
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a; negative when
// b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
