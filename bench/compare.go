package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// median of a sorted, non-empty slice.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// iqr is the distance between the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them; 0 for fewer than two
// values.
func iqr(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q(3) - q(1)
}

func loadSet(path string) (map[string][]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set struct {
		Runs []record `json:"runs"`
	}
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := map[string][]record{}
	for _, r := range set.Runs {
		if !r.Trace {
			by[r.Workload] = append(by[r.Workload], r)
		}
	}
	return by, nil
}

// compareFiles judges set B against set A: for every workload and
// end-to-end metric it prints both medians over the set's runs, their
// relative difference, the bound and a verdict — "worse" when B's
// median is worse than A's by more than the bound, "unresolved" when it
// is not but either set's own spread (interquartile range over median)
// is wider than the bound, "same" otherwise. A simulated workload's
// events_digest must also agree seed by seed.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-12s %12s %12s %8s %7s %7s  %s\n",
		"workload", "metric", "median A", "median B", "B vs A", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, spec := range endToEnd {
			va, vb := valuesOf(ra, spec.Name), valuesOf(rb, spec.Name)
			ma, mb := median(va), median(vb)
			diff := mb/ma - 1
			loss := diff // how much worse B is, as a share of A
			if spec.Better == "higher" {
				loss = -diff
			}
			spread := iqr(va) / ma
			if s := iqr(vb) / mb; s > spread {
				spread = s
			}
			verdict := "same"
			switch {
			case loss > spec.Bound:
				verdict, worse = "worse", true
			case spread > spec.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-15s %-12s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n",
				wl.name, spec.Name, ma, mb, 100*diff, 100*spread, 100*spec.Bound, verdict)
		}
		digests := map[uint64]string{}
		for _, r := range ra {
			digests[r.Seed] = r.Digest
		}
		for _, r := range rb {
			if d, ok := digests[r.Seed]; ok && d != r.Digest {
				fmt.Fprintf(w, "%-15s events_digest differs on seed %d  worse\n", wl.name, r.Seed)
				worse = true
			}
		}
		for _, r := range append(ra, rb...) {
			if !r.Correct {
				fmt.Fprintf(w, "%-15s seed %d: %d of %d failed  worse\n", wl.name, r.Seed, r.Failed, r.Attempted)
				worse = true
			}
		}
	}
	return worse, nil
}

func valuesOf(runs []record, metric string) []float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Metrics[metric].Value
	}
	sort.Float64s(vals)
	return vals
}
