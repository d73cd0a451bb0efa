package experiments

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

// paperScale returns the evaluation scale: the paper's 2×100-node,
// 10-hour configuration, or a reduced one in Quick mode. Node count
// does not change the traffic (rates are cluster-aggregate), only the
// protocol's intra-cluster fan-out.
func paperScale(cfg Config) (nodes int, hours sim.Duration) {
	if cfg.Quick {
		return 8, 3 * sim.Hour
	}
	return 100, 10 * sim.Hour
}

// paperOptions assembles the §5.2 configuration: Myrinet-like SANs,
// Ethernet-like inter-cluster links, Table 1 traffic.
func paperOptions(cfg Config, clusters int) federation.Options {
	nodes, hours := paperScale(cfg)
	fed := topology.Small(clusters, nodes)
	var wl *app.Workload
	if clusters == 3 {
		wl = app.Paper3Clusters()
	} else {
		wl = app.PaperTable1()
	}
	wl.TotalTime = hours
	if cfg.Quick {
		wl.StateSize = 256 << 10
	}
	periods := make([]sim.Duration, clusters)
	for i := range periods {
		periods[i] = 30 * sim.Minute
	}
	return federation.Options{
		Topology:   fed,
		Workload:   wl,
		CLCPeriods: periods,
		Seed:       cfg.Seed,
	}
}

func runFed(opts federation.Options) (*federation.Result, error) {
	f, err := federation.New(opts)
	if err != nil {
		return nil, err
	}
	res, err := f.Run()
	// The Result carries value copies (and the run's own sim.Stats), so
	// the federation's pooled scratch can go back to the arena now.
	f.Release()
	return res, err
}

// scaleCounts rescales an expected full-run count to the configured
// duration (Quick mode runs fewer hours).
func expectScaled(cfg Config, full float64) float64 {
	_, hours := paperScale(cfg)
	return full * hours.Seconds() / (10 * sim.Hour).Seconds()
}

func init() {
	register(Experiment{
		ID:    "T1",
		Title: "Application messages (paper Table 1)",
		Description: "Message counts per cluster pair for the §5.2 workload: a " +
			"simulation on cluster 0 feeding a trace processor on cluster 1.",
		Run: runT1,
	})
	register(Experiment{
		ID:    "F6",
		Title: "Interval between CLCs: cluster 0 (paper Figure 6)",
		Description: "Forced and unforced committed CLCs in cluster 0 as its " +
			"unforced-CLC timer sweeps; cluster 1's timer is infinite.",
		Run: func(cfg Config) (*Table, error) { return runF6F7(cfg, 0) },
	})
	register(Experiment{
		ID:    "F7",
		Title: "Interval between CLCs: cluster 1 (paper Figure 7)",
		Description: "Same sweep as F6, counting cluster 1's CLCs: no unforced " +
			"ones (its timer is infinite), forced ones proportional to cluster 0's.",
		Run: func(cfg Config) (*Table, error) { return runF6F7(cfg, 1) },
	})
	register(Experiment{
		ID:    "F8",
		Title: "Increasing the number of CLCs in cluster 1 (paper Figure 8)",
		Description: "Cluster 0's CLC count stays flat as cluster 1's timer " +
			"sweeps, thanks to the very few cluster 1 -> cluster 0 messages.",
		Run: runF8,
	})
	register(Experiment{
		ID:    "F9",
		Title: "Communication patterns (paper Figure 9)",
		Description: "Forced CLCs grow quickly as the number of cluster 1 -> " +
			"cluster 0 messages rises (both timers at 30 minutes).",
		Run: runF9,
	})
	register(Experiment{
		ID:    "T2",
		Title: "Garbage collection, 2 clusters (paper Table 2)",
		Description: "Stored CLCs just before and just after each 2-hourly " +
			"garbage collection, F9 workload at ~103 reverse messages.",
		Run: runT2,
	})
	register(Experiment{
		ID:    "T3",
		Title: "Garbage collection, 3 clusters (paper Table 3)",
		Description: "Same with three clusters (~200 messages in/out each); " +
			"only ~2 CLCs remain per cluster after every collection.",
		Run: runT3,
	})
}

func runT1(cfg Config) (*Table, error) {
	opts := paperOptions(cfg, 2)
	res, err := cfg.runFed(opts)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "T1",
		Title:   "Application messages",
		Headers: []string{"sender", "receiver", "measured", "paper(10h)", "expected(scaled)"},
	}
	paper := [][2]float64{{0, 0}, {1, 1}, {0, 1}, {1, 0}}
	counts := []float64{2920, 2497, 145, 11}
	for k, pair := range paper {
		i, j := int(pair[0]), int(pair[1])
		t.AddRow(
			fmt.Sprintf("Cluster %d", i),
			fmt.Sprintf("Cluster %d", j),
			res.AppMsgs[i][j],
			counts[k],
			expectScaled(cfg, counts[k]),
		)
	}
	t.Notes = append(t.Notes,
		"shape: heavy intra-cluster traffic, light 0->1 flow, almost none 1->0")
	return t, nil
}

// f6Sweep returns the x axis of Figures 6/7 (minutes between unforced
// CLCs in cluster 0).
func f6Sweep(cfg Config) []int {
	if cfg.Quick {
		return []int{10, 30, 60, 120}
	}
	return []int{5, 10, 15, 20, 30, 45, 60, 90, 120}
}

func runF6F7(cfg Config, report int) (*Table, error) {
	id := "F6"
	if report == 1 {
		id = "F7"
	}
	t := &Table{
		ID:      id,
		Title:   fmt.Sprintf("CLCs committed in cluster %d vs cluster 0 timer", report),
		Headers: []string{"delay_c0_min", "unforced", "forced", "total"},
	}
	err := sweep(cfg, t, f6Sweep(cfg), func(mins int) ([]Row, error) {
		opts := paperOptions(cfg, 2)
		opts.CLCPeriods = []sim.Duration{sim.Duration(mins) * sim.Minute, sim.Forever}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, fmt.Errorf("%s at %d min: %w", id, mins, err)
		}
		c := res.Clusters[report]
		return []Row{{mins, c.Unforced, c.Forced, c.Total()}}, nil
	})
	if err != nil {
		return nil, err
	}
	if report == 0 {
		t.Notes = append(t.Notes,
			"shape: unforced falls hyperbolically with the timer; forced stays small",
			"and flat (induced by the few cluster1->cluster0 messages)")
	} else {
		t.Notes = append(t.Notes,
			"shape: zero unforced (infinite timer); forced tracks cluster 0's",
			"CLC count since most inter-cluster messages come from cluster 0")
	}
	return t, nil
}

func runF8(cfg Config) (*Table, error) {
	points := []int{15, 20, 30, 45, 60}
	if cfg.Quick {
		points = []int{15, 30, 60}
	}
	t := &Table{
		ID:      "F8",
		Title:   "Impact of cluster 1's timer on both clusters",
		Headers: []string{"delay_c1_min", "c0_total", "c1_total", "c1_forced"},
	}
	err := sweep(cfg, t, points, func(mins int) ([]Row, error) {
		opts := paperOptions(cfg, 2)
		opts.CLCPeriods = []sim.Duration{30 * sim.Minute, sim.Duration(mins) * sim.Minute}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, fmt.Errorf("F8 at %d min: %w", mins, err)
		}
		return []Row{{mins, res.Clusters[0].Total(), res.Clusters[1].Total(), res.Clusters[1].Forced}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: cluster 0's total is insensitive to cluster 1's timer",
		"(few cluster1->cluster0 messages, so few forced CLCs in cluster 0)")
	return t, nil
}

// f9Sweep is the x axis of Figure 9: messages from cluster 1 to 0.
func f9Sweep(cfg Config) []int {
	if cfg.Quick {
		return []int{10, 50, 110}
	}
	return []int{10, 30, 50, 70, 90, 110}
}

func runF9(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "F9",
		Title:   "Increasing communication from cluster 1 to cluster 0",
		Headers: []string{"msgs_c1_to_c0", "c0_total", "c0_forced", "c1_total", "c1_forced"},
	}
	err := sweep(cfg, t, f9Sweep(cfg), func(reverse int) ([]Row, error) {
		opts := paperOptions(cfg, 2)
		wl := app.PaperTable1WithReverse(float64(reverse))
		_, hours := paperScale(cfg)
		wl.TotalTime = hours
		if cfg.Quick {
			wl.StateSize = 256 << 10
		}
		opts.Workload = wl
		opts.CLCPeriods = []sim.Duration{30 * sim.Minute, 30 * sim.Minute}
		res, err := cfg.runFed(opts)
		if err != nil {
			return nil, fmt.Errorf("F9 at %d msgs: %w", reverse, err)
		}
		return []Row{{reverse,
			res.Clusters[0].Total(), res.Clusters[0].Forced,
			res.Clusters[1].Total(), res.Clusters[1].Forced}}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"shape: forced CLCs (especially in cluster 0) grow fast with the",
		"reverse traffic; with chatter in both directions most messages force")
	return t, nil
}

func runT2(cfg Config) (*Table, error) {
	opts := paperOptions(cfg, 2)
	wl := app.PaperTable1WithReverse(103)
	_, hours := paperScale(cfg)
	wl.TotalTime = hours
	if cfg.Quick {
		wl.StateSize = 256 << 10
	}
	opts.Workload = wl
	opts.GCPeriod = 2 * sim.Hour
	if cfg.Quick {
		opts.GCPeriod = 45 * sim.Minute
	}
	res, err := cfg.runFed(opts)
	if err != nil {
		return nil, err
	}
	return gcTable("T2", res, 2)
}

func runT3(cfg Config) (*Table, error) {
	opts := paperOptions(cfg, 3)
	opts.GCPeriod = 2 * sim.Hour
	if cfg.Quick {
		opts.GCPeriod = 45 * sim.Minute
	}
	res, err := cfg.runFed(opts)
	if err != nil {
		return nil, err
	}
	return gcTable("T3", res, 3)
}

func gcTable(id string, res *federation.Result, clusters int) (*Table, error) {
	headers := []string{"gc_at"}
	for c := 0; c < clusters; c++ {
		headers = append(headers,
			fmt.Sprintf("c%d_before", c), fmt.Sprintf("c%d_after", c))
	}
	t := &Table{ID: id, Title: "Stored CLCs around each garbage collection", Headers: headers}
	if len(res.GCRounds) == 0 {
		return nil, fmt.Errorf("%s: no garbage collection rounds recorded", id)
	}
	for _, r := range res.GCRounds {
		cells := []any{r.At.String()}
		for c := 0; c < clusters; c++ {
			cells = append(cells, r.Before[c], r.After[c])
		}
		t.AddRow(cells...)
	}
	t.AddRow(append([]any{"max logged msgs"}, res.MaxLoggedMessages)...)
	t.Notes = append(t.Notes,
		"shape: each collection shrinks every cluster's store to ~2 CLCs;",
		"only the oldest CLCs are removed (rollbacks never get deeper)")
	return t, nil
}
