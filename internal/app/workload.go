// Package app models the code-coupling applications the paper targets:
// processes grouped into modules, each module pinned to one cluster,
// heavy traffic inside modules and light traffic between them (§2.1).
// It corresponds to the "application file" of the paper's simulator:
// mean computation times, communication patterns and total time.
package app

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Workload is a rate-based description of the application traffic.
// Rates are expressed as aggregate messages per hour from cluster i to
// cluster j, which maps directly onto the message counts the paper
// reports (Table 1) for a given total execution time.
type Workload struct {
	// TotalTime is the application's execution time (10 h in §5.2).
	TotalTime sim.Duration
	// RatesPerHour[i][j] is the expected number of application
	// messages per hour from cluster i to cluster j (i == j is
	// intra-cluster traffic).
	RatesPerHour [][]float64
	// MsgSize is the application payload size in bytes.
	MsgSize int
	// StateSize is the per-node application state footprint in bytes;
	// it prices checkpoint replication to stable storage.
	StateSize int
	// MeanCompute is the mean computation phase between protocol-visible
	// steps; it only affects reported lost-work statistics.
	MeanCompute sim.Duration
	// Deterministic controls replay: when true (the default behaviour
	// of code-coupling restarts), a node re-executes exactly the same
	// sends after a rollback; when false every re-execution draws a
	// fresh schedule — the protocol must stay consistent either way,
	// since HC3I makes no PWD assumption (§2.2).
	Deterministic bool
	// Burst, when non-nil, modulates the Poisson process with an on-off
	// envelope: traffic only flows during the first Duty fraction of
	// every Period, at a rate scaled by 1/Duty so the long-run average
	// still matches RatesPerHour. The scenario matrix uses it for its
	// bursty workloads.
	Burst *Burst
	// OpenLoop, when non-nil, marks the rate matrix as the compiled
	// form of an open-loop user population (see NewOpenLoop): arrivals
	// are scheduled by the users, never by the system's progress, and
	// the harness tracks per-request stable-delivery latency.
	OpenLoop *OpenLoop

	// rowSums caches the row totals of RatesPerHour. The per-node
	// schedule sizing hint needs one row sum (outbound rate);
	// recomputing it per node is an O(width) scan that dominated
	// wide-federation setup. Computed on first use and rebuilt by
	// Freeze — a harness that edits RatesPerHour between runs must call
	// Freeze (federation.Options does) or the cached sums go stale.
	rowSums   []float64
	sumsMu    sync.Mutex
	sumsValid bool
}

// rateSums returns the cached per-cluster outbound rate totals (the
// rows of RatesPerHour), computing them on first call.
func (w *Workload) rateSums() []float64 {
	w.sumsMu.Lock()
	defer w.sumsMu.Unlock()
	if !w.sumsValid {
		w.rebuildSums()
	}
	return w.rowSums
}

// rebuildSums recomputes the cached totals; callers hold sumsMu.
func (w *Workload) rebuildSums() {
	w.rowSums = make([]float64, len(w.RatesPerHour))
	for i, r := range w.RatesPerHour {
		for _, v := range r {
			w.rowSums[i] += v
		}
	}
	w.sumsValid = true
}

// Freeze rebuilds the cached rate sums from the current RatesPerHour.
// Sweep harnesses that reuse one Workload across points while editing
// its rates call it before each run; without it the first run's sums
// would silently survive the edit.
func (w *Workload) Freeze() {
	w.sumsMu.Lock()
	defer w.sumsMu.Unlock()
	w.rebuildSums()
}

// OpenLoop describes an open-loop arrival process: a large population
// of independent users, each issuing requests at a fixed mean rate
// regardless of how the system is keeping up (heavy-traffic semantics:
// arrivals never wait for completions). NewOpenLoop compiles it into
// the per-cluster-pair rate matrix by Poisson superposition — the sum
// of the users' independent Poisson streams is itself Poisson at the
// aggregate rate — so the existing deterministic-replay generator
// reproduces the population's traffic exactly.
type OpenLoop struct {
	// Users is the modeled population size.
	Users int64
	// RequestsPerUserHour is each user's mean request rate.
	RequestsPerUserHour float64
	// ZipfS skews the per-destination-cluster popularity: cluster j is
	// chosen with probability proportional to 1/(j+1)^ZipfS. 0 means
	// uniform destinations.
	ZipfS float64
}

// validate checks the open-loop parameters.
func (o *OpenLoop) validate() error {
	if o.Users <= 0 {
		return fmt.Errorf("app: open-loop population must be positive")
	}
	if o.RequestsPerUserHour <= 0 {
		return fmt.Errorf("app: open-loop per-user rate must be positive")
	}
	if o.ZipfS < 0 {
		return fmt.Errorf("app: open-loop zipf exponent %v negative", o.ZipfS)
	}
	return nil
}

// NewOpenLoop builds the workload of an open-loop user population over
// nClusters clusters: users are spread uniformly across the clusters
// as request sources, and each request targets a destination cluster
// drawn from the Zipf(s) popularity law (the skew of real user traffic
// — a few hot services take most of the load). The aggregate stream
// from cluster i to cluster j is Poisson at Users/n * perUserHour *
// p(j), which the deterministic per-destination generator replays
// identically after rollbacks, so millions of users cost no more
// simulator state than the closed-loop rate matrix. Deterministic
// replay is required: request identity (and therefore the arrival a
// latency sample is measured from) must survive re-execution.
func NewOpenLoop(nClusters int, users int64, perUserHour, zipfS float64, total sim.Duration) *Workload {
	probs := make([]float64, nClusters)
	var norm float64
	for j := range probs {
		probs[j] = 1 / math.Pow(float64(j+1), zipfS)
		norm += probs[j]
	}
	perSource := float64(users) * perUserHour / float64(nClusters)
	rates := make([][]float64, nClusters)
	for i := range rates {
		rates[i] = make([]float64, nClusters)
		for j := range rates[i] {
			rates[i][j] = perSource * probs[j] / norm
		}
	}
	return &Workload{
		TotalTime:     total,
		RatesPerHour:  rates,
		MsgSize:       4096,
		StateSize:     4 << 20,
		MeanCompute:   2 * sim.Second,
		Deterministic: true,
		OpenLoop: &OpenLoop{
			Users:               users,
			RequestsPerUserHour: perUserHour,
			ZipfS:               zipfS,
		},
	}
}

// Burst is an on-off traffic envelope (see Workload.Burst).
type Burst struct {
	// Period is one on+off cycle.
	Period sim.Duration
	// Duty is the on fraction of each period, in (0, 1].
	Duty float64
}

// onPerPeriod returns the on-time within one period.
func (b *Burst) onPerPeriod() sim.Duration {
	return sim.Duration(float64(b.Period) * b.Duty)
}

// Warp maps absolute application time to cumulative on-time: the time
// axis the modulated Poisson process is homogeneous on.
func (b *Burst) Warp(t sim.Duration) sim.Duration {
	on := b.onPerPeriod()
	full := t / b.Period
	rem := t - full*b.Period
	if rem > on {
		rem = on
	}
	return full*on + rem
}

// Unwarp maps cumulative on-time back to the earliest absolute time
// with that much on-time elapsed (the inverse of Warp on on-windows).
func (b *Burst) Unwarp(s sim.Duration) sim.Duration {
	on := b.onPerPeriod()
	if on <= 0 {
		return sim.Forever
	}
	full := s / on
	rem := s - full*on
	return full*b.Period + rem
}

// validate checks the burst envelope.
func (b *Burst) validate() error {
	if b.Period <= 0 {
		return fmt.Errorf("app: burst period must be positive")
	}
	if b.Duty <= 0 || b.Duty > 1 {
		return fmt.Errorf("app: burst duty %v outside (0, 1]", b.Duty)
	}
	return nil
}

// Validate checks the workload against a federation.
func (w *Workload) Validate(fed *topology.Federation) error {
	n := fed.NumClusters()
	if len(w.RatesPerHour) != n {
		return fmt.Errorf("app: rate matrix has %d rows for %d clusters", len(w.RatesPerHour), n)
	}
	for i, row := range w.RatesPerHour {
		if len(row) != n {
			return fmt.Errorf("app: rate row %d has %d entries", i, len(row))
		}
		for j, r := range row {
			if r < 0 {
				return fmt.Errorf("app: negative rate [%d][%d]", i, j)
			}
		}
		if row[i] > 0 && fed.Clusters[i].Nodes < 2 {
			return fmt.Errorf("app: cluster %d has intra-cluster traffic but only one node", i)
		}
	}
	if w.TotalTime <= 0 {
		return fmt.Errorf("app: non-positive total time")
	}
	if w.MsgSize <= 0 {
		return fmt.Errorf("app: non-positive message size")
	}
	if w.Burst != nil {
		if err := w.Burst.validate(); err != nil {
			return err
		}
	}
	if w.OpenLoop != nil {
		if err := w.OpenLoop.validate(); err != nil {
			return err
		}
		if !w.Deterministic {
			return fmt.Errorf("app: open-loop workloads require deterministic replay (request identity must survive re-execution)")
		}
	}
	return nil
}

// ExpectedMessages returns the expected message count from cluster i to
// cluster j over the whole run.
func (w *Workload) ExpectedMessages(i, j int) float64 {
	return w.RatesPerHour[i][j] * w.TotalTime.Seconds() / 3600
}

// PaperTable1 builds the workload of §5.2, calibrated so the expected
// counts over 10 hours match Table 1 of the paper:
//
//	cluster 0 -> cluster 0: 2920 messages
//	cluster 1 -> cluster 1: 2497 messages
//	cluster 0 -> cluster 1:  145 messages
//	cluster 1 -> cluster 0:   11 messages
//
// ("lots of communications inside each cluster and few between them ...
// a simulation running on cluster 0 and a trace processor on cluster 1").
func PaperTable1() *Workload {
	const hours = 10
	return &Workload{
		TotalTime: hours * sim.Hour,
		RatesPerHour: [][]float64{
			{2920.0 / hours, 145.0 / hours},
			{11.0 / hours, 2497.0 / hours},
		},
		MsgSize:       4096,
		StateSize:     4 << 20,
		MeanCompute:   2 * sim.Second,
		Deterministic: true,
	}
}

// PaperTable1WithReverse returns the §5.3 variant: the same workload
// with the cluster 1 -> cluster 0 message count raised to reverse
// (Figure 9 sweeps it from ~10 to ~110).
func PaperTable1WithReverse(reverse float64) *Workload {
	w := PaperTable1()
	w.RatesPerHour[1][0] = reverse / 10
	return w
}

// Paper3Clusters builds the §5.4 three-cluster workload: clusters 1 and
// 2 are clones, with roughly 200 messages leaving and arriving at each
// cluster over the run.
func Paper3Clusters() *Workload {
	const hours = 10
	return &Workload{
		TotalTime: hours * sim.Hour,
		RatesPerHour: [][]float64{
			{2920.0 / hours, 100.0 / hours, 100.0 / hours},
			{100.0 / hours, 2497.0 / hours, 100.0 / hours},
			{100.0 / hours, 100.0 / hours, 2497.0 / hours},
		},
		MsgSize:       4096,
		StateSize:     4 << 20,
		MeanCompute:   2 * sim.Second,
		Deterministic: true,
	}
}

// Pipeline builds a code-coupling pipeline like Figure 1 of the paper
// (simulation -> treatment -> display): heavy intra-cluster traffic and
// a directed inter-cluster flow along the chain.
func Pipeline(nClusters int, intraPerHour, flowPerHour float64, total sim.Duration) *Workload {
	rates := make([][]float64, nClusters)
	for i := range rates {
		rates[i] = make([]float64, nClusters)
		rates[i][i] = intraPerHour
		if i+1 < nClusters {
			rates[i][i+1] = flowPerHour
		}
	}
	return &Workload{
		TotalTime:     total,
		RatesPerHour:  rates,
		MsgSize:       4096,
		StateSize:     4 << 20,
		MeanCompute:   2 * sim.Second,
		Deterministic: true,
	}
}

// Uniform builds an all-to-all workload, used by stress tests and the
// multi-fault ablation.
func Uniform(nClusters int, intraPerHour, interPerHour float64, total sim.Duration) *Workload {
	rates := make([][]float64, nClusters)
	for i := range rates {
		rates[i] = make([]float64, nClusters)
		for j := range rates[i] {
			if i == j {
				rates[i][i] = intraPerHour
			} else {
				rates[i][j] = interPerHour
			}
		}
	}
	return &Workload{
		TotalTime:     total,
		RatesPerHour:  rates,
		MsgSize:       4096,
		StateSize:     4 << 20,
		MeanCompute:   2 * sim.Second,
		Deterministic: true,
	}
}
