// Command hc3isim runs one HC3I federation simulation from the three
// configuration files of the paper's simulator (§5.1): a topology
// file, an application file and a timers file.
//
// Usage:
//
//	hc3isim -topology topo.conf -application app.conf -timers timers.conf \
//	        [-seed 1] [-protocol hc3i] [-trace info] [-mtbf-failures]
//
// With no flags it runs the paper's §5.2 configuration (2 clusters of
// 100 nodes, Table 1 traffic, 30-minute CLC timers) and prints the
// statistics the paper's simulator reports at its lowest trace level.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/app"
	"repro/internal/config"
	"repro/internal/federation"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	// Run options are flag-bound straight into the federation's options.
	var opts federation.Options
	flag.Uint64Var(&opts.Seed, "seed", 1, "simulation seed")
	flag.BoolVar(&opts.MTBFFailures, "mtbf-failures", false, "inject failures at the topology's MTBF")
	flag.BoolVar(&opts.Transitive, "transitive", false, "piggyback whole DDVs (transitive dependency tracking)")
	flag.BoolVar(&opts.RingGC, "ring-gc", false, "use the distributed ring garbage collector")
	flag.IntVar(&opts.Replicas, "replicas", 1, "stable-storage replication degree")
	var (
		topoPath  = flag.String("topology", "", "topology file (default: paper §5.2)")
		appPath   = flag.String("application", "", "application file (default: paper Table 1)")
		timerPath = flag.String("timers", "", "timers file (default: 30m CLCs, no GC)")
		protoName = flag.String("protocol", "hc3i", "protocol: "+strings.Join(federation.ProtocolNames(), "|"))
		trace     = flag.String("trace", "off", "trace level: off|info|debug|all")
		dumpStats = flag.Bool("stats", false, "dump every raw statistic")
	)
	flag.Parse()
	if err := run(opts, *topoPath, *appPath, *timerPath, *protoName, *trace, *dumpStats); err != nil {
		fmt.Fprintln(os.Stderr, "hc3isim:", err)
		os.Exit(1)
	}
}

func run(opts federation.Options, topoPath, appPath, timerPath, protoName, trace string, dumpStats bool) error {
	fed := topology.Paper2Clusters()
	if topoPath != "" {
		var err error
		fed, err = config.LoadTopologyFile(topoPath)
		if err != nil {
			return err
		}
	}
	wl := app.PaperTable1()
	if appPath != "" {
		var err error
		wl, err = config.LoadWorkloadFile(appPath, fed.NumClusters())
		if err != nil {
			return err
		}
	}
	timers := &config.Timers{GCPeriod: sim.Forever, DetectionDelay: 2 * sim.Second}
	timers.CLCPeriods = make([]sim.Duration, fed.NumClusters())
	for i := range timers.CLCPeriods {
		timers.CLCPeriods[i] = 30 * sim.Minute
	}
	if timerPath != "" {
		var err error
		timers, err = config.LoadTimersFile(timerPath, fed.NumClusters())
		if err != nil {
			return err
		}
	}
	level, err := sim.ParseTraceLevel(trace)
	if err != nil {
		return err
	}

	opts.Topology = fed
	opts.Workload = wl
	opts.CLCPeriods = timers.CLCPeriods
	opts.GCPeriod = timers.GCPeriod
	opts.DetectionDelay = timers.DetectionDelay
	if level > sim.TraceOff {
		opts.TraceWriter = os.Stderr
		opts.TraceLevel = level
	}
	if opts.NodeFactory, err = federation.ProtocolFactory(protoName); err != nil {
		return err
	}

	f, err := federation.New(opts)
	if err != nil {
		return err
	}
	res, err := f.Run()
	if err != nil {
		return err
	}
	report(res, fed.NumClusters())
	if dumpStats {
		fmt.Println()
		fmt.Print(res.Stats.Dump())
	}
	return nil
}

func report(res *federation.Result, clusters int) {
	fmt.Printf("simulated %v of execution (%d events, %d failures)\n\n",
		res.EndTime, res.Events, res.Failures)

	fmt.Println("application messages (Table 1 format):")
	fmt.Printf("  %-10s %-10s %s\n", "sender", "receiver", "count")
	for i := 0; i < clusters; i++ {
		for j := 0; j < clusters; j++ {
			if res.AppMsgs[i][j] > 0 {
				fmt.Printf("  cluster %-2d cluster %-2d %d\n", i, j, res.AppMsgs[i][j])
			}
		}
	}

	fmt.Println("\ncluster-level checkpoints:")
	fmt.Printf("  %-10s %-9s %-9s %-7s %-8s %s\n",
		"cluster", "unforced", "forced", "total", "stored", "rollbacks")
	for _, c := range res.Clusters {
		fmt.Printf("  cluster %-2d %-9d %-9d %-7d %-8d %d\n",
			c.Cluster, c.Unforced, c.Forced, c.Total(), c.Stored, c.Rollbacks)
	}

	if len(res.GCRounds) > 0 {
		fmt.Println("\ngarbage collections (stored CLCs before -> after):")
		for _, r := range res.GCRounds {
			fmt.Printf("  at %-12v", r.At)
			for c := range r.Before {
				fmt.Printf("  c%d: %d->%d", c, r.Before[c], r.After[c])
			}
			fmt.Println()
		}
	}
	fmt.Printf("\nmax logged inter-cluster messages on any node: %d\n", res.MaxLoggedMessages)
}
