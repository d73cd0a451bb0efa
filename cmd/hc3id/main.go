// Command hc3id is one HC3I federation node as an OS process: the
// "real system" the paper's §7 asks for. Every daemon loads the same
// federation config file, hosts exactly one protocol node over the
// hardened TCP transport, and journals its protocol observations
// (commits, rollbacks, deliveries, GC drops, control sends) as JSONL —
// the artifact `hc3itrace -journal` pretty-prints and the offline
// oracle replays for invariant violations.
//
// Usage:
//
//	hc3id -config fed.json -node c0n1 -journal c0n1.jsonl
//	      [-duration 10s] [-recover auto|yes|no] [-trace]
//
// Config file format (JSON):
//
//	{
//	  "clusters": [3, 2],
//	  "addrs": {
//	    "c0n0": "127.0.0.1:7700", "c0n1": "127.0.0.1:7701",
//	    "c0n2": "127.0.0.1:7702",
//	    "c1n0": "127.0.0.1:7710", "c1n1": "127.0.0.1:7711"
//	  },
//	  "clc_period_ms": 50,
//	  "gc_period_ms": 0,
//	  "replicas": 1,
//	  "workload": {"period_ms": 5, "inter_prob": 0.3, "size": 256}
//	}
//
// The workload runs the simulator's application (app.NodeApp) on the
// wall clock. Each node's sends are a Poisson process with mean gap
// period_ms (earlier versions waited a uniform delay in [P/2, 3P/2)
// between sends). A share inter_prob of a cluster's sends goes to the
// other clusters, spread evenly; the rest stays inside the cluster,
// except in a one-node cluster, which sends only inter-cluster. Each
// message carries size bytes. After a rollback a node replays the same
// sends, also in a restarted process. period_ms and size must be
// positive and inter_prob in [0, 1].
//
// A SIGTERM (or -duration expiring) drains cleanly: the event loop is
// quiesced, a final "stop" journal line records the counters, and the
// transport shuts down. A SIGKILL costs at most one torn journal line,
// which reopening and replay both tolerate.
//
// Crash recovery: restart the daemon with the same -journal path and
// -recover auto (the default; a non-empty journal means this is a
// rebirth). The fresh incarnation boots with lost state, announces
// itself to its cluster (Hello), and a surviving peer runs the failure
// detector — triggering the protocol's rollback, state recovery from
// the replica holders, and resumption.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/runtime"
	"repro/internal/topology"
)

func main() {
	var (
		configPath  = flag.String("config", "", "federation config file (required)")
		nodeName    = flag.String("node", "", "node to host, cXnY form (required)")
		journalPath = flag.String("journal", "", "JSONL event journal path (required)")
		duration    = flag.Duration("duration", 0, "exit cleanly after this long (0 = run until SIGTERM)")
		recoverMode = flag.String("recover", "auto", "crash-recovery boot: auto|yes|no (auto = journal non-empty)")
		trace       = flag.Bool("trace", false, "protocol trace on stderr")
	)
	flag.Parse()
	if err := run(*configPath, *nodeName, *journalPath, *duration, *recoverMode, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "hc3id:", err)
		os.Exit(1)
	}
}

func run(configPath, nodeName, journalPath string, duration time.Duration, recoverMode string, trace bool) error {
	if configPath == "" || nodeName == "" || journalPath == "" {
		return fmt.Errorf("-config, -node and -journal are required")
	}
	fed, err := runtime.LoadFederationFile(configPath)
	if err != nil {
		return err
	}
	self, err := topology.ParseNodeID(nodeName)
	if err != nil {
		return err
	}
	addrs, err := fed.AddrMap()
	if err != nil {
		return err
	}
	if _, ok := addrs[self]; !ok {
		return fmt.Errorf("node %v not in the federation", self)
	}

	recovering := false
	switch recoverMode {
	case "yes":
		recovering = true
	case "no":
	case "auto":
		if fi, err := os.Stat(journalPath); err == nil && fi.Size() > 0 {
			recovering = true
		}
	default:
		return fmt.Errorf("bad -recover %q (want auto|yes|no)", recoverMode)
	}

	journal, err := runtime.OpenJournal(journalPath)
	if err != nil {
		return err
	}

	cfg := fed.RuntimeConfig([]topology.NodeID{self})
	cfg.Recovering = recovering
	cfg.Journal = journal
	cfg.Transport = runtime.NewTCPTransportWith(runtime.TCPConfig{Addrs: addrs})
	if trace {
		cfg.Trace = os.Stderr
	}

	live, err := runtime.Start(cfg)
	if err != nil {
		journal.Close()
		return err
	}
	mode := "fresh"
	if recovering {
		mode = "crash-recovery"
	}
	fmt.Fprintf(os.Stderr, "hc3id: %v up on %s (%s boot), journal %s\n",
		self, addrs[self], mode, journalPath)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	var timeout <-chan time.Time
	if duration > 0 {
		timeout = time.After(duration)
	}
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "hc3id: %v draining on %v\n", self, sig)
	case <-timeout:
		fmt.Fprintf(os.Stderr, "hc3id: %v draining after %v\n", self, duration)
	}

	// Clean drain: barrier through the event loop so in-flight work
	// applies, then stop (which journals the final counters) and close.
	live.Quiesce()
	live.Stop()
	if err := journal.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}
