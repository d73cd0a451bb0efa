// Live TCP: the same protocol code that the simulator drives, running
// for real — one goroutine per node, wall-clock checkpoint timers, and
// binary-encoded messages over loopback TCP. A node crashes mid-run and
// the cluster recovers from neighbour replicas.
//
//	go run ./examples/live_tcp
package main

import (
	"fmt"
	"log"
	"time"

	"repro/hc3i"
)

func main() {
	fed, err := hc3i.StartLive(hc3i.LiveConfig{
		Clusters:   []int{3, 3},
		CLCPeriods: []time.Duration{60 * time.Millisecond, 60 * time.Millisecond},
		UseTCP:     true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fed.Stop()

	// Some inter-cluster traffic: the first message piggybacks SN 1
	// and forces cluster 1's first CLC, like m1 in the paper's sample.
	for k := 0; k < 4; k++ {
		fed.Send(0, k%3, 1, (k+1)%3, 256)
		time.Sleep(40 * time.Millisecond)
	}

	// Crash a node, let the detector fire, recover.
	fmt.Println("crashing node 1 of cluster 0 ...")
	fed.Crash(0, 1)
	time.Sleep(50 * time.Millisecond)
	if err := fed.Recover(0, 1); err != nil {
		log.Fatal(err)
	}
	time.Sleep(400 * time.Millisecond)
	fed.Quiesce()

	fmt.Println("checkpoints: ", fed.String())
	fmt.Printf("rollbacks in cluster 0:        %d\n", fed.Counter("rollback.count.c0"))
	fmt.Printf("states recovered from replica: %d\n", fed.Counter("storage.recovered_states"))
	fmt.Printf("forced CLCs in cluster 1:      %d\n", fed.Counter("clc.committed.c1.forced"))
	fmt.Printf("cluster 0 SNs agree:           %v %v %v\n",
		fed.SN(0, 0), fed.SN(0, 1), fed.SN(0, 2))
}
