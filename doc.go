// Package repro is a from-scratch Go reproduction of "A Hierarchical
// Checkpointing Protocol for Parallel Applications in Cluster
// Federations" (Monnet, Morin, Badrinath — 9th IEEE Workshop on
// Fault-Tolerant Parallel, Distributed and Network-Centric Systems,
// 2004): the HC3I protocol combining coordinated checkpointing inside
// clusters with communication-induced checkpointing between clusters,
// plus its discrete event simulator, baselines and the full evaluation.
//
// Module layout (module "repro", go 1.22):
//
//	hc3i                  public API: Run one federation, the experiment
//	                      registry, the parallel runner and the
//	                      scenario matrix
//	cmd/hc3ibench         regenerate every table/figure and run the
//	                      scenario matrix (-parallel, -matrix, -csv)
//	cmd/hc3isim           one simulation from the paper's config files
//	cmd/hc3itrace         watch the protocol work, event by event
//	internal/sim          deterministic discrete event engine, RNG
//	                      streams, statistics
//	internal/topology     clusters, SAN/LAN/WAN link classes (incl. the
//	                      high-jitter profile), federations
//	internal/netsim       latency/bandwidth/FIFO network model
//	internal/app          rate-driven workloads (uniform, pipeline,
//	                      hotspot, bursty on-off envelopes)
//	internal/core         the HC3I protocol state machine
//	internal/baseline     global-coordinated, hierarchical-coordinated
//	                      and pessimistic-logging baselines
//	internal/federation   harness wiring nodes, network, failures; the
//	                      protocol registry
//	internal/failure      fail-stop crash injection
//	internal/oracle       online protocol invariant checker (attach
//	                      with -oracle; always on in the chaos tier)
//	internal/chaos        seeded adversarial scheduler (reordering,
//	                      duplicates, targeted crash fuses)
//	internal/experiments  the registry (T1, F6-F9, T2-T3, A1-A9), the
//	                      run Config, the parallel runner and the
//	                      scenario matrix
//	internal/config       the paper simulator's three input files
//	internal/runtime      live (wall-clock, TCP) runtime for the same
//	                      protocol code and the same application
//	                      (app.NodeApp, its sends armed on the wall
//	                      clock)
//
// Start with the public API in repro/hc3i, the runnable examples under
// examples/, or the tools:
//
//	go run ./cmd/hc3isim    # one simulation from the paper's config files
//	go run ./cmd/hc3ibench  # regenerate every table and figure
//	go run ./cmd/hc3ibench -quick -matrix -parallel 8  # scenario matrix
//	go run ./cmd/hc3itrace  # watch the protocol work, event by event
//
// Every simulation is deterministic per seed, and the parallel runner
// preserves that: each federation is an isolated single-threaded
// simulation, results are collected in input order, and the rendered
// tables are byte-identical whatever the worker count.
//
// # One configuration path
//
// A registry or matrix run is described by one struct,
// experiments.Config: hc3i.RunnerOptions is an alias of it, hc3ibench
// binds its flags into it, and experiments.Run / RunMatrix consume it,
// attaching the shared worker semaphore and scratch arena themselves.
// Config.apply is the only place a run option (Oracle, RunTimeout, and
// the reference wires the differential tests select through unexported
// fields) becomes a federation.Options field; ScenarioOptions and the
// runner's execution path both call it.
// Rendered results are one type as well (hc3i.ExperimentResult =
// experiments.Table). A protocol is named in one table:
// federation.ProtocolFactory resolves the six names (hc3i, force-all,
// independent, global-coordinated, hier-coordinated, pessimistic-log)
// for the hc3i.Protocol constants, hc3isim -protocol, the matrix and
// the ablations, and rejects anything else with the list. An option or
// a protocol is therefore added or deleted in one place.
//
// # Invariant oracle and the chaos tier
//
// The -oracle flag (federation.Options.Oracle) attaches
// internal/oracle to any run: a subscriber to the protocol's
// core.Event stream asserting, at every commit, restore, delivery,
// piggyback send and GC event, the protocol's global
// safety properties — per-epoch DDV monotonicity and cluster-wide
// commit agreement (§3.1/§3.2), commit-line domination of all stable
// checkpoints (§3.2), no orphan deliveries after a rollback (§3.4,
// tracked as per-delivery obligations discharged only by the
// receiver's own cascaded rollback), recovery-line sanity (§3.4),
// garbage-collection safety against the recovery-line analysis
// (§3.5), and delta-codec/pipe lockstep (core/delta.go's wire
// contract). A shadow causal history patched with the wire's own
// delta pairs keeps the steady-state checks O(changed entries).
// Results are byte-identical with the oracle attached; the first
// violation stops the run with a diagnostic.
//
// The chaos tier (-matrix -filter tier=chaos) layers internal/chaos
// over the network: seeded adversarial schedules — bounded
// inter-cluster reordering within the jitter envelope, duplicate
// deliveries where the wire contract permits, and crash fuses aimed
// at protocol-sensitive windows (mid-2PC, mid-rollback-wave,
// mid-GC-round) — every run replayable from its -seed (traffic) and
// -chaos-seed (schedule) pair, swept with -chaos-seeds, always
// oracle-checked. The tier's seed
// sweeps found (and now pin the fixes for) three real protocol bugs:
// dropped deferred rollback alerts after crash recovery, held
// messages delivered inside the successor checkpoint's freeze window,
// and the cascade-suppression memo silencing a genuinely new rollback
// (fixed by the post-restore anchor CLC; see CHANGES.md).
//
// # The ladder-queue engine
//
// internal/sim's engine stores events in a slab ([]event) whose slots
// are recycled through a free list and guarded by generation stamps,
// so an EventRef into a recycled slot is inert (Cancel/Pending degrade
// to no-ops on a generation mismatch). The queue over the slab is a
// two-tier ladder:
//
//   - The near tier is a bucket array (512 buckets of ~1ms) covering a
//     sliding window of virtual time. Events due inside the window —
//     the network deliveries that dominate real runs — are appended in
//     O(1); a bucket is sorted by (timestamp, sequence) only when the
//     drain cursor reaches it.
//   - Events due beyond the window spill into a binary heap; when the
//     near tier drains, the window jumps to the earliest far event and
//     everything inside the new window migrates into the buckets.
//
// Correctness never depends on tier routing: every pop compares the
// heads of both tiers by (timestamp, sequence), so a conservatively
// far-routed event still fires in exact order. A differential fuzz
// test (internal/sim/slab_test.go) drives the ladder and a reference
// container/heap queue with identical schedule/cancel sequences across
// every tier boundary and requires identical firing order.
//
// Tick-FIFO determinism contract: events sharing a timestamp fire in
// scheduling order. The sequence number provides the total order;
// bucket appends arrive in sequence order and in-drain insertions
// binary-search behind their equals, so Engine.Run can drain a whole
// tick in one batched dispatch loop without re-running the two-tier
// comparison — and the order is byte-identical to the seed's binary
// heap, pinned by the determinism goldens in
// internal/experiments/testdata/.
//
// # Allocation discipline
//
// The simulation core is allocation-slim by construction:
//
//   - Engine scheduling and firing allocate nothing
//     (BenchmarkEnginePushPopLadder: 0 allocs/op on both tiers), and
//     Engine.ScheduleCall(fn, arg) is the closure-free scheduling path:
//     the dominant schedulers (netsim delivery, federation app sends)
//     hoist fn to a bound-once function and pass per-event state
//     through arg — a pooled pointer, so no closure per event.
//   - Per-node simulation state (handlers, link serialization slots,
//     timers, protocol nodes) lives in flat slices indexed by the
//     topology's dense node ordinal (topology.NodeIndex); struct-keyed
//     maps put hashing on every delivery and were a top profile entry.
//   - Nothing is allocated for a pair of clusters that never interact.
//     Per-pair state (netsim's counters and pipe, the trace perturber's
//     streams, the federation's delta codecs, the oracle's pipe
//     queues) lives in one open-addressing topology.PairTable per
//     owner, added on the pair's first traffic; the topology keeps one
//     federation-wide link class plus per-pair overrides. Inside a
//     node, only the DDV and the commit base are width-sized from the
//     start (the chain anchor is sparse): the epoch table holds just
//     the clusters that rolled back, a forced-CLC demand is the pairs
//     it raises from the CIC rule to the commit (the leader keeps the
//     pending demands and the ModeIndependent prepare acks as pair
//     lists, one pair per index at its largest SN), and dirty sets
//     mark in a bitset. A pipe's delta codec holds one width-sized
//     vector. BenchmarkFederationNewWide measures what assembling a
//     1024-cluster federation allocates.
//   - No message carries a dense vector. A transitive piggyback that
//     escapes an event is a core.SparseDDV — the sender's vector of
//     the DDV generation (Node.piggy), shared by every send, resend,
//     log entry and mirror of that generation — or, on a receiver's
//     deferred or recover-wait copy, the pipe decoder's vector in
//     sparse form. Its pairs are cut from the node's PairArena, one
//     chunk allocation per 256 pairs. Ownership rules: a shared
//     vector is immutable, chunks are never reallocated so outstanding
//     slices stay valid, and a chunk is garbage-collected when every
//     slice cut from it drops. Scratch that does not escape still
//     reuses node buffers (Node.pairScratch, DDV.CopyFrom).
//   - A stored CLC costs its commit's pairs, not a vector: the stored
//     history of a node is one core.Chain (next section), so a commit
//     copies no width-sized vector on any node.
//   - Wire messages travel in pooled boxes: the simulator and the live
//     runtime implement core.BoxPool (AppMsg/AppAck), and the live
//     runtime pools LogMirror too (core.MirrorBoxPool, the interim form
//     of one generic pool). The simulator reclaims a box right after
//     the destination's OnMessage returns. The live runtime keeps one
//     sync.Pool per type: over TCP the sender's box goes back when its
//     frame leaves the send window for good (acknowledged or given up,
//     never earlier, since a broken connection is resent from the
//     window), and the box the decoder fills goes back after the
//     receiving node's OnMessage returns; over ChanTransport the
//     sender's box is delivered and goes back there. Its stream
//     acknowledgements are framed and read by value.
//     BenchmarkNodeOnMessage runs at 0 allocs/op end to end.
//   - The checkpoint round's control messages (CLCRequest, CLCAck,
//     CLCCommit, ForceCLC, Replica, ReplicaAck, LogMirror) travel in
//     core.Box[T], as the baseline protocols' wire envelopes do
//     (core.Box[wire]). Ownership rules: a box is the sender's — it
//     comes from the sending node's free list (core.Boxes[T]) and goes
//     back there, because message types flow one way; the harness
//     calls ReclaimMsgBox once, after the destination's OnMessage
//     returns, and the receiver copies the value, never the box; one
//     box per delivery, so a broadcast or a Replica to several holders
//     takes a box per destination, its size computed once from the
//     value. Boxing is opt-in (core.BoxReclaimer, the harness's promise
//     to reclaim): the simulator opts in, the live runtime sends these
//     as plain values, LogMirror aside (its own pool, above), so its
//     wire codec and journal see their value types. Chaos duplicates
//     only copies, never a box. A broadcast of a type that is not boxed
//     (GCDrop, the rollback messages) boxes its value into core.Msg
//     once and hands every peer that interface value.
//   - One checkpoint round allocates nothing per node in steady state
//     (TestCLCRoundAllocsPerPeer): the provisional record is a value,
//     NodeApp cuts its snapshots (*app.State, immutable once cut) and
//     the log its entries from chunked core.Slab arenas, the replica
//     store is one SN-ordered list per owner (commits append, GC cuts
//     a prefix, a rollback a suffix, lookups binary-search), and the
//     frozen-send, deferred and held queues keep their backing arrays
//     across rounds.
//   - Histories that grow between two GC rounds — a node's stored
//     records, each owner's held replicas and log mirror — and every
//     sim.Series are sim.Blocks lists. Layout: a list that fits in one
//     64 KiB block is a plain slice grown by append (inline, no block
//     table); past it, further elements go to fixed-size 64 KiB
//     blocks, so an append never copies what is stored. A GC drop cuts
//     whole leading blocks, a rollback or reset whole trailing ones,
//     onto the list's own spare stack, which the next appends take
//     from before allocating; a cut that leaves one block compacts it
//     by copying. Ownership rules: every dropped slot is zeroed at
//     once (a dropped record releases its checkpoint state, a dropped
//     mirror its payload), a pointer from At is valid until the list's
//     next mutation, and a recovery answer copies the mirror out
//     (Blocks.AppendTo) rather than sharing a block.
//   - Observation points build nothing nobody reads. Each of them
//     emits a core.Event — a value struct (kind, mode, SN, epoch,
//     forced, pairs, DDV, message, peer, ...) with a fixed Level and a
//     String that renders the one-line trace text — to the env's
//     core.EventSink, an optional upgrade of core.Env resolved once in
//     NewNode like core.BoxPool. It is the protocol's one observation
//     channel, statistics included: core's one table of statistic
//     names (stats.go) says which counter or series each kind feeds,
//     and kinds with no other use exist only to be counted (series
//     points and bulk adds carry Event.Value). The simulator's sink,
//     present on every run, counts each event into the run's sim.Stats
//     through counters and series it resolves once per cluster, formats
//     only when the tracer reports the event's level, then hands the
//     event to the run's oracle; the live runtime's counts into its
//     counter table, prints every traced event when a trace writer is
//     set and journals what oracle.Record maps, encoded by the
//     hand-written oracle.Event.AppendJSON (byte for byte what
//     encoding/json writes, which FuzzEventAppendJSON checks, so the
//     journal reader is unchanged) without allocating. The oracle's kinds
//     (node start, restore, delivery, piggyback send, GC drop) and the
//     counting kinds are at sim.TraceOff and never printed. Without a
//     sink a point is one nil check and counts nothing; with one it is
//     one by-value call (no []any). A sink runs synchronously on the node's event path and
//     must copy any DDV or Pairs it keeps: applyCommit's committed
//     vector aliases the node's commit base, which the next commit
//     overwrites.
//   - Application snapshots are O(1): NodeApp records deliveries in an
//     append-only journal, its only delivery record, and a snapshot is
//     a journal prefix, cut without copying. A delivery is one append;
//     a restore truncates the journal to the snapshot's prefix (or, in
//     a fresh process, adopts it) and clips it so no later append
//     writes into a prefix a snapshot holds. The prefix travels in live
//     replicas, so a fresh process restores from it alone. Per-message
//     delivery counts are derived from the journal when asked for; the
//     end-of-run completeness check and the stable-latency dedupe share
//     one flat bitset over every node's sends, indexed by (sender
//     ordinal, Seq-1), which deterministic replay makes dense.
//   - federation.Arena pools per-run scratch (the event engine) across
//     the sweep points of one runner invocation; Engine.Reset wipes the
//     clock, queue and generation stamps, so pooled and fresh runs are
//     byte-identical — pinned by the determinism goldens.
//
// # The stored-CLC chain
//
// The paper attaches one DDV to every stored CLC (§3.2) and has the
// collector gather all of them (§3.5). Stored literally that is
// O(width x stored CLCs) per node and three width-sized copies per
// commit. core.Chain stores the same history as one sparse anchor (the
// oldest stored CLC's vector as its width and its non-zero entries),
// then per stored CLC its SN and the
// entries its commit changed — the pairs the delta wire already
// carries — with Node.commitBase holding the newest stored vector
// dense. It is the only representation: a node's records, the GC
// report (GCReport.Chain), the recovery answer (RecoverStateResp.Chain)
// and the oracle's shadow history are all a Chain, and the
// recovery-line analysis (core.SimulateFailure, core.SmallestSNs, and
// core.LineAnalyzer, which keeps its memory between GC rounds) runs
// on chains directly — per chain a column index built once from the
// pairs, "oldest record whose entry for c is >= s" a binary search over
// the column's changes, dense only for each cluster's one current
// vector. The dense list and the dense analysis survive as the test
// reference (internal/core/export_test.go), against which every history
// test, the chaos-schedule differential and FuzzChainAnalysis compare.
//
// Ownership rules:
//
//   - Anchor and pairs are immutable; a shipped chain shares them. A
//     prefix drop (Chain.DropBelow) builds a new anchor from the node's
//     PairArena with the dropped records' pairs folded in, and leaves
//     the old one to whoever shares it. A chain that leaves its node (a
//     GC report, a recovery answer) copies only its record list, and a
//     receiver that keeps it copies that list again.
//   - A pair slice is immutable once appended (cut from a PairArena by
//     the committing leader, or decoded fresh by the live runtime) and
//     is shared freely: between the nodes of a cluster, their reports
//     and the oracle (an EventCLCCommitted's Pairs may be retained).
//   - Entries never decrease along a chain (dependencies only grow
//     between rollbacks, and a rollback truncates): the analysis
//     asserts it while indexing and refuses a chain that breaks it.
//   - Reading a stored vector whole (rollback, recovery) walks anchor
//     plus pairs into the caller's buffer: O(width + pairs), on the
//     rare paths only.
//   - A transitive send logs its piggyback as one immutable
//     core.SparseDDV, built once per DDV generation from the node's
//     PairArena (Node.piggy) and shared by every log entry of that
//     generation, their mirrors, a recovery answer and an event sink's
//     piggyback event — in every mode, with or without pipe codecs.
//     A codec-free send and every resend carry that vector itself.
//     Go's collector frees
//     a vector when the last entry naming it goes. A message the
//     receiver holds for a forced CLC keeps only the pairs it raised:
//     the DDV never decreases while a message is held.
//
// # The delta DDV wire representation
//
// Dependency metadata (Direct Dependencies Vectors, one SN per cluster)
// used to travel dense on every carrying message, so piggyback, merge
// and clone costs grew linearly with federation width. The wire now
// carries only the (index, SN) pairs that changed (core/delta.go); the
// dense DDV remains the canonical in-node state, so protocol logic and
// recorded results are untouched. The contract is exactness: every
// decode reconstructs byte-for-byte the vector the dense encoding
// would have shipped, each escape point leaning on its own invariant —
// element-wise-max absorption for forced-CLC demands and prepare acks
// (omitted entries are provable no-ops, and the leader keeps both as
// short pair lists instead of width-sized vectors), the
// commit-chain base (Node.commitBase, re-anchored from the restored
// record on every rollback/recovery) for commit broadcasts, a FIFO
// pipe-exit codec in the cluster gateways (core.DeltaCodec +
// netsim.PipeExit, in sync across node crashes because the pipe is
// loss-free and decoding happens before the destination down-check)
// for transitive piggybacks; the codec keeps one dense vector, the
// decoder's, and sees what the encoder last shipped through the ring of
// deltas encoded but not yet decoded, which must reach Decode exactly
// once and in pipe order. The garbage collector's reports carry the
// stored chain under either wire.
//
// The checkpoint round's control messages have this one form; a
// mutation catalogue (federation's TestMutationCatalogue) drops one
// pair from a commit, a prepare ack or a forced-CLC demand and shows
// that the oracle, the harness's end-of-run checks or the goldens
// catch each. When the harness offers no pipe codecs — the live
// runtime, and the codec-free test fixture
// (federation.Options.NoPipeCodecs) — a transitive piggyback is the
// sender's whole vector in sparse form (AppMsg.Piggy), the very one
// its log entry holds. Both forms are priced identically — at the
// dense width — in the network model, so modeled
// delays, byte counters and all goldens are the same whichever form a
// piggyback takes; the delta form saves simulator time and
// allocations, not modeled bytes. Differential suites pin
// byte-identical output for the transitive wide-tier golden, the
// transitive ablation and transitive-with-crash runs compared on full
// statistics dumps.
// BenchmarkPiggybackMessage parameterizes the steady-state per-message
// path by width: both forms are near-flat in B/op from 8 to 1024
// clusters (its `dense` rows, named for the dense vector they used to
// copy, now run the codec-free sparse form).
//
// # Benchmark gating
//
// The benchmarks in this package (bench_test.go) tie each paper
// artifact to a `go test -bench` target. BENCH_baseline.json records
// the measured seed baseline; later PRs append BENCH_pr<N>.json
// snapshots (never overwriting earlier ones) so the performance
// trajectory stays visible. cmd/benchguard gates CI on allocs/op
// against the newest snapshot, on a fixed 20% budget: allocation
// counts are deterministic and independent of the recording machine.
// B/op gates on the same budget wherever it is stable across the
// -count runs, since an arena that hands out many vectors per
// allocation hides width-sized copies from allocs/op.
// ns/op is recorded in the snapshots as information only; wall-clock
// claims are made by the paired-run benchmark in bench/.
// cmd/hc3ibench takes -cpuprofile/-memprofile so the next perf PR
// starts from a profile, not a guess.
package repro
