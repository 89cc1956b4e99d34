// Package rtf is the root of the RTF repository: a Go implementation of
// "Randomize the Future: Asymptotically Optimal Locally Private Frequency
// Estimation Protocol for Longitudinal Data" (Ohrimenko, Wirth, Wu;
// PODS 2022).
//
// The public API lives in rtf/ldp (the Mechanism registry over every
// protocol of the paper, mechanism-agnostic streaming client/server with
// a unified Query/Answer entry point, batch transport, domain extension) and rtf/workload (synthetic dataset
// generation and CSV IO). A program that imports rtf/ldp links the
// protocol and its byte format (rtf/internal/wire), not the server: no
// transport, WAL, metrics server or network stack (ldp's
// TestClientLinksNoServer). The implementation, baselines, evaluation
// harness and verifiers live under rtf/internal, whose exported API is
// what shipped code calls: TestInternalExportsHaveShippedCallers in this
// directory fails on an internal export that no non-test file of this
// module or of bench/ references, bar a short allowlist of oracles other
// packages' tests use, each with its reason. The experiments E1–E22
// are runnable via cmd/rtf-experiments, the sharded batch-ingest
// aggregation service via cmd/rtf-serve (hosting any registered dyadic
// mechanism), the acceptance harness that drives real deployments of it
// via cmd/rtf-sim (below), and bench_test.go in this directory
// carries one benchmark per experiment plus micro-benchmarks of every
// hot path, including the batched-versus-single-message ingestion
// comparison and the client's per-period cost over a d × k grid.
//
// A streaming client is one object behind one interface dispatch:
// ldp.Report is the protocol layer's Report, the protocol clients are
// the ldp client engines and the domain reduction's observers, and a
// protocol.Client holds its boundary state (Observation 3.7), its
// randomizer (core.Instance, the pre-computed b̃ of Algorithm 3) and
// its generator (rng.RNG over an embedded PCG) by value — the paper's
// pre-computation claim, O(1) per period independent of d and k, is
// pinned by BenchmarkClientObserve and TestClientSteadyStateAllocs, and
// ldp's golden-stream test pins every mechanism's output draw for draw.
//
// The server does almost nothing per report — one ±1 into one dyadic
// node — and the serving path is built to cost about that: a served
// report goes from bytes to a validated 24-byte record to a counter
// (wire.Decoder.NextFrame, one fused decode-and-validate kernel
// driven by the mode's ingest contract), never through the general
// message struct; a connection's frames are read through a buffer that
// holds a whole frame, and acknowledgements are buffered and flushed
// when the frame loop is about to block, so a burst of pipelined frames
// costs one read and one write per wake-up. BenchmarkIngestServed and
// BenchmarkIngestKernel keep both numbers in the CI bench gate, and
// FuzzIngestKernel pins the kernel, field for field and error for
// error, to the general decoder it replaced.
//
// The aggregation service is durable: rtf/internal/persist provides a
// segmented write-ahead log and checksummed snapshot files, the
// transport layer journals every ingested frame — the bytes it
// received, not a re-encoding of what it decoded — before applying it
// (transport.Durable), and mechanisms expose their server state through
// the ldp Snapshotter/Restorer capability, so a crashed rtf-serve
// restarts from snapshot + WAL replay answering every query bit-for-bit
// as if uninterrupted — reports are spent privacy budget and can never
// be re-requested from users. The journaling hot path is allocation-free
// in steady state, and WAL appends group-commit themselves
// (persist.WAL.Append): batches from all connections that arrive while
// a write is in flight are committed together in the next write, with
// at most one fsync, and each batch is acknowledged only after its group
// is journaled — grouping changes who pays for the sync, never what an
// ack promises. There is no coalescing window: a lone batch is written
// at once.
//
// The service also scales out: cmd/rtf-gateway (rtf/internal/cluster)
// fronts N rtf-serve backends as one service, hash-partitioning users
// across them (user id mod N) and answering every query shape by
// scatter/gather — each backend ships its raw per-interval integer
// sums (a SumsFrame on the wire), and the gateway folds them into a
// fresh accumulator before estimating. A gather moves what the paper's
// estimator reads, not the accumulator: the request carries the period
// range the read is evaluated over (wire.Scope), the frame the
// header counts and the at most 2·log₂ d interval sums of that range's
// dyadic cover, and the folded state is built over that narrow matrix —
// only series-shaped reads move all 2d−1 columns. Because the dyadic state is
// additive in exact integers and the estimator is a fixed linear
// function of them, gateway answers are bit-for-bit those of a single
// serial server fed every report; a dead backend stalls (re-dial with
// backoff) rather than fails.
//
// Cluster membership is dynamic: rtf-gateway -members runs the same
// gateway (rtf/internal/cluster.Gateway) over another placement — where
// -backends is the membership.View that never changes (one owner per
// shard, user mod N), -members partitions users into -vshards virtual
// shards placed on K-member owner sets by rendezvous (HRW) hashing
// under an epoched View carried on the wire (MsgViewUpdate); every
// mode and every read-path feature serves over either.
// Ingest forwards every report to all K owners — under local DP a lost
// shard is unrecoverable signal, since re-requesting reports would
// spend privacy budget twice, so replication is the only safe
// durability story — and queries quorum-read every owner, comparing
// raw integer sums bit-for-bit (after fencing all in-flight forwards,
// so a mismatch is corruption, never a race). POST /membership/reshard
// joins or drains members online: the gateway fences live sessions,
// exports each moved vshard through the same encoding-checked raw-sums
// request a read sends (so an owner hashing under another seed refuses
// it), ships the folded state over MsgShardTransfer frames (~1/N
// movement, the rendezvous minimum), and bumps the epoch so no report
// is ever applied under two placements.
//
// Domain-valued tracking (the paper's "richer domains" adaptation,
// Section 1) is a first-class online workload in the same architecture:
// each user samples one target item from [0..m), streams its Boolean
// indicator through any mechanism with the Domain capability
// (ldp.NewDomainClient), and the server runs one dyadic accumulator per
// item with estimates scaled by m (ldp.NewDomainServer), answering the
// item-scoped query shapes — PointItem, SeriesItem and the TopK
// heavy-hitter query — online. Past 4096 items the loloha encoding
// hashes the catalogue to g bucket rows and decodes them; the encoding
// is a value (hh.DomainEncoding) carried through one client, one
// transport mode and one answer path, and only the decoder differs. The per-item counters live in one
// contiguous per-shard matrix (protocol.DomainSharded), item-major, so
// domain ingest is a single indexed plain add (one shard lock per
// ingested run; the lock discipline is written once, on that type, and
// the Boolean protocol.Sharded is its one-row view) and TopK a linear
// sweep;
// estimates stay fixed linear functions of exact integer counters, so
// the layout is invisible in every answer (docs/PERFORMANCE.md derives
// the argument and the measured ~2x ingest speedup). Item-tagged wire frames carry the same
// workload over TCP (rtf-serve -m), through the write-ahead log and
// snapshots (per-item state), and across the cluster gateway
// (rtf-gateway -m, shipping per-item raw sums), all with the same
// bit-for-bit exactness.
//
// The serving processes are observable and overload-safe:
// rtf/internal/obs is a dependency-free metrics registry (counters,
// gauges, histograms, a JSON /metrics endpoint mounted by -metrics,
// and a logfmt structured logger both binaries write to stderr), and
// transport.ServerMetrics instruments ingest rate, batch sizes,
// apply latency, ack coalescing, queue occupancy, WAL lag, snapshot
// age, per-backend scatter latency and per-mechanism query counts
// across rtf-serve and rtf-gateway. Both binaries resolve the protocol
// flags and run this serve lifecycle through one package,
// rtf/internal/front: a refused flag set exits 1 naming the binary, the
// /metrics info map and the listening line name the protocol in force
// (mechanism, d, k, m, ε, encoding, g, seed, scale), and the capability
// each binary needs of its mechanism — the sharded accumulator for a
// node, exact cross-machine merge for a gateway — comes from the binary
// rather than from a flag. A bounded admission queue (-queue)
// sheds acked batches whole — a negative ack, never a partial apply; on
// the gateway the check runs before any forward — while legacy batches
// block for natural TCP backpressure; the gateway read path adds per-backend
// fetch deadlines (-fetch-timeout) and hedged reads (-hedge) against
// slow backends.
//
// cmd/rtf-sim holds all of the above to the exactness invariant against
// real processes. Its acceptance scenarios are rows of one table — the
// flags that select the row, a protocol mode (Boolean, exact domain,
// hashed domain), a topology (a single durable server, a static gateway
// over three backends, a member gateway) and one of three
// choreographies: crash (kill -9 of the durable backend mid-ingest,
// snapshot + WAL recovery, every process exits 0 on SIGTERM), membership
// (join mid-ingest, drain by snapshot handoff, kill -9 of a replica) and
// soak (paced acked-batch load, /metrics scraped, a burst until the queue
// sheds, steady memory, bounded queue depth, a p99 ingest-latency
// ceiling) — each verifying every query shape bit-for-bit against an
// in-process reference fed the same (soak: exactly the acked) reports.
// The harness speaks the versioned query frames only; the v1 point query
// (wire types 4 and 5) is retired and refused by every front.
package rtf
