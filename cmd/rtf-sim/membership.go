package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"

	member "rtf/internal/membership"
	"rtf/internal/obs"
)

// reshardResult mirrors cluster.ReshardResult's wire form.
type reshardResult struct {
	Epoch     uint64 `json:"epoch"`
	Transfers int    `json:"transfers"`
	Members   int    `json:"members"`
	K         int    `json:"k"`
}

// reshard posts a new member list to the gateway's admin API.
func reshard(url string, members []member.Member) (res reshardResult, err error) {
	type entry struct {
		ID   string `json:"id"`
		Addr string `json:"addr"`
	}
	req := struct {
		Members []entry `json:"members"`
		K       int     `json:"k"`
	}{K: replicas}
	for _, m := range members {
		req.Members = append(req.Members, entry{m.ID, m.Addr})
	}
	body, err := json.Marshal(req)
	if err != nil {
		return res, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return res, fmt.Errorf("reshard: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return res, fmt.Errorf("decoding reshard result: %w", err)
	}
	return res, nil
}

// membership is the dynamic-membership choreography, over a member
// gateway (K = 2 replicas, 16 virtual shards) and three backends:
//
//  1. the three members ingest a third of the users; verify.
//  2. b3 joins by reshard WHILE the second third is in flight — the epoch
//     fence must park and re-route live ingest sessions; the reported
//     snapshot transfers must equal the in-process rendezvous plan and
//     stay within half the shard replicas (the point of rendezvous
//     placement: a join moves ~1/N, not a reshuffle); verify.
//  3. b1 drains by reshard (its shards hand off via snapshot transfer)
//     and must then SIGTERM-exit 0; verify.
//  4. the last third lands, a doomed stream of phantom hellos is aimed at
//     the shards of b2, b2 is kill -9ed under it — and every query shape
//     must still answer bit-for-bit, through quorum reads on the
//     surviving owner of every shard b2 held.
//
// The gateway's own ledger must agree at the end — epoch, transfers, at
// least one short read, no divergence — and the gateway and both
// surviving members must drain and exit 0 on SIGTERM.
func membership(name string, dep *deployment, st *driver, _ *options) error {
	gw := dep.gateway
	if gw.metrics == "" {
		return fmt.Errorf("rtf-gateway reported no metrics address (the reshard API mounts there)")
	}
	reshardURL := "http://" + gw.metrics + "/membership/reshard"
	var members []member.Member
	for _, p := range dep.backends {
		members = append(members, member.Member{ID: p.name, Addr: p.addr})
	}
	view := member.View{Epoch: 1, K: replicas, NumShards: vshards, Members: slices.Clone(members)}
	// move reshards to next and checks the result against the plan.
	transfers := 0
	move := func(what string, next []member.Member) (int, error) {
		nextView := member.View{Epoch: view.Epoch + 1, K: replicas, NumShards: vshards, Members: slices.Clone(next)}
		plan := len(member.Plan(view, nextView))
		res, err := reshard(reshardURL, next)
		if err != nil {
			return 0, fmt.Errorf("%s reshard: %w", what, err)
		}
		if res.Epoch != nextView.Epoch || res.Members != len(next) || res.K != replicas || res.Transfers != plan {
			return 0, fmt.Errorf("%s reshard result %+v, want epoch %d over %d members moving the rendezvous plan's %d shard snapshots",
				what, res, nextView.Epoch, len(next), plan)
		}
		members, view, transfers = next, nextView, transfers+plan
		return plan, nil
	}

	start := time.Now()
	addr, third := dep.addr, st.n/3
	fmt.Printf("%s stage 1: %d users -> gateway %s over %d members (K=%d, %d shards)\n",
		name, third, addr, len(members), replicas, vshards)
	if err := st.send(addr, 0, third); err != nil {
		return err
	}
	if _, err := st.verify(addr); err != nil {
		return fmt.Errorf("stage 1 verification: %w", err)
	}

	ingest := make(chan error, 1)
	go func() { ingest <- st.send(addr, third, 2*third) }()
	time.Sleep(50 * time.Millisecond) // let the concurrent ingest get going
	b3, err := dep.addBackend()
	if err != nil {
		return err
	}
	moved, err := move("join", append(slices.Clone(members), member.Member{ID: b3.name, Addr: b3.addr}))
	if err != nil {
		return err
	}
	fmt.Printf("%s stage 2: %s joined mid-ingest: epoch %d, %d shard snapshots moved (ceiling %d of %d replicas)\n",
		name, b3.name, view.Epoch, moved, vshards*replicas/2, vshards*replicas)
	if moved < 1 || moved > vshards*replicas/2 {
		return fmt.Errorf("join moved %d of %d shard replicas; rendezvous placement should move ~1/%d",
			moved, vshards*replicas, len(members))
	}
	if err := <-ingest; err != nil {
		return fmt.Errorf("ingest concurrent with the join reshard: %w", err)
	}
	if _, err := st.verify(addr); err != nil {
		return fmt.Errorf("post-join verification: %w", err)
	}

	moved, err = move("drain", slices.DeleteFunc(slices.Clone(members), func(m member.Member) bool { return m.ID == "b1" }))
	if err != nil {
		return err
	}
	if err := dep.stop(dep.backends[1]); err != nil {
		return err
	}
	fmt.Printf("%s stage 3: b1 drained (%d shard snapshots handed off) and exited 0\n", name, moved)
	if _, err := st.verify(addr); err != nil {
		return fmt.Errorf("post-drain verification: %w", err)
	}

	if err := st.send(addr, 2*third, st.n); err != nil {
		return err
	}
	uid := 9_000_000
	stop, err := st.doom(addr, func() int {
		for uid++; !view.Owns("b2", member.ShardOf(uid, vshards)); uid++ {
		}
		return uid
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s stage 4: kill -9 b2 (pid %d) under ingest aimed at its %d shards\n",
		name, dep.backends[2].cmd.Process.Pid, len(view.OwnedShards("b2")))
	err = dep.kill9(2)
	stop()
	if err != nil {
		return err
	}
	checked, err := st.verify(addr)
	if err != nil {
		return fmt.Errorf("verification with b2 dead: %w", err)
	}
	elapsed := time.Since(start)

	snap, err := obs.Fetch("http://" + gw.metrics + "/metrics")
	if err != nil {
		return fmt.Errorf("scraping gateway metrics: %w", err)
	}
	for gauge, ok := range map[string]func(float64) bool{
		"membership_epoch":             func(v float64) bool { return v == float64(view.Epoch) },
		"membership_transfers_total":   func(v float64) bool { return v == float64(transfers) },
		"membership_divergences_total": func(v float64) bool { return v == 0 },
		"membership_short_reads_total": func(v float64) bool { return v >= 1 }, // b2 is dead
	} {
		if v := snap.Gauges[gauge]; !ok(v) {
			return fmt.Errorf("gateway %s = %v after %d epochs, %d transfers and one dead replica", gauge, v, view.Epoch, transfers)
		}
	}
	if err := dep.drain(); err != nil {
		return err
	}
	st.summary(name, elapsed, checked)
	fmt.Printf("%s join, drain and kill -9 all answered bit-for-bit; gateway and surviving members drained and exited 0\n", name)
	return nil
}
