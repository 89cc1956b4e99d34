package main

import (
	"fmt"
	"time"

	"rtf/internal/obs"
)

// crash is the kill -9 choreography. Over a topology whose b0 is
// durable: ingest half the users, in two chunks around a pause long
// enough for a periodic snapshot to fire — so the kill tests real mixed
// recovery, the snapshot plus the WAL records after its cursor, not a
// replay of the whole log — verify, kill -9 b0 under a doomed stream
// aimed at it, restart it on the same port and data directory, verify
// again, ingest the rest, verify, run the mode's audit of b0 and SIGTERM
// everything, which must drain and exit 0. Over a topology with nothing
// of the harness's to kill (-drive, a server the operator started) the
// fault block is empty and what is left is ingest, verify, report.
func crash(name string, dep *deployment, st *driver, _ *options) error {
	start := time.Now()
	addr, half := dep.addr, 0
	if dep.topo.durable != nil {
		half = st.n / 2
		fmt.Printf("%s phase 1: %d users -> %s (%d backends, b0 durable under %s)\n", name, half, addr, len(dep.backends), dep.dir)
		if err := st.send(addr, 0, half/2); err != nil {
			return err
		}
		time.Sleep(700 * time.Millisecond) // > -snapshot-every: let a snapshot cover the prefix
		if err := st.send(addr, half/2, half); err != nil {
			return err
		}
		if _, err := st.verify(addr); err != nil {
			return fmt.Errorf("pre-crash verification: %w", err)
		}
		// Phantom user ids ≡ 0 mod the backend count: behind a static
		// gateway every one of them routes to b0.
		u, step := 0, len(dep.backends)
		stop, err := st.doom(addr, func() int { u += step; return 2_000_000*step + u })
		if err != nil {
			return err
		}
		fmt.Printf("%s kill -9 b0 (pid %d) mid-ingest\n", name, dep.backends[0].cmd.Process.Pid)
		err = dep.kill9(0)
		// A gateway survives the dead backend (its forwards retry with
		// backoff); the doomed client is ours, so cut it loose.
		stop()
		if err != nil {
			return err
		}
		if err := dep.restart(0); err != nil {
			return err
		}
		checked, err := st.verify(addr)
		if err != nil {
			return fmt.Errorf("post-recovery verification: %w", err)
		}
		fmt.Printf("%s b0 recovered from snapshot + WAL: %d values bit-for-bit\n", name, checked)
	}

	fmt.Printf("%s ingest: the remaining %d users -> %s\n", name, st.n-half, addr)
	if err := st.send(addr, half, st.n); err != nil {
		return err
	}
	elapsed := time.Since(start)
	checked, err := st.verify(addr)
	if err != nil {
		return fmt.Errorf("final verification: %w", err)
	}
	if dep.topo.durable != nil {
		// ?gc=1 forces a GC and a scavenge first, so an RSS reading is live
		// heap, not the allocator's return-to-OS lag.
		snap, err := obs.Fetch("http://" + dep.backends[0].metrics + "/metrics?gc=1")
		if err != nil {
			return fmt.Errorf("scraping the durable backend's metrics: %w", err)
		}
		if err := st.mode.audit(snap); err != nil {
			return err
		}
	}
	if err := dep.drain(); err != nil {
		return err
	}
	st.summary(name, elapsed, checked)
	if dep.topo.durable != nil {
		fmt.Printf("%s kill -9 + restart of the durable backend recovered bit-for-bit; every process drained and exited 0\n", name)
	}
	return nil
}
