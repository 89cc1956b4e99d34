package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"rtf/internal/obs"
)

// topology says which processes a scenario runs against. The values the
// scenario table uses are at the bottom of this file.
type topology struct {
	addr     string   // backends == 0 only: the operator's own server (-drive); nothing is spawned
	backends int      // rtf-serve processes to spawn, named b0, b1, …
	durable  []string // b0 keeps a data directory, with these flags beside it; nil = everything in memory
	gateway  string   // "": clients talk to b0; "-backends": static partition map; "-members": rendezvous view
	front    []string // extra flags of the process clients talk to
	every    []string // extra flags of every process
}

// The member topology's replication factor and virtual-shard count.
const (
	replicas = 2
	vshards  = 16
)

// deployment is a spawned topology. Every process listens on a port of
// its own choosing and serves /metrics; a data directory lives under one
// temporary root that close removes.
type deployment struct {
	topo                 topology
	flags                []string // of every process: metrics, the mode's, topo.every
	serveBin, gatewayBin string
	dir                  string
	backends             []*proc
	gateway              *proc  // nil without one
	addr                 string // where clients connect
}

// deploy spawns t's backends and then, if it has one, the gateway over
// them, all in the mode modeFlags select.
func deploy(t topology, modeFlags []string, serveBin, gatewayBin string) (d *deployment, err error) {
	d = &deployment{topo: t, addr: t.addr}
	if t.backends == 0 {
		return d, nil
	}
	d.flags = append(append([]string{"-metrics", "127.0.0.1:0"}, modeFlags...), t.every...)
	if d.serveBin, err = findBin(serveBin, "rtf-serve"); err != nil {
		return nil, fmt.Errorf("finding rtf-serve (-serve-bin): %w", err)
	}
	if d.dir, err = os.MkdirTemp("", "rtf-sim-"); err != nil {
		return nil, err
	}
	defer func(d *deployment) { // the error returns nil the named d
		if err != nil {
			d.close()
		}
	}(d)
	for len(d.backends) < t.backends {
		if _, err := d.addBackend(); err != nil {
			return nil, err
		}
	}
	d.addr = d.backends[0].addr
	if t.gateway == "" {
		return d, nil
	}
	if d.gatewayBin, err = findBin(gatewayBin, "rtf-gateway"); err != nil {
		return nil, fmt.Errorf("finding rtf-gateway (-gateway-bin): %w", err)
	}
	spec := make([]string, len(d.backends))
	for i, p := range d.backends {
		if spec[i] = p.addr; t.gateway == "-members" {
			spec[i] = p.name + "=" + p.addr
		}
	}
	args := []string{"-addr", "127.0.0.1:0", t.gateway, strings.Join(spec, ",")}
	if t.gateway == "-members" {
		// -dial-attempts 2: fail over to the quorum survivor quickly.
		args = append(args, "-replicas", fmt.Sprint(replicas), "-vshards", fmt.Sprint(vshards), "-dial-attempts", "2")
	}
	if d.gateway, err = start(d.gatewayBin, "rtf-gateway", append(append(args, t.front...), d.flags...)); err != nil {
		return nil, err
	}
	d.addr = d.gateway.addr
	return d, nil
}

// addBackend spawns the next rtf-serve of the topology; a member
// topology's joins the view only once a reshard names it.
func (d *deployment) addBackend() (*proc, error) {
	i := len(d.backends)
	name := fmt.Sprintf("b%d", i)
	args := []string{"-addr", "127.0.0.1:0"}
	if i == 0 && d.topo.durable != nil {
		args = append(append(args, "-data-dir", filepath.Join(d.dir, name)), d.topo.durable...)
	}
	if i == 0 && d.topo.gateway == "" {
		args = append(args, d.topo.front...)
	}
	if d.topo.gateway == "-members" {
		args = append(args, "-membership", "-id", name, "-vshards", fmt.Sprint(vshards))
	}
	p, err := start(d.serveBin, name, append(args, d.flags...))
	if err != nil {
		return nil, err
	}
	d.backends = append(d.backends, p)
	return p, nil
}

// front is the process clients talk to.
func (d *deployment) front() *proc {
	if d.gateway != nil {
		return d.gateway
	}
	return d.backends[0]
}

// kill9 SIGKILLs backend i and reaps it.
func (d *deployment) kill9(i int) error {
	p := d.backends[i]
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	p.wait() // "signal: killed" is the expected outcome
	p.cmd = nil
	return nil
}

// restart brings a killed backend back with the flags it had, on the same
// port — a gateway's backend list is fixed — and data directory, so its
// boot is a recovery: latest snapshot, then the WAL suffix.
func (d *deployment) restart(i int) error {
	old := d.backends[i]
	old.args[1] = old.addr
	p, err := start(old.bin, old.name, old.args)
	if err != nil {
		return fmt.Errorf("restarting %s after kill: %w", old.name, err)
	}
	d.backends[i] = p
	if p.addr != old.addr {
		return fmt.Errorf("%s restarted at %s, want %s", p.name, p.addr, old.addr)
	}
	return nil
}

// stop SIGTERMs one process, which must drain — a durable one flushing a
// final snapshot — and exit 0.
func (d *deployment) stop(p *proc) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	err := p.wait()
	p.cmd = nil
	if err != nil {
		return fmt.Errorf("%s did not exit 0 on SIGTERM: %w", p.name, err)
	}
	return nil
}

// drain stops whatever still runs, front to back.
func (d *deployment) drain() error {
	for _, p := range append([]*proc{d.gateway}, d.backends...) {
		if p != nil && p.cmd != nil {
			if err := d.stop(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// close is the error-path cleanup: it kills what drain did not stop and
// removes the data directories.
func (d *deployment) close() {
	for _, p := range append([]*proc{d.gateway}, d.backends...) {
		if p != nil && p.cmd != nil {
			p.cmd.Process.Kill()
			p.wait()
		}
	}
	if d.dir != "" {
		os.RemoveAll(d.dir)
	}
}

// findBin resolves a helper binary: the explicit flag, a sibling of
// this executable, then $PATH.
func findBin(explicit, name string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	if exe, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(exe), name)
		if fi, err := os.Stat(cand); err == nil && !fi.IsDir() {
			return cand, nil
		}
	}
	return exec.LookPath(name)
}

// proc is a spawned rtf-serve or rtf-gateway: the process plus the
// goroutine relaying its stderr. cmd is nil once the process is reaped.
type proc struct {
	name, bin     string
	args          []string // args[1] is the -addr value
	cmd           *exec.Cmd
	scanDone      chan struct{}
	addr, metrics string // as reported by the child's "listening" line
}

// wait reaps the process. It must be used instead of cmd.Wait so the
// stderr relay hits EOF first (os/exec forbids Wait while a pipe read is
// in flight — it would drop the tail of the child's log).
func (p *proc) wait() error {
	<-p.scanDone
	return p.cmd.Wait()
}

// start launches a server binary and waits for its "listening" stderr
// line to learn the bound addresses. The rest of the child's stderr keeps
// streaming through, prefixed with name. A child that exits before
// reporting an address (a failed bind, say) fails fast rather than timing
// out.
func start(bin, name string, args []string) (*proc, error) {
	p := &proc{name: name, bin: bin, args: args, cmd: exec.Command(bin, args...), scanDone: make(chan struct{})}
	p.cmd.Stdout = os.Stdout
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	listening := make(chan [2]string, 1)
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(os.Stderr, "  ["+name+"]", line)
			if a, m, ok := parseListenAddr(line); ok {
				select {
				case listening <- [2]string{a, m}:
				default:
				}
			}
		}
	}()
	select {
	case <-p.scanDone:
		select {
		case li := <-listening: // reported and exited in one breath
			p.addr, p.metrics = li[0], li[1]
			return p, nil
		default:
		}
		return nil, fmt.Errorf("%s exited before reporting a listen address: %v", name, p.cmd.Wait())
	case li := <-listening:
		p.addr, p.metrics = li[0], li[1]
		return p, nil
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		p.wait()
		return nil, fmt.Errorf("%s did not report a listen address within 15s", name)
	}
}

// parseListenAddr extracts the listen (and, when present, metrics)
// address from a server's structured startup line:
//
//	ts=... level=info component=rtf-serve msg=listening addr=127.0.0.1:7609 metrics=127.0.0.1:9609 ...
func parseListenAddr(line string) (addr, metrics string, ok bool) {
	kv, ok := obs.ParseLogLine(line)
	if !ok || kv["msg"] != "listening" || kv["addr"] == "" {
		return "", "", false
	}
	return kv["addr"], kv["metrics"], true
}

// The topologies of the scenario table. The crash choreography's durable
// backend snapshots every 300ms so that a kill lands between a snapshot
// and the WAL records after it.
var crashDurable = []string{"-fsync", "-snapshot-every", "300ms"}

func external(o *options) (topology, error) { return topology{addr: o.drive}, nil }

func single(*options) (topology, error) { return topology{backends: 1, durable: crashDurable}, nil }

func static3(*options) (topology, error) {
	return topology{backends: 3, durable: crashDurable, gateway: "-backends"}, nil
}

func members3(*options) (topology, error) { return topology{backends: 3, gateway: "-members"}, nil }

// soakTarget is -soak's: one rtf-serve, or with -soak-backends N a static
// gateway over N, with the bounded admission queue on the front. A single
// in-memory server applies a batch in microseconds, so closed-loop
// workers would never hold queue slots concurrently and the burst could
// not force a shed: alone, the server is durable with per-append fsync —
// the realistic production shape — so an apply holds its admission slot
// for a disk write.
func soakTarget(o *options) (topology, error) {
	t := topology{backends: 1, durable: []string{"-fsync"}, front: []string{"-queue", fmt.Sprint(o.queue)}, every: []string{"-grace", "20s"}}
	if o.soakBackends == 1 || o.soakBackends < 0 {
		return t, fmt.Errorf("-soak-backends %d: want 0 (one rtf-serve) or >= 2 (a gateway over that many)", o.soakBackends)
	}
	if o.soakBackends > 0 {
		t.backends, t.durable, t.gateway = o.soakBackends, nil, "-backends"
	}
	return t, nil
}
