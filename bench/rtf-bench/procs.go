package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"rtf/internal/obs"
)

// proc is one spawned serving process. Its stderr is scanned for the
// logfmt startup line (the listen and metrics addresses — every port
// is kernel-assigned) and otherwise kept only as a tail for error
// reports.
type proc struct {
	name        string
	cmd         *exec.Cmd
	addr        string
	metricsAddr string

	scanDone chan struct{} // stderr hit EOF
	mu       sync.Mutex
	tail     []string // last stderr lines
}

const procTailLines = 20

// spawned lists every child the harness has started, for the one exit
// that cannot unwind through the callers' own teardown: the watchdog.
var spawned struct {
	sync.Mutex
	procs []*os.Process
}

func trackSpawned(p *os.Process) {
	spawned.Lock()
	spawned.procs = append(spawned.procs, p)
	spawned.Unlock()
}

// killSpawned SIGKILLs every child and returns once each has ended. A
// child that another goroutine reaps first answers ECHILD, which says
// the same thing.
func killSpawned() {
	spawned.Lock()
	defer spawned.Unlock()
	for _, p := range spawned.procs {
		_ = p.Kill()
	}
	for _, p := range spawned.procs {
		_, _ = syscall.Wait4(p.Pid, nil, 0, nil)
	}
}

// startProc launches bin and waits for its msg=listening line. The
// child is killed with the harness (Pdeathsig), so an aborted run
// leaves nothing behind to poison the next.
func startProc(bin, name string, args []string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	trackSpawned(cmd.Process)
	p := &proc{name: name, cmd: cmd, scanDone: make(chan struct{})}
	type listen struct{ addr, metrics string }
	listening := make(chan listen, 1)
	go func() {
		defer close(p.scanDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if len(p.tail) == procTailLines {
				p.tail = p.tail[1:]
			}
			p.tail = append(p.tail, line)
			p.mu.Unlock()
			if kv, ok := obs.ParseLogLine(line); ok && kv["msg"] == "listening" && kv["addr"] != "" {
				select {
				case listening <- listen{kv["addr"], kv["metrics"]}:
				default:
				}
			}
		}
	}()
	select {
	case l := <-listening:
		p.addr, p.metricsAddr = l.addr, l.metrics
		return p, nil
	case <-p.scanDone:
		err := cmd.Wait()
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", name, err, p.logTail())
	case <-time.After(15 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not report a listen address within 15s\n%s", name, p.logTail())
	}
}

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return "  [" + p.name + "] " + strings.Join(p.tail, "\n  ["+p.name+"] ")
}

// wait reaps the process once its stderr is drained (os/exec forbids
// Wait while a pipe read is in flight).
func (p *proc) wait() error {
	<-p.scanDone
	return p.cmd.Wait()
}

// kill SIGKILLs and reaps; for error paths.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already-exited is fine: wait reaps either way
	_ = p.wait()
}

// stop SIGTERMs the process and requires a clean exit 0 within grace;
// past the grace it is SIGKILLed and the stop counts as a failure.
func (p *proc) stop(grace time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("%s: SIGTERM: %w", p.name, err)
	}
	done := make(chan error, 1)
	go func() { done <- p.wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s did not exit 0 on SIGTERM: %w\n%s", p.name, err, p.logTail())
		}
		return nil
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-done
		return fmt.Errorf("%s still running %v after SIGTERM; killed", p.name, grace)
	}
}

// peakRSSBytes reads the process's resident-set high-water mark
// (VmHWM) from /proc; it must be called before the process exits.
func (p *proc) peakRSSBytes() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// cpuTimes reads the aggregate cpu line of /proc/stat: steal jiffies
// and the total over all states.
func cpuTimes() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat head %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // user..steal; guest columns are already inside user/nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// hostSpinMicros times a fixed kernel of register arithmetic over an
// L2-sized table — about 49 µs on this host when it is quiet — and
// returns the best of 20: how fast a CPU is right now, whoever else the
// host is running. Every run prints it, so a reader can tell a slow
// host from slow code.
func hostSpinMicros() float64 {
	table := make([]uint64, 1<<16)
	x := uint64(88172645463325252)
	best := math.Inf(1)
	for rep := 0; rep < 20; rep++ {
		start := time.Now()
		for i := 0; i < 25000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&0xffff] += x
		}
		best = math.Min(best, float64(time.Since(start))/float64(time.Microsecond))
	}
	return best
}

// A halted vCPU takes the hypervisor tens of microseconds to wake, and
// how many tens depends on the host's mood: with the CPUs allowed to
// idle, a microsecond-scale round trip measures mostly that. So while a
// run measures, every CPU has an idle-priority spinner on it: a child
// process under SCHED_IDLE, which the kernel runs only when nothing
// else wants the CPU and preempts the moment anything does. No CPU ever
// halts, a wake-up is a context switch, and the serving processes lose
// nothing — the userspace equivalent of booting with idle=poll.

// spinFlag makes the harness binary act as one spinner.
const spinFlag = "-idle-spin"

// spinForever is the spinner child: it puts itself under SCHED_IDLE and
// never returns. It exits 1 when the policy is refused — a spinner at
// normal priority would steal what it is meant to give.
func spinForever() {
	runtime.LockOSThread()
	const schedIdle = 5
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "rtf-bench: idle spinner: sched_setscheduler(SCHED_IDLE):", errno)
		os.Exit(1)
	}
	for {
	}
}

// startSpinners launches one spinner per CPU and returns the function
// that kills and reaps them. The children die with the harness.
func startSpinners() (stop func(), err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			_ = c.Process.Kill() // already-exited is fine: Wait reaps either way
			_ = c.Wait()
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(exe, spinFlag)
		c.Stderr = os.Stderr
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("starting idle spinner: %w", err)
		}
		trackSpawned(c.Process)
		cmds = append(cmds, c)
	}
	return stop, nil
}
