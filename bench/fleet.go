package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Every listen port is pinned. deepszgw's rendezvous affinity hashes the
// backend URLs, so replicas on ephemeral ports would reshuffle which
// replica owns which model on every run, and thrash_closed's throughput
// with it (±8 % in the prototype, against ±0.5 % pinned). In a traced run
// the bench's proxies take the replica ports, so placement is identical,
// and the replicas move to the shadow ports behind them.
const gatewayPort = 18470

var (
	replicaPorts = []int{18471, 18472}
	shadowPorts  = []int{18473, 18474}
)

func loopback(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }

// child is one daemon the bench started, in its own process group so that
// stopping it takes anything it spawned with it.
type child struct {
	name string
	log  string // where its stdout and stderr go
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

// children tracks every live child so a signal or a timeout anywhere can
// stop them all; the bench must never leave a daemon behind.
var children struct {
	sync.Mutex
	live map[*child]bool
}

func startChild(name, logPath, path string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{name: name, log: logPath, cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]bool{}
	}
	children.live[c] = true
	children.Unlock()
	go func() {
		c.err = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	return c, nil
}

// stop ends the child's process group and waits until it is gone: SIGTERM
// for a graceful drain, SIGKILL if that takes longer than a second.
func (c *child) stop() {
	pgid := c.cmd.Process.Pid
	syscall.Kill(-pgid, syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(time.Second):
		syscall.Kill(-pgid, syscall.SIGKILL)
		<-c.done
	}
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// stopAllChildren is the last line of defence, for signals and timeouts.
func stopAllChildren() {
	children.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// portsFree fails loudly when a pinned port is taken — most likely a
// daemon left over from a run that was killed.
func portsFree(ports ...int) error {
	for _, p := range ports {
		ln, err := net.Listen("tcp", loopback(p))
		if err != nil {
			return fmt.Errorf("bench: pinned port %d is busy (%v); stop whatever holds it — the ports are fixed so model placement repeats", p, err)
		}
		ln.Close()
	}
	return nil
}

// fleet is one gateway in front of two replicas on loopback, and in a
// traced run the bench's recording proxies between them.
type fleet struct {
	gateway  *child
	replicas []*child
	proxies  []*traceProxy
	gwURL    string
	direct   []string // replica base URLs as the gateway sees them (the proxies, when traced)
	real     []string // the replicas' own base URLs
	client   *http.Client
}

// bootFleet starts the daemons with default flags except -addr, -model,
// -mem-budget and -backends — the numbers are what a user gets, and a later
// PR that deletes a tunable does not break the harness — and returns once
// every tier answers /healthz.
func bootFleet(ctx context.Context, e *env, w workload, runDir string, rec *recorder) (*fleet, error) {
	ports := append([]int{gatewayPort}, replicaPorts...)
	own := replicaPorts
	if rec != nil {
		ports = append(ports, shadowPorts...)
		own = shadowPorts
	}
	if err := portsFree(ports...); err != nil {
		return nil, err
	}
	f := &fleet{
		gwURL:  "http://" + loopback(gatewayPort),
		client: &http.Client{Timeout: 5 * time.Second},
	}
	ok := false
	defer func() {
		if !ok {
			f.stop()
		}
	}()

	spec := dszPath(runDir, w.ServeNet)
	if w.ServeNet != "lenet-300-100" {
		// Nets with a conv prefix need the weights file the .dsz was made
		// from; lenet-300-100 is fully covered by its .dsz.
		spec += ":" + e.pruned(w.ServeNet)
	}
	for i, port := range own {
		args := []string{"-addr", loopback(port), "-mem-budget", w.MemBudget}
		for n := 0; n < w.Names; n++ {
			args = append(args, "-model", fmt.Sprintf("m%d=%s", n, spec))
		}
		c, err := startChild(fmt.Sprintf("deepszd-%d", i), filepath.Join(runDir, fmt.Sprintf("deepszd-%d.log", i)), e.tool("deepszd"), args...)
		if err != nil {
			return nil, err
		}
		f.replicas = append(f.replicas, c)
		f.real = append(f.real, "http://"+loopback(port))
	}
	for i, c := range f.replicas {
		if err := f.waitHealthy(ctx, c, f.real[i]); err != nil {
			return nil, err
		}
	}
	for i, port := range replicaPorts {
		f.direct = append(f.direct, "http://"+loopback(port))
		if rec != nil {
			p, err := startTraceProxy(loopback(port), f.real[i], rec)
			if err != nil {
				return nil, err
			}
			f.proxies = append(f.proxies, p)
		}
	}
	gw, err := startChild("deepszgw", filepath.Join(runDir, "deepszgw.log"), e.tool("deepszgw"),
		"-addr", loopback(gatewayPort), "-backends", strings.Join(f.direct, ","))
	if err != nil {
		return nil, err
	}
	f.gateway = gw
	if err := f.waitHealthy(ctx, gw, f.gwURL); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// waitHealthy polls /healthz until it answers 200, the child dies, or ctx
// ends.
func (f *fleet) waitHealthy(ctx context.Context, c *child, base string) error {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := f.client.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.done:
			return fmt.Errorf("bench: %s exited before it was healthy: %v (log: %s)", c.name, c.err, c.log)
		case <-ctx.Done():
			return fmt.Errorf("bench: %s not healthy: %w", c.name, ctx.Err())
		case <-tick.C:
		}
	}
}

// stop shuts the fleet down front to back and waits for every process.
func (f *fleet) stop() {
	if f.gateway != nil {
		f.gateway.stop()
	}
	for _, p := range f.proxies {
		p.stop()
	}
	for _, c := range f.replicas {
		c.stop()
	}
	f.client.CloseIdleConnections()
}

// alive reports the first daemon that died, if any: a crashed tier must
// fail the run even when the gateway papered over it.
func (f *fleet) alive() error {
	for _, c := range append([]*child{f.gateway}, f.replicas...) {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during the run: %v", c.name, c.err)
		default:
		}
	}
	return nil
}

var errNoProc = errors.New("no /proc entry")

// procUsage reads a live child's CPU time (user + system, seconds) and
// resident set (MB) from /proc — measured from outside, like everything
// else about the daemons.
func procUsage(pid int) (cpuS, rssMB float64, err error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, errNoProc
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, errNoProc
	}
	cpuS, err = parseProcStat(string(stat))
	if err != nil {
		return 0, 0, err
	}
	rssMB, err = parseProcStatus(string(status))
	return cpuS, rssMB, err
}

// clockTicks is USER_HZ, which Linux fixes at 100 for every architecture Go
// supports; sysconf is not reachable without cgo.
const clockTicks = 100

// parseProcStat extracts utime+stime from /proc/<pid>/stat. The command
// name (field 2) may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStat(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("/proc stat: no command field")
	}
	fields := strings.Fields(stat[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, errors.New("/proc stat: too few fields")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("/proc stat: utime/stime not numeric")
	}
	return (utime + stime) / clockTicks, nil
}

// parseProcStatus extracts VmRSS (MB) from /proc/<pid>/status.
func parseProcStatus(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, errors.New("/proc status: no VmRSS line")
}
