package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"graphsketch/internal/service"
)

// tenantName is the one tenant every workload drives.
const tenantName = "t"

// env is where one benchmark process builds, spawns and cleans up. All of it
// lives inside the checkout: the binary under .bench_build, data directories
// and traces under benchmark/out.
type env struct {
	root    string // repository checkout
	gsketch string // built cmd/gsketch binary
	runDir  string // this process's scratch, removed on every exit path

	mu       sync.Mutex
	children map[*node]bool
	nextDir  int
}

func newEnv(root string) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "gsketch")); err != nil {
		return nil, fmt.Errorf("%s is not the repository root: %w", root, err)
	}
	e := &env{
		root:     root,
		gsketch:  filepath.Join(root, ".bench_build", "gsketch"),
		runDir:   filepath.Join(root, "benchmark", "out", fmt.Sprintf("run-%d", os.Getpid())),
		children: map[*node]bool{},
	}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// build compiles cmd/gsketch once and returns how long that took. run.sh
// points GOCACHE into the checkout, so nothing is written outside it.
func (e *env) build() (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.gsketch, "./cmd/gsketch")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/gsketch: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// refuseIfServing fails when any `gsketch serve` process is alive: a child
// left over from an earlier run would share the two cores with this one and
// every number would be wrong.
func refuseIfServing() error {
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		return err
	}
	for _, p := range procs {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue // exited while we were looking
		}
		argv := bytes.Split(raw, []byte{0})
		if len(argv) >= 2 && filepath.Base(string(argv[0])) == "gsketch" && string(argv[1]) == "serve" {
			return fmt.Errorf("a `gsketch serve` is already running (%s); stop it before benchmarking", filepath.Dir(p))
		}
	}
	return nil
}

// newDir returns a fresh data directory under the run directory.
func (e *env) newDir(label string) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextDir++
	return filepath.Join(e.runDir, fmt.Sprintf("%s-%d", label, e.nextDir))
}

// cleanup kills and reaps every live child and removes the run directory.
// Every exit path — success, error, timeout, signal — goes through it.
func (e *env) cleanup() {
	e.mu.Lock()
	live := make([]*node, 0, len(e.children))
	for n := range e.children {
		live = append(live, n)
	}
	e.mu.Unlock()
	for _, n := range live {
		n.kill()
	}
	os.RemoveAll(e.runDir)
}

// node is one `gsketch serve` child on 127.0.0.1:0.
type node struct {
	env  *env
	cmd  *exec.Cmd
	dir  string
	addr string
	c    *service.Client
	// peakRSSMB and cpuSeconds are read from /proc just before the child is
	// killed; a dead process has no /proc entry.
	peakRSSMB, endRSSMB, cpuSeconds float64
	killOnce                        sync.Once
}

// serveFlags are the flags every child runs with; -epoch-every 256,
// -snapshot-every 4096 and -queue 64 stay at serve's defaults. Scrubbing is
// time-triggered, so it is off here and measured as a layer span instead.
// The per-request deadline is raised from 10 s to a minute: when the host
// stalls the VM for longer than that, the op must show as a slow sample, not
// end the run with a 504.
func serveFlags(dir, fsync, peers string) []string {
	args := []string{"serve", "-addr=127.0.0.1:0", "-dir", dir,
		"-n", strconv.Itoa(bundleConfig.N), "-k", strconv.Itoa(bundleConfig.K),
		"-eps", strconv.FormatFloat(bundleConfig.Eps, 'g', -1, 64),
		"-spanner-k", strconv.Itoa(bundleConfig.SpannerK),
		"-seed", strconv.FormatUint(bundleConfig.Seed, 10),
		"-scrub-every", "0", "-query-timeout", "60s", "-fsync", fsync}
	if peers != "" {
		args = append(args, "-peers", peers, "-sync-every", "20ms")
	}
	return args
}

// spawn starts a serve child on dir and waits for its ready line (the
// listener is bound; /readyz may still say recovering).
func (e *env) spawn(dir, fsync, peers string) (*node, error) {
	cmd := exec.Command(e.gsketch, serveFlags(dir, fsync, peers)...)
	cmd.Stderr = os.Stderr
	// The child dies with this process even if cleanup never runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{env: e, cmd: cmd, dir: dir}
	e.mu.Lock()
	e.children[n] = true
	e.mu.Unlock()
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadBytes('\n')
	var ready struct {
		Addr string `json:"addr"`
	}
	if err == nil {
		err = json.Unmarshal(line, &ready)
	}
	if err != nil || ready.Addr == "" {
		n.kill()
		return nil, fmt.Errorf("serve child gave no ready line (%q): %v", bytes.TrimSpace(line), err)
	}
	go io.Copy(io.Discard, rd) // keep the pipe drained; ends when the child exits
	n.addr = ready.Addr
	// One connection per server and no retries: a retry's backoff sleep
	// would hide inside a latency sample.
	n.c = &service.Client{
		Base:     "http://" + ready.Addr,
		HC:       &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		Timeout:  60 * time.Second,
		Attempts: 1,
	}
	return n, nil
}

func (n *node) url() string { return "http://" + n.addr }

// kill delivers SIGKILL, reaps the child and records its peak memory and
// CPU time first. Safe to call twice, and from the signal handler.
func (n *node) kill() {
	n.killOnce.Do(func() {
		n.readProc()
		n.cmd.Process.Kill()
		n.cmd.Wait()
		if n.c != nil {
			n.c.HC.CloseIdleConnections()
		}
		n.env.mu.Lock()
		delete(n.env.children, n)
		n.env.mu.Unlock()
	})
}

// waitReady polls /readyz until the server has recovered its tenants.
func (n *node) waitReady(deadline time.Time) error {
	for {
		err := n.c.Readyz()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server on %s not ready: %w", n.addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitPosition polls the tenant's durable position until it reaches want.
// Errors (an unknown tenant on a replica that has not synced yet) just mean
// not there yet.
func (n *node) awaitPosition(want int, deadline time.Time) error {
	for {
		got, err := n.c.Position(tenantName)
		if err == nil && got == want {
			return nil
		}
		if err == nil && got > want {
			return fmt.Errorf("server on %s is at %d, past %d", n.addr, got, want)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server on %s did not reach %d (at %d, %v)", n.addr, want, got, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// readProc records VmHWM, VmRSS and utime+stime of the child.
func (n *node) readProc() {
	pid := n.cmd.Process.Pid
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			kb, _ := strconv.ParseFloat(f[1], 64)
			switch f[0] {
			case "VmHWM:":
				n.peakRSSMB = kb / 1024
			case "VmRSS:":
				n.endRSSMB = kb / 1024
			}
		}
	}
	if raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the line, in clock ticks (100/s on Linux).
		if i := bytes.LastIndexByte(raw, ')'); i >= 0 {
			f := strings.Fields(string(raw[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				n.cpuSeconds = (ut + st) / 100
			}
		}
	}
}
