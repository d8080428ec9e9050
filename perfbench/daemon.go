package main

import (
	"context"
	"errors"
	"fmt"
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

// daemon is one gclabd child process.
type daemon struct {
	id   string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once cmd.Wait has returned
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// fleetProcs owns every gclabd the benchmark starts. Its pid file lets a
// later run see daemons an earlier run left behind.
type fleetProcs struct {
	bin     string
	pidFile string
	logDir  string

	mu    sync.Mutex
	nodes []*daemon
}

func newFleetProcs(bin, stateDir string) *fleetProcs {
	return &fleetProcs{
		bin:     bin,
		pidFile: filepath.Join(stateDir, "gclabd.pids"),
		logDir:  stateDir,
	}
}

// checkStale refuses to run while a gclabd listed in the pid file is
// still alive: its CPU and ports would skew this run.
func (f *fleetProcs) checkStale() error {
	b, err := os.ReadFile(f.pidFile)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, line := range strings.Fields(string(b)) {
		pid, err := strconv.Atoi(line)
		if err != nil {
			continue
		}
		cmdline, err := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
		if err == nil && strings.Contains(string(cmdline), "gclabd") {
			return fmt.Errorf("gclabd pid %d from an earlier run is still alive (listed in %s); stop it first", pid, f.pidFile)
		}
	}
	return os.Remove(f.pidFile)
}

// freePorts reserves n distinct ephemeral loopback ports. All listeners
// stay open until every port is chosen, so the ports differ; they close
// just before the daemons bind them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// start launches n daemons with default flags: a standalone daemon for
// n == 1, otherwise a static fleet n0..n{n-1}. It returns once every
// node answers /healthz.
func (f *fleetProcs) start(ctx context.Context, n int) ([]*daemon, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, fmt.Errorf("reserve ports: %w", err)
	}
	var peers []string
	for i, p := range ports {
		peers = append(peers, fmt.Sprintf("n%d=http://127.0.0.1:%d", i, p))
	}
	var started []*daemon
	for i, p := range ports {
		args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", p)}
		id := ""
		if n > 1 {
			id = fmt.Sprintf("n%d", i)
			args = append(args, "-fleet", id, "-peers", strings.Join(peers, ","))
		}
		d, err := f.spawn(id, fmt.Sprintf("http://127.0.0.1:%d", p), args)
		if err != nil {
			f.stop(started)
			return nil, err
		}
		started = append(started, d)
	}
	for _, d := range started {
		if err := waitHealthy(ctx, d); err != nil {
			f.stop(started)
			return nil, err
		}
	}
	return started, nil
}

func (f *fleetProcs) spawn(id, url string, args []string) (*daemon, error) {
	log, err := os.Create(filepath.Join(f.logDir, "gclabd"+id+".log"))
	if err != nil {
		return nil, err
	}
	defer log.Close() // the child holds its own descriptor
	cmd := exec.Command(f.bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// A benchmark killed outright must not leave its daemons running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gclabd: %w", err)
	}
	d := &daemon{id: id, url: url, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
		close(d.done)
	}()
	f.mu.Lock()
	f.nodes = append(f.nodes, d)
	err = f.writePIDs()
	f.mu.Unlock()
	return d, err
}

// writePIDs records the live daemons; callers hold f.mu.
func (f *fleetProcs) writePIDs() error {
	if len(f.nodes) == 0 {
		err := os.Remove(f.pidFile)
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	var b strings.Builder
	for _, d := range f.nodes {
		fmt.Fprintln(&b, d.pid())
	}
	return os.WriteFile(f.pidFile, []byte(b.String()), 0o644)
}

func waitHealthy(ctx context.Context, d *daemon) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("gclabd %s exited before becoming healthy (see %s)", d.url, d.cmd.Stdout.(*os.File).Name())
		case <-ctx.Done():
			return fmt.Errorf("gclabd %s not healthy: %w", d.url, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM to each daemon, waits for it to drain, and falls
// back to SIGKILL after a grace period. It returns once every process
// has exited.
func (f *fleetProcs) stop(ds []*daemon) {
	for _, d := range ds {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	}
	for _, d := range ds {
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	kept := f.nodes[:0]
	for _, n := range f.nodes {
		stopped := false
		for _, d := range ds {
			stopped = stopped || n == d
		}
		if !stopped {
			kept = append(kept, n)
		}
	}
	f.nodes = kept
	_ = f.writePIDs() // a stale entry only makes the next run check a dead pid
}

// stopAll stops every daemon still running.
func (f *fleetProcs) stopAll() {
	f.mu.Lock()
	ds := append([]*daemon(nil), f.nodes...)
	f.mu.Unlock()
	f.stop(ds)
}
