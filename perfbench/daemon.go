package main

import (
	"bufio"
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
	"syscall"
	"time"
)

// daemon is one knwd child process listening on 127.0.0.1.
type daemon struct {
	url     string
	cmd     *exec.Cmd
	exited  chan struct{} // closed once the process has been reaped
	startup time.Duration // exec → /healthz answers 200
}

// procs tracks every daemon started, so each is stopped and reaped on
// every exit path.
type procs struct {
	bin, dir string
	n        int
	live     []*daemon
}

// basePort is where the search for free daemon ports starts. Cluster
// members must know each other's URLs before they start, and the hash
// ring places keys by member URL, so the same ports on every run give
// every run the same key placement.
const basePort = 27100

// freePorts returns the first n loopback ports from basePort up that
// can be bound now.
func freePorts(n int) ([]int, error) {
	var ports []int
	for p := basePort; len(ports) < n && p < basePort+1000; p++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			continue
		}
		ln.Close()
		ports = append(ports, p)
	}
	if len(ports) < n {
		return nil, fmt.Errorf("found %d free ports from %d, need %d", len(ports), basePort, n)
	}
	return ports, nil
}

// start launches knwd on port with the workload-wide sketch flags plus
// extra, and returns once it answers /healthz.
func (p *procs) start(ctx context.Context, port int, extra ...string) (*daemon, error) {
	p.n++
	ready := filepath.Join(p.dir, fmt.Sprintf("knwd-%d.ready", p.n))
	_ = os.Remove(ready) // a stale file from an earlier run must not count as ready
	logf, err := os.Create(filepath.Join(p.dir, fmt.Sprintf("knwd-%d.log", p.n)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := append([]string{
		"-listen", fmt.Sprintf("127.0.0.1:%d", port),
		"-seed", strconv.Itoa(daemonSeed), "-kind", "concurrent-f0",
		"-epsilon", "0.05", "-delta", "0.05", "-universe-bits", strconv.Itoa(universeBits),
		"-ready-file", ready, "-log-level", "warn",
	}, extra...)
	d := &daemon{url: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{})}
	d.cmd = exec.Command(p.bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the kernel kills the daemon too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting knwd: %w", err)
	}
	p.live = append(p.live, d)
	go func() { _ = d.cmd.Wait(); close(d.exited) }()
	if err := d.waitHealthy(ctx, ready); err != nil {
		return nil, fmt.Errorf("knwd on port %d: %w (log: %s)", port, err, logf.Name())
	}
	d.startup = time.Since(t0)
	return d, nil
}

func (d *daemon) waitHealthy(ctx context.Context, ready string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return errors.New("exited during start-up")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if _, err := os.Stat(ready); err != nil {
			continue
		}
		resp, err := http.Get(d.url + "/healthz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
	return errors.New("not healthy after 30s")
}

// stop sends SIGTERM, waits for exit, and kills the process if it has
// not exited within ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// stopAll stops and reaps every live daemon.
func (p *procs) stopAll() {
	for _, d := range p.live {
		d.stop()
	}
	p.live = nil
}

// usage reads the process's CPU time (user+system) and peak resident
// set size (VmHWM) from /proc.
func (d *daemon) usage() (cpuS, hwmMB float64, err error) {
	pid := d.cmd.Process.Pid
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15, in clock ticks (100/s).
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			hwmMB = kb / 1024
		}
	}
	return (ut + st) / 100, hwmMB, nil
}

// scrape is one parsed /metrics page: series ("name{labels}") → value.
type scrape map[string]float64

func getScrape(c *http.Client, base string) (scrape, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return parseScrape(resp.Body)
}

func parseScrape(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of metric name whose labels contain each of
// the given `key="value"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for series, v := range s {
		if series != name && !strings.HasPrefix(series, name+"{") {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(series, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// label returns the value of label key on the first series of name.
func (s scrape) label(name, key string) string {
	for series := range s {
		if !strings.HasPrefix(series, name+"{") {
			continue
		}
		_, rest, ok := strings.Cut(series, key+`="`)
		if !ok {
			continue
		}
		v, _, _ := strings.Cut(rest, `"`)
		return v
	}
	return ""
}

// sumAll adds the scrapes of several daemons series by series.
func sumAll(all []scrape) scrape {
	out := scrape{}
	for _, s := range all {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}
