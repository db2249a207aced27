package main

import (
	"bufio"
	"errors"
	"fmt"
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

// proc is one running dyncgd process. Its logs go to /dev/null: the
// benchmark measures serving, not log volume on a terminal.
type proc struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// spawn starts bin with args listening on a free loopback port. The
// child is killed if the benchmark dies, so no daemon outlives a run.
func spawn(bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop sends SIGTERM (the daemon drains and seals its replay log) and
// waits for the exit, killing the process if the drain hangs.
func (p *proc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case <-p.done:
		return p.err
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("dyncgd pid %d ignored SIGTERM for 20s", p.cmd.Process.Pid)
	}
}

// kill ends the process at once (abandoned set-ups).
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(c *client, p *proc, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("dyncgd exited during start-up: %v", p.err)
		default:
		}
		if st, _, err := c.do(http.MethodGet, p.url+"/healthz", nil); err == nil && st == http.StatusOK {
			return nil
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("dyncgd at %s not healthy after %v", p.url, timeout)
}

// cluster is the daemon processes a workload runs against.
type cluster struct {
	procs []*proc
	base  string // where clients send requests
}

// startCluster spawns the daemon and waits until it is healthy.
func startCluster(c *client, bin string, logDir string) (*cluster, error) {
	var args []string
	if logDir != "" {
		args = append(args, "-log-dir", logDir)
	}
	p, err := spawn(bin, args...)
	if err != nil {
		return nil, err
	}
	if err := waitHealthy(c, p, 30*time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return &cluster{procs: []*proc{p}, base: p.url}, nil
}

// stop drains every process (front door first) and reports the first
// failure.
func (cl *cluster) stop() error {
	var first error
	for _, p := range cl.procs {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// cpuMs is the user+system CPU the cluster's processes have used, from
// /proc/<pid>/stat (USER_HZ is 100 on Linux).
func (cl *cluster) cpuMs() (float64, error) {
	total := 0.0
	for _, p := range cl.procs {
		b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat"))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name: utime and stime
		// are fields 14 and 15 of the whole line.
		s := string(b)
		rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(rest) < 13 {
			return 0, fmt.Errorf("short /proc stat line for pid %d", p.cmd.Process.Pid)
		}
		for _, f := range rest[11:13] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, err
			}
			total += v * 10
		}
	}
	return total, nil
}

// peakRSSMiB sums VmHWM (peak resident set) over the cluster.
func (cl *cluster) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, p := range cl.procs {
		f, err := os.Open(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		found := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fs := strings.Fields(rest)
				if len(fs) > 0 {
					kb, err := strconv.ParseFloat(fs[0], 64)
					if err == nil {
						total += kb / 1024
						found = true
					}
				}
			}
		}
		f.Close()
		if !found {
			return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
		}
	}
	return total, nil
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name, labels string
	value        float64
}

type scrape []promSample

// scrapeMetrics reads GET /metrics.
func scrapeMetrics(c *client, base string) (scrape, error) {
	st, body, err := c.do(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", st)
	}
	var out scrape
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		out = append(out, promSample{name: name, labels: labels, value: v})
	}
	return out, nil
}

// sum adds every series of the named metric whose labels contain all
// the given fragments (members of a fleet are summed).
func (s scrape) sum(name string, labelParts ...string) float64 {
	t := 0.0
	for _, x := range s {
		if x.name != name {
			continue
		}
		ok := true
		for _, part := range labelParts {
			if !strings.Contains(x.labels, part) {
				ok = false
				break
			}
		}
		if ok {
			t += x.value
		}
	}
	return t
}
