package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostFacts are recorded with every run, so a result can be read
// against the machine that produced it.
type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHostFacts() hostFacts {
	return hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     commit("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from a .git directory in dir
// itself (never a parent: the benchmark reads only its checkout), or
// reports "unknown" for an exported tree.
func commit(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(dir, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if h, r, ok := strings.Cut(sc.Text(), " "); ok && r == ref {
				return h
			}
		}
	}
	return "unknown"
}

// stealMs is the CPU time the hypervisor has given to other guests
// while this host's vCPUs were ready to run, summed over all vCPUs (the
// steal column of /proc/stat's cpu line, in USER_HZ = 100 ticks/s).
// It is 0 where the kernel does not report steal.
func stealMs() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v * 10
}

// runRecord is one run's full account, written under the work
// directory's runs/ for the summary.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Host      hostFacts          `json:"host"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	ErrorFrac float64            `json:"error_frac"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     map[string]any     `json:"notes"`
	Errors    []string           `json:"errors,omitempty"`
}

// summarize prints, for each workload and metric over every recorded
// run, the median, the quartiles, and the interquartile spread as a
// share of the median — the noise floor a claimed change must beat.
func summarize(w io.Writer, dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	vals := map[key][]float64{}
	seeds := map[string]map[int64]bool{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rec runRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if seeds[rec.Workload] == nil {
			seeds[rec.Workload] = map[int64]bool{}
		}
		seeds[rec.Workload][rec.Seed] = true
		for name, v := range rec.Metrics {
			k := key{rec.Workload, name}
			vals[k] = append(vals[k], v)
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-16s %-34s %4s %12s %12s %12s %8s\n", "workload", "metric", "n", "q1", "median", "q3", "iqr/med")
	for _, k := range keys {
		xs := vals[k]
		q1, q2, q3 := quartiles(xs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(w, "%-16s %-34s %4d %12.4f %12.4f %12.4f %8.3f\n", k.workload, k.metric, len(xs), q1, q2, q3, spread)
	}
	return nil
}
