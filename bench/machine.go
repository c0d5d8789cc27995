package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// machineInfo is the header every output carries: enough to tell whether
// two result files may be compared at all.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LLCBytes   int64  `json:"llc_bytes"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
}

// readMachine gathers the header. Anything the host does not reveal reads
// "unknown" or 0; the benchmark also runs in checkouts that are not git
// repositories.
func readMachine() machineInfo {
	m := machineInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		LLCBytes:   llcBytes(),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		_ = f.Close() // read-only
	}
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		m.GitCommit = strings.TrimSpace(string(out))
	}
	return m
}

// llcBytes returns the size of the largest cache /sys reports for cpu0,
// 0 when it reports none.
func llcBytes() int64 {
	sizes, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
	var best int64
	for _, p := range sizes {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// peakRSSMB reads VmHWM, the peak resident set of process pid, in MB
// (pid 0 is this process).
func peakRSSMB(pid int) (float64, error) { return statusMB(pid, "VmHWM:") }

// rssMB reads VmRSS, the resident set of process pid right now, in MB
// (pid 0 is this process).
func rssMB(pid int) (float64, error) { return statusMB(pid, "VmRSS:") }

// statusMB reads one kB-valued field of /proc/<pid>/status, in MB.
func statusMB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("bench: rss: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: rss: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: rss: no %s in %s", field, path)
}

// triadMaxArrayBytes caps one triad array. The rule is four times the last
// level cache, but a guest can be shown its host's whole L3 (260 MiB on
// the box this was written on), and three arrays of four times that would
// cost more memory and page-fault time than the number is worth; the
// array size actually used is reported next to the LLC size.
const triadMaxArrayBytes = 256 << 20

// triadArrayBytes is the size of each of the three triad arrays: 4x the
// LLC /sys reports, at least 32 MiB, at most triadMaxArrayBytes.
func triadArrayBytes(llc int64) int64 {
	n := 4 * llc
	if n < 32<<20 {
		n = 32 << 20
	}
	if n > triadMaxArrayBytes {
		n = triadMaxArrayBytes
	}
	return n
}

// triadGBps measures sustainable memory bandwidth with the STREAM triad
// a[i] = b[i] + s*c[i] over arrays of arrayBytes each, on one goroutine
// and split over threads goroutines, each as the best of three passes
// after one that touches every page. Bytes are computed (24 per element:
// two loads, one store), not counted.
func triadGBps(threads int, arrayBytes int64) (one, all float64) {
	n := int(arrayBytes / 8)
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = 1
		c[i] = 2
	}
	pass := func(threads int) time.Duration {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < threads; w++ {
			lo, hi := w*n/threads, (w+1)*n/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range aa {
					aa[i] = bb[i] + 3*cc[i]
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	best := func(threads int) float64 {
		d := pass(threads)
		for i := 0; i < 2; i++ {
			if e := pass(threads); e < d {
				d = e
			}
		}
		return 24 * float64(n) / d.Seconds() / 1e9
	}
	pass(threads)
	return best(1), best(threads)
}
