package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// procField reads one "Key: value ..." number from a /proc/self file;
// 0 when the file or key is missing (non-Linux).
func procField(file, key string) int64 {
	f, err := os.Open("/proc/self/" + file)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		if fs := strings.Fields(rest); len(fs) > 0 {
			n, _ := strconv.ParseInt(fs[0], 10, 64)
			return n
		}
	}
	return 0
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() float64 { return float64(procField("status", "VmHWM")) / 1024 }

// resetPeakRSS returns freed memory to the OS and restarts the
// high-water mark from what is resident now (Linux: "5" to
// /proc/self/clear_refs), so the mark read later belongs to the pass
// that follows and not to set-up. Where the kernel refuses, the mark
// keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// writtenBytes counts bytes this process has passed to write calls.
func writtenBytes() int64 { return procField("io", "wchar") }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// Env records where a result was measured.
type Env struct {
	Seed       int64  `json:"seed"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// envInfo describes this machine and checkout. Commit is "unknown"
// outside a git work tree.
func envInfo(seed int64) Env {
	e := Env{
		Seed: seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}
