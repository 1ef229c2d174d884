package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"unsafe"
)

// manifest records what a run ran on and what it ran: enough to explain
// drift between two runs of identical code (a different box, another
// revision, host steal, or a slower CPU seen by the calibration loop).
type manifest struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	L2         string  `json:"l2"`
	L3         string  `json:"l3"`
	Revision   string  `json:"git_revision"`
	Dirty      string  `json:"git_dirty"`
	SourceHash string  `json:"source_sha256"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	CalibStart float64 `json:"calib_ns_per_iter_start"`
	CalibEnd   float64 `json:"calib_ns_per_iter_end"`
	CalibReps  float64 `json:"calib_ns_per_iter_reps"`
	StealShare float64 `json:"steal_share"`
	StealS     float64 `json:"steal_cpu_s"`
	WallS      float64 `json:"wall_s"`
}

// fingerprint fills the box fields.
func (m *manifest) fingerprint() {
	m.CPUModel = "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	m.NumCPU = runtime.NumCPU()
	m.GOMAXPROCS = runtime.GOMAXPROCS(0)
	m.GoVersion = runtime.Version()
	m.L2, m.L3 = "unknown", "unknown"
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		size := readTrim(filepath.Join(d, "size"))
		switch level {
		case "2":
			m.L2 = size
		case "3":
			m.L3 = size
		}
	}
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// revision fills the git fields when the working directory is the root of
// a git checkout, and always hashes the Go sources and module files under
// it, so an exported tree without .git is still identified.
func (m *manifest) revision() {
	m.Revision, m.Dirty = "none (not a git checkout)", "unknown"
	if st, err := os.Stat(".git"); err == nil && st.IsDir() {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			m.Revision = strings.TrimSpace(string(out))
		}
		if out, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			m.Dirty = "false"
			if len(strings.TrimSpace(string(out))) > 0 {
				m.Dirty = "true"
			}
		}
	}
	m.SourceHash = sourceHash(".")
}

// sourceHash hashes every .go, go.mod and REPRODUCTION.json file under
// root (skipping hidden and build directories) in path order.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "REPRODUCTION.json" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed integer-and-float loop over a 32 KiB array,
// written here with the standard library only, so no change to the code
// under test can move it. It returns the median CPU ns per iteration of
// passes passes of 2^20 iterations (about 3 ms each), read from the
// calling thread's CPU clock: like the workloads' CPU time, and unlike
// wall time, it does not count intervals in which the thread did not run.
// A drift in this number between runs is the box, not the code; dividing
// a CPU cost by it gives the cost in loop iterations, which a uniformly
// slower or faster box leaves unchanged.
func calibrate(passes int) float64 {
	const n = 4096
	const iters = 1 << 20
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf := make([]float64, n)
	samples := make([]float64, passes)
	for s := range samples {
		x := uint64(0x9e3779b97f4a7c15)
		start := threadCPU()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & (n - 1)
			buf[j] = buf[j]*0.5 + float64(x>>11)*0x1p-53
		}
		samples[s] = float64(threadCPU()-start) / iters
		calibSink += x
	}
	return median(samples)
}

// threadCPU returns the calling OS thread's CPU time in ns
// (CLOCK_THREAD_CPUTIME_ID); the caller must hold its thread locked.
func threadCPU() int64 {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return ts.Nano()
}
