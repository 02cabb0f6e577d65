package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sink keeps the reference kernels' results alive.
var sink uint64

// hostInfo says where and on what a run's numbers were taken.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Requests   int    `json:"requests"`
}

func hostBlock(seed int64, requests int) hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown", // the driver's checkout is not a git repository
		Seed:       seed,
		Requests:   requests,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitCommit = s.Value
			}
		}
	}
	return h
}

// refKernel times a fixed integer loop, in microseconds. It moves with the
// processor's clock and with nothing else. On this host it stays within a
// few percent while the program's times drift by tens of percent, which is
// how we know the drift is not the clock (bench/README.md, "Host normalisation").
func refKernel() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
	return float64(time.Since(t).Nanoseconds()) / 1e3
}

// hostProbe measures how fast the host is right now at what the program
// under test spends its time on: Go code that allocates and collects all the
// time. On this host that speed changes by 20-35 % over minutes, and within
// milliseconds between two levels, while a pure integer loop stays within a
// few percent: something shares the core's caches with this machine
// (bench/README.md, "Host normalisation"). Every time the end-to-end run
// reports is multiplied by speedFactor of the samples taken around it.
//
// The kernel (refAlloc) runs in a child process, the benchmark's own binary
// started with probeArg, and only while the parent waits for it. It has its
// own heap, so how often its collector runs depends on the kernel alone; it
// warms up before it times anything, so what the program left in the caches
// does not count; and it is woken at fixed intervals of measured work. The
// program under test and the kernel therefore share the host and nothing
// else: a change to the program's allocation rate, live heap or cache
// footprint does not move the factor (repeat.sh prints the kernel's level
// per workload to show it).
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

const (
	// probeArg as the first argument makes the binary the probe's child.
	probeArg = "-probe"
	// allocDocs is the kernel's fixed work: documents encoded and decoded
	// per round.
	allocDocs = 1000
	// nominalAllocUS is one round's time on this host when it is quiet. It
	// only fixes the scale: a normalised time reads as microseconds on the
	// quiet host.
	nominalAllocUS = 3400.0
	// A sample times the kernel for probeShare of the work it follows, at
	// least minRounds. The kernel's time flips between two levels, so a run
	// needs a few hundred rounds for a steady mean: a tenth of the window
	// is 500 and more.
	probeShare = 0.1
	minRounds  = 10
	// warmRounds are run before the timed ones and not timed. The child has
	// slept since the last sample: its first rounds run 10-40 % slow, the
	// longer it slept the more. Were they timed, the factor would depend on
	// how often a workload samples.
	warmRounds = 5
	// probeEvery is the measured work after which the window samples the
	// host, so that every workload, whatever one pass takes, wakes the
	// child at the same intervals.
	probeEvery = time.Second
)

func startProbe() (*hostProbe, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	cmd := exec.Command(exe, probeArg)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("host probe: %w", err)
	}
	return &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// stop ends the child, which exits when its standard input closes, and
// waits for it.
func (p *hostProbe) stop() error {
	if err := p.in.Close(); err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	if err := p.cmd.Wait(); err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	return nil
}

// sample has the child time the kernel for about probeShare of the work
// that just ended and appends each round's microseconds to dst.
func (p *hostProbe) sample(dst []float64, work time.Duration) ([]float64, error) {
	rounds := max(minRounds, int(probeShare*float64(work.Microseconds())/nominalAllocUS))
	if _, err := fmt.Fprintln(p.in, rounds); err != nil {
		return dst, fmt.Errorf("host probe: %w", err)
	}
	for i := 0; i < rounds; i++ {
		var us float64
		if _, err := fmt.Fscan(p.out, &us); err != nil {
			return dst, fmt.Errorf("host probe: %w", err)
		}
		dst = append(dst, us)
	}
	return dst, nil
}

// probeMain is the child: for every number n read from standard input it
// runs the kernel warmRounds times untimed, then n times timed, and prints
// the n times. It returns when standard input ends.
func probeMain() {
	out := bufio.NewWriter(os.Stdout)
	for {
		var rounds int
		if _, err := fmt.Fscan(os.Stdin, &rounds); err != nil {
			return
		}
		for i := 0; i < warmRounds; i++ {
			refAlloc()
		}
		for i := 0; i < rounds; i++ {
			fmt.Fprintln(out, refAlloc())
		}
		if out.Flush() != nil {
			return // the parent is gone
		}
	}
}

// refAlloc times a fixed loop of standard-library JSON encoding and
// decoding, in microseconds: like the program under test, it parses,
// builds maps and slices, and allocates all the time. It uses nothing from
// this repository.
func refAlloc() float64 {
	type doc struct {
		A map[string]int
		B []string
		C float64
	}
	t := time.Now()
	for i := 0; i < allocDocs; i++ {
		d := doc{A: map[string]int{"x": i, "y": 2, "zz": 3}, B: []string{"alpha", "beta", strconv.Itoa(i)}, C: 1.5}
		b, err := json.Marshal(d)
		var back doc
		if err == nil && json.Unmarshal(b, &back) == nil {
			sink += uint64(len(back.B))
		}
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3
}

// speedFactor is the quiet host's speed over the host's speed while the
// samples were taken.
func speedFactor(allocUS []float64) float64 { return nominalAllocUS / trimmedMean(allocUS) }

// trimmedMean is the mean without the lowest and the highest tenth. The
// kernel's times have two modes, and the host's state is how much of the
// time it spends in the slow one: a mean follows that share smoothly where
// a median jumps from one mode to the other. Trimming drops the rounds
// during which the process was descheduled.
func trimmedMean(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
