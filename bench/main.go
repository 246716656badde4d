// Command bench is the repository's benchmark: it starts a
// platform.Server on a loopback listener inside this process, drives it
// over real sockets with two closed-loop clients and prints every metric
// with its unit, value and sample count. See README.md for the glossary.
//
// The driver's contract form runs one workload and prints one JSON
// object as the last line of standard output:
//
//	bench --workload crowd-mem --seed 7 --seconds 15 --trace 0
//
// Without -workload it runs the suite (every workload once); -smoke
// shrinks every workload to about 1% and -selfcheck runs the suite
// twice and compares the two against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	smoke     bool
	selfcheck bool
	out       string
}

// watchdogDeadline is how long one workload run may take before the
// process gives up on it: below the driver's 180 seconds.
const watchdogDeadline = 170 * time.Second

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run this one workload and end with the driver's JSON line (default: the whole suite)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the input generator")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the measured segments should last on the machine the sizes were calibrated on")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file, 0 = end-to-end metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload at about 1% size")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the untraced suite twice and compare the two against BENCHMARK.json's bounds")
	flag.StringVar(&o.out, "out", "", "also write the full report as JSON to this file")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		os.Exit(2)
	}
	os.Exit(run(o))
}

// home locates the benchmark's directory, where its data and span files
// go: the working directory when run from inside it, its "bench" child
// when run from the repository root.
func home() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// cleanup removes the run's data directory exactly once, from whichever
// exit path gets there first: normal return, failed run, watchdog or
// signal.
type cleanup struct {
	once sync.Once
	dir  string
}

func (c *cleanup) run() {
	c.once.Do(func() {
		if c.dir != "" {
			os.RemoveAll(c.dir)
			// The parent stays only while another run still uses it.
			os.Remove(filepath.Dir(c.dir))
		}
	})
}

func run(o options) int {
	root, err := dataRoot(home())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	clean := &cleanup{dir: root}
	defer clean.run()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "bench: interrupted")
		clean.run()
		os.Exit(1)
	}()

	env := readEnv(root)
	switch {
	case o.selfcheck:
		return selfcheck(o, env, root, clean)
	case o.workload == "":
		rep := suite(o, env, root, clean)
		return finishSuite(o, rep)
	}
	sp := findSpec(o.workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	scale := 1.0
	if o.smoke {
		scale = 0.01
	}
	rep := runGuarded(*sp, o, scale, env, root, clean)
	rep.print(os.Stderr)
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !rep.Correct {
		return 1
	}
	// The driver reads the last line of standard output.
	line, err := json.Marshal(rep.driverLine())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runGuarded runs one workload under the watchdog: when the deadline
// passes it prints whatever the run has reported so far, removes the
// data directory and exits non-zero.
func runGuarded(sp spec, o options, scale float64, env envInfo, root string, clean *cleanup) *report {
	rep := newReport(sp, o, env)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if o.trace {
			runTraced(rep, sp.sized(o.seconds, scale), o, root)
		} else {
			runUntraced(rep, sp.sized(o.seconds, scale), o, root)
		}
	}()
	watchdog := time.NewTimer(watchdogDeadline)
	defer watchdog.Stop()
	select {
	case <-done:
		return rep
	case <-watchdog.C:
		rep.mu.Lock()
		rep.Correct = false
		rep.Checks = append(rep.Checks, check{Name: "watchdog", Detail: fmt.Sprintf("run exceeded %v; partial report", watchdogDeadline)})
		rep.mu.Unlock()
		rep.print(os.Stderr)
		fmt.Fprintf(os.Stderr, "bench: %s: watchdog deadline %v passed\n", sp.name, watchdogDeadline)
		clean.run()
		os.Exit(1)
		return nil
	}
}

// envInfo records where the numbers were taken.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DataFS     string `json:"data_fs"`
	Clients    int    `json:"closed_loop_clients"`
}

func readEnv(dataDir string) envInfo {
	return envInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataFS:     fsType(dataDir),
		Clients:    nClients,
	}
}

// fsType names the filesystem holding dir, so a reader can tell an
// fsync on a disk from one on a tmpfs.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
