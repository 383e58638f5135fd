// Command bench is the repository's benchmark: four workloads on a real
// overlay that lives in this process and talks over the host's loopback,
// end-to-end metrics measured untraced, and a per-layer ledger measured from
// outside the program (see README.md).
//
// The driver's contract is one workload per invocation:
//
//	bench -workload bulk_tcp -seed 1 -seconds 20 -trace 0
//
// whose last line of output is one JSON object. Without -workload every
// workload runs in a child process of its own (so CPU time and peak memory
// are per workload), untraced and traced, and -out collects the results for
// -compare.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"infoslicing/internal/gf"
)

// metricDef names a metric the benchmark reports. The two tables below are
// what BENCHMARK.json lists; bench_test.go holds them to it.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"peak_rss_mb", "MB"},
}

// metric is one reported value: within a run the median over the windows
// (or set-ups, or probe samples), with the quartiles and sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func single(v float64, unit string) metric { return metric{Value: v, Unit: unit, Q1: v, Q3: v, N: 1} }

func over(xs []float64, unit string) metric {
	q1, med, q3 := quantiles(xs)
	return metric{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// environment is recorded with every result: a number means nothing without
// the machine and build it came from.
type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GFKernel   string `json:"gf_kernel"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Windows   int               `json:"windows"`
	WindowSec float64           `json:"window_s"`
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Resent    int64             `json:"resent"` // transmissions after an operation's first
	Metrics   map[string]metric `json:"metrics"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out revision from .git by hand: the benchmark
// starts no process it does not need, and a checkout without .git (the
// driver's) is simply "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// prepare fixes GOMAXPROCS and refuses a machine the numbers would mean
// nothing on: fewer than two processors, or more Ps than processors.
func prepare() (environment, error) {
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	}
	env := environment{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), GFKernel: gf.KernelName(), Commit: commit(),
		Network: "host loopback, single process",
	}
	if env.NumCPU < 2 {
		return env, fmt.Errorf("refusing to measure on %d processor: load and overlay would time-share one core", env.NumCPU)
	}
	if env.GOMAXPROCS > env.NumCPU {
		return env, fmt.Errorf("refusing to measure with GOMAXPROCS %d on %d processors", env.GOMAXPROCS, env.NumCPU)
	}
	return env, nil
}

func main() {
	var o options
	workload := flag.String("workload", "", "workload to run in this process (default: each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same graphs and messages")
	seconds := flag.Float64("seconds", 20, "seconds measured per run, cut into -windows windows")
	window := flag.Duration("window", 0, "length of one window (overrides -seconds)")
	flag.IntVar(&o.windows, "windows", 5, "measurement windows per run; a metric is the median over them")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, last two fifths of the run traced")
	flag.StringVar(&o.spansOut, "spans", "", "write the traced window's spans to this file as JSON lines")
	out := flag.String("out", "", "write results to this file (for -compare)")
	runs := flag.Int("runs", 1, "without -workload: runs per workload, on seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	spec := flag.String("spec", "BENCHMARK.json", "where -compare reads the bounds")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			die(errors.New("usage: bench -compare a.json b.json"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *spec); err != nil {
			die(err)
		}
		return
	}
	if o.windows < 1 || *seconds <= 0 || *runs < 1 {
		die(errors.New("-windows, -seconds and -runs must be positive"))
	}
	o.traced = *trace != 0
	o.window = *window
	if o.window == 0 {
		o.window = time.Duration(*seconds / float64(o.windows) * float64(time.Second))
	}
	env, err := prepare()
	if err != nil {
		die(err)
	}
	if *workload == "" {
		if err := runAll(o, *runs, *out); err != nil {
			die(err)
		}
		return
	}
	wl := findWorkload(*workload)
	if wl == nil {
		die(fmt.Errorf("unknown workload %q", *workload))
	}
	res, err := runWorkload(wl, o)
	if err != nil {
		die(err)
	}
	res.Env = env
	report(os.Stdout, res)
	if *out != "" {
		if err := writeResults(*out, []result{res}); err != nil {
			die(err)
		}
	}
	// The contract's last line: exactly these keys, every metric of the
	// run's kind, value and unit only.
	final := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]map[string]any)}
	for name, m := range res.Metrics {
		final.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, err := json.Marshal(final)
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// report prints every metric by name with its unit, then the whole result
// as one line a parent process (or a person with jq) can pick out.
func report(w *os.File, res result) {
	fmt.Fprintf(w, "workload %s seed %d traced %v: %d windows of %.2fs\n", res.Workload, res.Seed, res.Traced, res.Windows, res.WindowSec)
	fmt.Fprintf(w, "env %s; NumCPU %d GOMAXPROCS %d; %s; gf %s; commit %s; %s\n",
		res.Env.CPU, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.Go, res.Env.GFKernel, res.Env.Commit, res.Env.Network)
	fmt.Fprintf(w, "operations attempted %d failed %d (sent again %d) correct %v\n", res.Attempted, res.Failed, res.Resent, res.Correct)
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.name]
		fmt.Fprintf(w, "%-32s %14.4f %-6s (q1 %.4f q3 %.4f n %d)\n", d.name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
	line, _ := json.Marshal(res) // a struct of numbers and strings cannot fail to marshal
	fmt.Fprintf(w, "%s%s\n", resultPrefix, line)
}

const resultPrefix = "result "

type resultFile struct {
	Runs []result `json:"runs"`
}

func writeResults(path string, runs []result) error {
	b, err := json.MarshalIndent(resultFile{Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
