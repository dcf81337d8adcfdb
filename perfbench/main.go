// Command perfbench is the repository benchmark. It drives the flock
// library only through its public packages: the core runtime, the
// leaftree and hashtable structures, the sharded kv store (and through
// it the shard-group engine and snapshots) and the transactional store.
// Each run builds one workload in both lock modes (lock-free, then
// blocking), runs a closed loop of two client goroutines per mode for
// the measured time, checks every result, and prints the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it with perfbench/run.sh from the repository root; see
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	w       *workload
	seed    uint64
	seconds float64
}

// deadline bounds a whole run; a run still going after it is a hang.
const deadline = 170 * time.Second

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run, over both lock modes")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.Parse()
	var w *workload
	var names []string
	for _, c := range workloads {
		names = append(names, c.name)
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%v} --seed N --seconds S --trace {0|1}\n", names)
		os.Exit(2)
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	time.AfterFunc(deadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.name, deadline)
		os.Exit(3)
	})
	cfg := config{w: w, seed: *seed, seconds: *seconds}
	var res *result
	if *traced == 1 {
		res = runTraced(cfg)
	} else {
		res = runEndToEnd(cfg)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("%s: attempted %d ops, failed %d\n", w.name, res.Attempted, res.Failed)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// modes lists the arms in run order.
var modes = []struct {
	name     string
	blocking bool
}{{"lf", false}, {"bl", true}}

const (
	setupReps = 3
	warmup    = 0.25 // seconds of unmeasured load before each arm's window
)

// setupArm builds and prefills an arm setupReps times and returns the
// last build with the median build time in seconds.
func setupArm(im impl, blocking bool, reps int) (arm, float64) {
	var a arm
	times := make([]float64, reps)
	for i := range times {
		a = nil // let the GC take the previous build before timing the next
		runtime.GC()
		t0 := now()
		a = im.setup(blocking)
		times[i] = float64(now()-t0) / 1e9
	}
	sort.Float64s(times)
	return a, times[len(times)/2]
}

func closeAll(cs []client) {
	for _, c := range cs {
		c.close()
	}
}

// subWindows is how many windows each arm's measured time is cut into;
// every end-to-end figure of an arm is the median over its windows, so
// a passing disturbance of the machine (another tenant's burst, a
// garbage-collection storm) moves at most a minority of them.
const subWindows = 5

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	return s[len(s)/2]
}

func runEndToEnd(cfg config) *result {
	im := cfg.w.build(cfg.seed)
	res := &result{Metrics: map[string]metric{}}
	total := newRecorder(0, false)
	setup := 0.0
	for _, m := range modes {
		a, s := setupArm(im, m.blocking, setupReps)
		setup += s
		cs := a.clients()
		total.count(runWindow(cs, warmup, false, false).rec)
		share := cfg.w.lfShare
		if m.blocking {
			share = 1 - share
		}
		var mops, p50s, p99s, allocs []float64
		for range subWindows {
			runtime.GC()
			w := runWindow(cs, cfg.seconds*share/subWindows, true, false)
			total.count(w.rec)
			printWindow(cfg.w.name+" "+m.name, w)
			mops = append(mops, w.mops())
			p50s = append(p50s, w.rec.lat.quantile(0.50)/1e3)
			p99s = append(p99s, w.rec.lat.quantile(0.99)/1e3)
			allocs = append(allocs, float64(w.mallocs)/float64(w.rec.ops))
		}
		closeAll(cs)
		vrec := newRecorder(0, false)
		a.verify(vrec)
		total.count(vrec)
		res.Metrics[m.name+"_mops"] = metric{median(mops), "Mop/s"}
		res.Metrics[m.name+"_p50_us"] = metric{median(p50s), "us"}
		res.Metrics[m.name+"_p99_us"] = metric{median(p99s), "us"}
		res.Metrics[m.name+"_allocs_per_op"] = metric{median(allocs), "allocs/op"}
		if !m.blocking {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			res.Metrics["heap_mb"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MiB"}
		}
		runtime.KeepAlive(a)
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	finish(res, total)
	return res
}

// printWindow prints a window's totals and each issued kind's count,
// median and 99th percentile.
func printWindow(label string, w *window) {
	fmt.Printf("%s: %d ops in %.3fs (%.4f Mop/s), attempted %d, failed %d\n", label, w.rec.ops, w.elapsed, w.mops(), w.rec.attempted, w.rec.failed)
	for k, h := range w.rec.kinds {
		if h.n > 0 {
			fmt.Printf("    %-18s n=%-9d p50=%.2fus p99=%.2fus\n", kindNames[k], h.n, h.quantile(0.5)/1e3, h.quantile(0.99)/1e3)
		}
	}
}

// finish fills the result's counts from the merged recorder and prints
// the first violations.
func finish(res *result, total *recorder) {
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0
	for _, e := range total.errs {
		fmt.Fprintln(os.Stderr, "violation:", e)
	}
}
