// Command perfbench is the repository's benchmark. It runs one of three
// batch workloads (fig3-sweep, coop-churn, table2-pipeline) through the
// program's public entry points, checks the outputs, and prints the
// metrics as one JSON object on the last line of standard output.
//
// With --trace 0 it repeats untraced passes for --seconds and reports
// end-to-end medians; each pass's set-up time is sampled in a child
// process of its own. With --trace 1 it runs one untraced pass like
// those, one untraced and one traced pass at one worker, and reports
// per-layer metrics. Every pass runs in a fresh child process, so each
// has its own peak RSS and runtime counters. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minPasses is the fewest untraced passes a --trace 0 run makes,
	// however short --seconds is, so its medians have three samples.
	minPasses = 3
	// setupSamples is how many timed setup samples one pass takes.
	setupSamples = 21
	// runBudget bounds a whole run, so it ends before a caller's 180 s
	// limit even when passes are slower than expected.
	runBudget = 170 * time.Second
)

// endToEnd are the --trace 0 metrics, with a bound, in the result:
// name and unit.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"ok_op_pct", "%"},
}

// reported are the --trace 0 metrics printed in the summary only. The
// host this benchmark was built on drifts by more than the largest
// bound a result metric may carry, so wall and CPU time are reported
// without one (see README.md); a traced run also records them.
var reported = [][2]string{
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"failed_op_pct", "%"},
}

// perLayer are the --trace 1 metrics: name and unit. A metric a
// workload does not exercise reads 0.
var perLayer = func() [][2]string {
	var m [][2]string
	for _, mod := range modules {
		m = append(m, [2]string{mod + ".cpu_pct", "%"})
	}
	return append(m, [][2]string{
		{"runtime.gc_alloc_cpu_pct", "%"},
		{"runtime.other_cpu_pct", "%"},
		{"des.events", "count"},
		{"des.ns_per_event", "ns"},
		{"producer.batches", "count"},
		{"producer.retry_pct", "%"},
		{"transport.segments", "count"},
		{"transport.retransmit_pct", "%"},
		{"netem.lost", "count"},
		{"testbed.op_ms_p50", "ms"},
		{"testbed.op_ms_p95", "ms"},
		{"broker.appends", "count"},
		{"broker.dup_append_pct", "%"},
		{"cluster.replications", "count"},
		{"consumer.delivered", "count"},
		{"consumer.redelivered_pct", "%"},
		{"consumer.paused_s", "s"},
		{"coordinator.rebalances", "count"},
		{"coordinator.followups", "count"},
		{"chaos.trial_ms_p50", "ms"},
		{"chaos.trial_ms_p95", "ms"},
		{"table2.train_s", "s"},
		{"table2.schedule_s", "s"},
		{"table2.eval_s", "s"},
		{"dynconf.reconfigs", "count"},
		{"exprun.busy_pct", "%"},
		{"runtime.sched_wait_ms_p95", "ms"},
		{"runtime.gc_cycles", "count"},
		{"runtime.alloc_objects", "count"},
		{"runtime.gc_cpu_pct", "%"},
		{"trace.overhead_pct", "%"},
		{"untraced.run_s", "s"},
		{"untraced.cpu_s", "s"},
	}...)
}()

// pass is one child process's measurement of one workload pass.
type pass struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Workers   int                `json:"workers"`
	Traced    bool               `json:"traced"`
	SetupS    float64            `json:"setup_s,omitempty"` // --trace 0 passes only
	RunS      float64            `json:"run_s"`
	CPUS      float64            `json:"cpu_s"`
	AllocMB   float64            `json:"alloc_mb"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Digest    string             `json:"digest"`
	Runtime   runtimeCounters    `json:"runtime"`
	Layers    map[string]float64 `json:"layers,omitempty"` // traced pass only
}

// result is the object printed last; its keys are fixed by the
// benchmark's callers.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	extra     map[string]metric // summary only: the reported metrics
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadOrder, ", ")+", or all")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 10, "how long a --trace 0 run repeats passes")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics from untraced passes; 1: per-layer metrics from a traced pass")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for result, span and profile files")
		child   = flag.String("pass", "", "run a single pass in this process (setup, untraced or traced) and print it as JSON")
		workers = flag.Int("workers", 0, "worker count of a --pass (0: GOMAXPROCS)")
	)
	flag.Parse()
	if _, ok := workloads[*name]; !ok && *name != "all" {
		fatalf("unknown --workload %q (want %s or all)", *name, strings.Join(workloadOrder, ", "))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	if *child != "" {
		p, err := runPass(*name, *seed, *workers, *child, *out)
		if err != nil {
			fatalf("%v", err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(p); err != nil {
			fatalf("%v", err)
		}
		return
	}

	names := []string{*name}
	if *name == "all" {
		names = workloadOrder
	}
	h := fingerprint()
	hj, _ := json.Marshal(h) // a struct of strings and ints always marshals
	fmt.Printf("host %s\n", hj)
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		var (
			res    result
			passes []pass
			err    error
		)
		ctx, cancel := context.WithTimeout(context.Background(), runBudget)
		if *trace == 0 {
			res, passes, err = endToEndRun(ctx, n, *seed, time.Duration(*seconds)*time.Second, *out)
		} else {
			res, passes, err = perLayerRun(ctx, n, *seed, *out)
		}
		cancel()
		if err != nil {
			fatalf("%s: %v", n, err)
		}
		report(n, *seed, h, res, passes, *trace, *out)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(names) > 1 {
				k = n + "/" + k
			}
			total.Metrics[k] = v
		}
	}
	line, _ := json.Marshal(total) // finite floats only; see finite()
	fmt.Printf("%s\n", line)
	if !total.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// endToEndRun repeats untraced passes for the run length and reports
// each end-to-end metric as the median over passes.
func endToEndRun(ctx context.Context, name string, seed uint64, length time.Duration, out string) (result, []pass, error) {
	start := time.Now()
	var passes []pass
	for {
		t0 := time.Now()
		s, err := spawn(ctx, name, seed, 0, "setup", out)
		if err != nil {
			return result{}, passes, err
		}
		p, err := spawn(ctx, name, seed, workloads[name].workers, "untraced", out)
		if err != nil {
			return result{}, passes, err
		}
		p.SetupS = s.SetupS
		passes = append(passes, p)
		// Start another pass only if it should end within the run length
		// (and always reach minPasses within the budget).
		next := time.Since(start) + time.Since(t0)
		if next > runBudget-10*time.Second || len(passes) >= minPasses && next > length {
			break
		}
	}
	res := tally(passes)
	col := func(f func(p pass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	values := map[string]float64{
		"setup_s":       col(func(p pass) float64 { return p.SetupS }),
		"run_s":         col(func(p pass) float64 { return p.RunS }),
		"cpu_s":         col(func(p pass) float64 { return p.CPUS }),
		"alloc_mb":      col(func(p pass) float64 { return p.AllocMB }),
		"peak_rss_mb":   col(func(p pass) float64 { return p.PeakRSSMB }),
		"ok_op_pct":     100 * float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"failed_op_pct": 100 * float64(res.Failed) / float64(res.Attempted),
	}
	res.Metrics, res.extra = map[string]metric{}, map[string]metric{}
	for _, m := range endToEnd {
		res.Metrics[m[0]] = metric{values[m[0]], m[1]}
	}
	for _, m := range reported {
		res.extra[m[0]] = metric{values[m[0]], m[1]}
	}
	return res, passes, nil
}

// perLayerRun makes the three passes of a traced run: untraced at the
// end-to-end worker count, untraced at one worker (the overhead
// baseline) and traced at one worker.
func perLayerRun(ctx context.Context, name string, seed uint64, out string) (result, []pass, error) {
	var passes []pass
	for _, c := range []struct {
		workers int
		kind    string
	}{{workloads[name].workers, "untraced"}, {1, "untraced"}, {1, "traced"}} {
		p, err := spawn(ctx, name, seed, c.workers, c.kind, out)
		if err != nil {
			return result{}, passes, err
		}
		passes = append(passes, p)
	}
	full, base, tr := passes[0], passes[1], passes[2]
	res := tally(passes)
	res.Metrics = map[string]metric{}
	for _, m := range perLayer {
		res.Metrics[m[0]] = metric{finite(tr.Layers[m[0]]), m[1]}
	}
	set := func(name string, v float64) {
		res.Metrics[name] = metric{finite(v), res.Metrics[name].Unit}
	}
	if ev := tr.Layers["des.events"]; ev > 0 {
		set("des.ns_per_event", tr.Layers["des.cpu_pct"]/100*tr.CPUS*1e9/ev)
	}
	set("exprun.busy_pct", 100*full.CPUS/(full.RunS*float64(full.Workers)))
	set("runtime.sched_wait_ms_p95", full.Runtime.SchedWaitP95Ms)
	set("runtime.gc_cycles", float64(full.Runtime.GCCycles))
	set("runtime.alloc_objects", float64(full.Runtime.AllocObjects))
	set("runtime.gc_cpu_pct", 100*full.Runtime.GCCPUS/full.CPUS)
	set("trace.overhead_pct", 100*(tr.CPUS/base.CPUS-1))
	set("untraced.run_s", full.RunS)
	set("untraced.cpu_s", full.CPUS)
	return res, passes, nil
}

// tally sums attempted and failed ops over passes. Every pass of a run
// has the same inputs, so a pass whose output digest differs from the
// first pass's fails all its ops.
func tally(passes []pass) result {
	var res result
	for _, p := range passes {
		res.Attempted += p.Attempted
		failed := p.Failed
		if p.Digest != passes[0].Digest {
			failed = p.Attempted
		}
		res.Failed += failed
	}
	res.Correct = res.Failed == 0
	return res
}

// spawn runs one pass in a fresh child process and decodes its result.
func spawn(ctx context.Context, name string, seed uint64, workers int, kind string, out string) (pass, error) {
	exe, err := os.Executable()
	if err != nil {
		return pass{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "--pass", kind, "--workload", name,
		"--seed", strconv.FormatUint(seed, 10), "--workers", strconv.Itoa(workers), "--out", out)
	cmd.Stderr = os.Stderr
	// The pass dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.Output()
	if err != nil {
		return pass{}, fmt.Errorf("%s pass (workers %d): %w", kind, workers, err)
	}
	var p pass
	if err := json.Unmarshal(stdout, &p); err != nil {
		return pass{}, fmt.Errorf("%s pass (workers %d): decoding its result: %w", kind, workers, err)
	}
	return p, nil
}

// runPass is the child side. A "setup" pass only times the workload's
// input constructors; it runs in a process of its own so that their
// transient heap does not set the peak RSS of the pass that runs the
// workload. An "untraced" or "traced" pass prepares the inputs once,
// untimed, then runs the workload and measures it.
func runPass(name string, seed uint64, workers int, kind, out string) (pass, error) {
	spec, ok := workloads[name]
	if !ok {
		return pass{}, fmt.Errorf("--pass needs a single workload, not %q", name)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := spec.make()
	switch kind {
	case "setup":
		// One untimed sample first, so the timed ones do not pay for the
		// fresh process's heap growth and cold caches.
		setup := make([]float64, setupSamples)
		for i := -1; i < len(setup); i++ {
			t0 := time.Now()
			for r := 0; r < spec.setupReps; r++ {
				if err := w.prepare(seed); err != nil {
					return pass{}, err
				}
			}
			if i >= 0 {
				setup[i] = time.Since(t0).Seconds() / float64(spec.setupReps)
			}
		}
		return pass{Workload: name, Seed: seed, SetupS: median(setup)}, nil
	case "untraced", "traced":
		if err := w.prepare(seed); err != nil {
			return pass{}, err
		}
	default:
		return pass{}, fmt.Errorf("unknown --pass %q (want setup, untraced or traced)", kind)
	}

	traced := kind == "traced"
	var (
		ctx  = context.Background()
		tr   *tracer
		prof bytes.Buffer
		o    outcome
	)
	if traced {
		tr = newTracer(name)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return pass{}, err
		}
	}
	u0 := readUsage()
	if traced {
		o = w.traced(ctx, tr)
	} else {
		o = w.run(ctx, workers)
	}
	u1 := readUsage()
	p := pass{
		Workload:  name,
		Seed:      seed,
		Workers:   workers,
		Traced:    traced,
		RunS:      u1.wall.Sub(u0.wall).Seconds(),
		CPUS:      (u1.cpu - u0.cpu).Seconds(),
		AllocMB:   float64(u1.allocB-u0.allocB) / (1 << 20),
		PeakRSSMB: float64(u1.maxRSS) / 1024,
		Attempted: o.attempted,
		Failed:    o.failed,
		Problems:  o.problems,
		Digest:    o.digest,
		Runtime:   countersBetween(u0, u1),
	}
	if traced {
		p.Workers = 1
		pprof.StopCPUProfile()
		layers, err := traceLayers(name, seed, tr.finish(), prof.Bytes(), out)
		if err != nil {
			return pass{}, err
		}
		for k, v := range o.counts {
			layers[k] = v
		}
		p.Layers = layers
	}
	for _, s := range p.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, s)
	}
	return p, nil
}

// traceLayers writes a traced pass's spans and CPU profile under out
// and derives the span and CPU-share metrics from them.
func traceLayers(name string, seed uint64, spans []span, profile []byte, out string) (map[string]float64, error) {
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d", name, seed))
	sj, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".spans.json", sj, 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return nil, err
	}
	stacks, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	layers := map[string]float64{}
	for b, share := range attribute(stacks) {
		if strings.HasPrefix(b, "runtime.") {
			layers[b+"_cpu_pct"] = share // runtime.gc_alloc_cpu_pct, runtime.other_cpu_pct
		} else {
			layers[b+".cpu_pct"] = share
		}
	}
	sec := func(ms []float64) float64 {
		var s float64
		for _, x := range ms {
			s += x
		}
		return s / 1e3
	}
	switch name {
	case "fig3-sweep":
		ops := durationsMs(spans, "op")
		layers["testbed.op_ms_p50"] = quantile(ops, 0.5)
		layers["testbed.op_ms_p95"] = quantile(ops, 0.95)
	case "coop-churn":
		trials := durationsMs(spans, "trial")
		layers["chaos.trial_ms_p50"] = quantile(trials, 0.5)
		layers["chaos.trial_ms_p95"] = quantile(trials, 0.95)
	case "table2-pipeline":
		layers["table2.train_s"] = sec(durationsMs(spans, "train"))
		layers["table2.schedule_s"] = sec(durationsMs(spans, "schedule"))
		layers["table2.eval_s"] = sec(durationsMs(spans, "eval"))
	}
	return layers, nil
}

// report prints the human-readable summary and writes the full record
// (host, every pass, metrics) to a JSON file under out.
func report(name string, seed uint64, h host, res result, passes []pass, trace int, out string) {
	ops := 0
	if len(passes) > 0 {
		ops = passes[0].Attempted
	}
	fmt.Printf("%s seed=%d trace=%d passes=%d ops/pass=%d failed=%d\n", name, seed, trace, len(passes), ops, res.Failed)
	for i, p := range passes {
		kind := "untraced"
		if p.Traced {
			kind = "traced"
		}
		fmt.Printf("  pass %d: %s workers=%d run_s=%.3f cpu_s=%.3f peak_rss_mb=%.1f sha256=%s\n",
			i+1, kind, p.Workers, p.RunS, p.CPUS, p.PeakRSSMB, p.Digest)
	}
	for _, ms := range []map[string]metric{res.Metrics, res.extra} {
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
		}
	}
	rec, err := json.MarshalIndent(struct {
		Host    host   `json:"host"`
		Trace   int    `json:"trace"`
		Passes  []pass `json:"passes"`
		Result  result `json:"result"`
		Written string `json:"written"`
	}{h, trace, passes, res, time.Now().UTC().Format(time.RFC3339)}, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), rec, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing the result record: %v\n", err)
	}
}

// finite maps a NaN or infinite value (a ratio over an empty base) to 0
// so the result stays valid JSON.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
