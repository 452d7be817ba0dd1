package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/dynconf"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/perfmodel"
	"kafkarel/internal/producer"
	"kafkarel/internal/sweep"
	"kafkarel/internal/testbed"
	"kafkarel/internal/workload"
)

// Input sizes. Each is chosen so one untraced pass at two workers takes
// several seconds on a 2-core host: long enough that per-op variation
// across seeds averages out, short enough for several passes per run.
const (
	fig3Messages  = 3000 // messages per grid point (cmd/collect -n)
	coopTrials    = 200  // paired cooperative + eager trials
	table2Message = 6000 // evaluation messages per stream (cmd/repro -n)
)

// fig3SeedStride is sweep's per-grid-point seed stride; the traced pass
// derives the same seeds so its dataset must equal the sweep's.
const fig3SeedStride = 7919

// outcome is what one pass of a workload produced, already checked.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	digest    string
	counts    map[string]float64 // per-layer counts (traced pass only)
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) errored(err error) {
	o.failed = o.attempted
	o.problems = append(o.problems, err.Error())
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func unitInterval(x float64) bool { return x >= 0 && x <= 1 && !math.IsNaN(x) }

// job is one benchmark workload. prepare builds the inputs its entry
// point receives (what setup_s times); run calls the entry point
// untraced; traced repeats the pass at one worker under spans and
// collects the per-layer counts. Both must yield the same digest.
type job interface {
	prepare(seed uint64) error
	run(ctx context.Context, workers int) outcome
	traced(ctx context.Context, tr *tracer) outcome
}

// workloads maps each name to its job and run settings. setupReps is
// how many times one setup sample repeats prepare, so a sample lasts
// about 10 ms: long enough for clock and scheduler noise to stay small
// next to it, and to span several GC cycles of the allocations prepare
// makes. workers is the pool size of the untraced passes: 0 is
// GOMAXPROCS, the CLIs' -parallel 0 default.
//
// table2-pipeline runs at one worker because dynconf.TableIIContext is
// not deterministic at more: its default and dynamic evaluation runs
// execute concurrently and share the trace's loss and delay samplers,
// which draw from one math/rand generator, so R_l and R_d change from
// run to run (see README.md). At one worker its output is reproducible
// and the ANN, schedule and evaluation stages are still measured.
var workloads = map[string]struct {
	make      func() job
	setupReps int
	workers   int
}{
	"fig3-sweep":      {func() job { return new(fig3) }, 200, 0},
	"coop-churn":      {func() job { return new(coop) }, 25, 0},
	"table2-pipeline": {func() job { return new(table2) }, 130, 1},
}

var workloadOrder = []string{"fig3-sweep", "coop-churn", "table2-pipeline"}

// fig3 is the paper's Fig. 3 training-data sweep over the normal and
// abnormal grids: the producer write path, no consumer group, no ANN.
type fig3 struct {
	seed  uint64
	grid  []features.Vector
	seeds []uint64
}

func (w *fig3) prepare(seed uint64) error {
	w.seed = seed
	w.grid = append(sweep.NormalGrid(), sweep.AbnormalGrid()...)
	seedAt := exprun.LinearSeeds(seed, fig3SeedStride)
	w.seeds = make([]uint64, len(w.grid))
	for i := range w.seeds {
		w.seeds[i] = seedAt(i)
	}
	return nil
}

func (w *fig3) run(ctx context.Context, workers int) outcome {
	ds, err := sweep.CollectContext(ctx, w.grid, sweep.Options{
		Messages: fig3Messages, Seed: w.seed, Workers: workers})
	return w.check(ds, err)
}

func (w *fig3) traced(ctx context.Context, tr *tracer) outcome {
	var (
		ds     = make(features.Dataset, 0, len(w.grid))
		m      testbed.MetricsSnapshot
		starts = make([]time.Time, len(w.grid))
	)
	err := exprun.MapOrdered(ctx, w.grid,
		func(ctx context.Context, i int, v features.Vector) (testbed.Result, error) {
			return testbed.RunCtx(ctx, testbed.Experiment{Features: v, Messages: fig3Messages, Seed: w.seeds[i]})
		},
		func(i int, r testbed.Result) error {
			ds = append(ds, features.Sample{X: w.grid[i], Pl: r.Pl, Pd: r.Pd})
			m.Merge(r.Metrics)
			return nil
		},
		exprun.Options{Workers: 1, Hooks: exprun.Hooks{
			OnStart: func(i int) { starts[i] = time.Now() },
			OnDone:  func(i int, _ exprun.Timing) { tr.add(rootSpan, "op", starts[i], time.Now()) },
		}})
	o := w.check(ds, err)
	o.counts = map[string]float64{
		"des.events":               float64(m.SimEvents),
		"producer.batches":         float64(m.BatchesSent),
		"producer.retry_pct":       pct(m.BatchRetries, m.BatchesSent),
		"transport.segments":       float64(m.SegmentsSent),
		"transport.retransmit_pct": pct(m.Retransmits, m.SegmentsSent),
		"netem.lost":               float64(m.PacketsLostRandom + m.PacketsLostOverflow),
		"broker.appends":           float64(m.BrokerAppends),
		"broker.dup_append_pct":    pct(m.BrokerDupAppends, m.BrokerAppends),
		"cluster.replications":     float64(m.Replications),
	}
	return o
}

func (w *fig3) check(ds features.Dataset, err error) outcome {
	o := outcome{attempted: len(w.grid)}
	if err != nil {
		o.errored(err)
		return o
	}
	if len(ds) != len(w.grid) {
		o.fail("dataset has %d samples for %d grid points", len(ds), len(w.grid))
	}
	for i := range ds {
		if i < len(w.grid) && ds[i].X != w.grid[i] {
			o.fail("sample %d is not grid point %d", i, i)
		} else if !unitInterval(ds[i].Pl) || !unitInterval(ds[i].Pd) {
			o.fail("sample %d: P_l=%v P_d=%v outside [0,1]", i, ds[i].Pl, ds[i].Pd)
		}
	}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		o.errored(err)
	}
	o.digest = digest(buf.Bytes())
	return o
}

// Coop-churn trial settings, those of campaign.Run's coop mode: two
// groups of six members on a three-broker cluster with offsets
// replicated three times, 300 messages, faults inside a 2 s horizon.
const (
	coopGroups    = 2
	coopMembers   = 6
	coopMessages  = 300
	coopMaxFaults = 5
	coopHorizon   = 2 * time.Second
)

// coop is a cooperative-rebalancing churn run: every trial runs a
// two-group consumer fan-out cooperatively and again eagerly (the
// control) under the same churn plan, and checks both with the chaos
// package's end-to-end and cooperative invariants, as campaign.Run's
// coop mode does. Almost no producer work; the consumer, coordinator
// and broker read/commit paths do it.
//
// The plans are chaos.GenerateCoopPlan's with its broker crashes taken
// out: consumer crashes and broker slowdowns stay. A few trials with
// broker crashes break "committed offsets regressed despite offsets
// replication 3", in the cooperative run and in the eager control
// alike, so most 200-trial campaigns contain one (see README.md). That
// is a program defect, and a workload must be one on which no op fails.
type coop struct {
	plans []chaos.Plan
	seeds []uint64 // per trial: plan seed, workload seed
}

func (w *coop) prepare(seed uint64) error {
	seedAt := exprun.MixedSeeds(seed)
	w.seeds = make([]uint64, 2*coopTrials)
	for i := range w.seeds {
		w.seeds[i] = seedAt(i)
	}
	w.plans = make([]chaos.Plan, coopTrials)
	for i := range w.plans {
		plan := chaos.GenerateCoopPlan(w.seeds[2*i], chaos.CoopGenConfig{
			Brokers: 3, Groups: coopGroups, MembersPerGroup: coopMembers,
			Horizon: coopHorizon, MaxFaults: coopMaxFaults,
		})
		for _, f := range plan.Faults {
			if f.Kind != chaos.BrokerCrash {
				w.plans[i].Faults = append(w.plans[i].Faults, f)
			}
		}
	}
	return nil
}

// coopRow is one trial's outcome; the rows of a pass, as JSON, are its
// digest.
type coopRow struct {
	PlanSeed         uint64   `json:"plan_seed"`
	WorkloadSeed     uint64   `json:"workload_seed"`
	Faults           []string `json:"faults"`
	Acquired         uint64   `json:"acquired"`
	Delivered        uint64   `json:"delivered"`
	Lost             uint64   `json:"lost"`
	Duplicated       uint64   `json:"duplicated"`
	Pl               float64  `json:"pl"`
	Pd               float64  `json:"pd"`
	Consumed         int64    `json:"consumed"`
	Redelivered      uint64   `json:"redelivered"`
	PausedNs         uint64   `json:"paused_ns"`
	Rebalances       uint64   `json:"rebalances"`
	CoopFollowUps    uint64   `json:"coop_followups"`
	EagerRedelivered uint64   `json:"eager_redelivered"`
	EagerPausedNs    uint64   `json:"eager_paused_ns"`
	Groups           int      `json:"groups"`
	Violations       []string `json:"violations,omitempty"`
}

// trial runs trial i cooperatively and eagerly and verifies both runs.
func (w *coop) trial(ctx context.Context, i int) (coopRow, error) {
	plan := w.plans[i]
	run := func(cooperative bool) (testbed.Result, error) {
		return testbed.RunCtx(ctx, testbed.Experiment{
			Features: features.Vector{
				MessageSize:    100,
				DelayMs:        2,
				Semantics:      features.SemanticsAtLeastOnce,
				BatchSize:      2,
				PollInterval:   5 * time.Millisecond,
				MessageTimeout: 2 * time.Second,
			},
			Messages:            coopMessages,
			Seed:                w.seeds[2*i+1],
			Partitions:          12,
			MaxSimTime:          coopHorizon + 10*time.Second,
			FaultPlan:           plan,
			ReplicationFactor:   3,
			OffsetsReplication:  3,
			MinISR:              2,
			BrokerFlushInterval: 50 * time.Millisecond,
			CaptureEvidence:     true,
			Consumers:           coopMembers,
			Groups:              coopGroups,
			Cooperative:         cooperative,
			MaxInFlight:         1,
			MaxRetries:          8,
			RequestTimeout:      250 * time.Millisecond,
			RetryBackoff:        20 * time.Millisecond,
			RetryBackoffMax:     200 * time.Millisecond,
			QueueLimit:          64,
		})
	}
	verify := func(res testbed.Result, cooperative bool) []string {
		var v chaos.Verdict
		for _, gr := range res.GroupRuns {
			v.Merge(chaos.VerifyE2E(chaos.E2EInput{
				Semantics:          producer.AtLeastOnce,
				OffsetsReplication: 3,
				Plan:               plan,
				Evidence:           gr.Evidence,
				ConsumedKeys:       gr.ConsumedKeys,
				FinalCommitted:     gr.Committed,
				Regressions:        res.OffsetRegressions,
			}))
			if cooperative {
				v.Merge(chaos.VerifyCoop(chaos.CoopInput{
					OffsetsReplication: 3,
					Plan:               plan,
					Evidence:           gr.Evidence,
					Regressions:        res.OffsetRegressions,
				}))
			}
		}
		return v.Violations
	}
	coopRes, err := run(true)
	if err != nil {
		return coopRow{}, fmt.Errorf("coop trial %d: %w", i, err)
	}
	eagerRes, err := run(false)
	if err != nil {
		return coopRow{}, fmt.Errorf("coop trial %d, eager control: %w", i, err)
	}
	r := coopRow{
		PlanSeed:     w.seeds[2*i],
		WorkloadSeed: w.seeds[2*i+1],
		Acquired:     coopRes.Acquired,
		Delivered:    coopRes.Producer.Delivered,
		Lost:         coopRes.Producer.Lost,
		Duplicated:   coopRes.Report.NDuplicated,
		Pl:           coopRes.Pl,
		Pd:           coopRes.Pd,
		Groups:       len(coopRes.GroupRuns),
		Violations:   verify(coopRes, true),
	}
	for _, s := range verify(eagerRes, false) {
		r.Violations = append(r.Violations, "eager control: "+s)
	}
	for _, f := range plan.Faults {
		r.Faults = append(r.Faults, f.String())
	}
	for _, gr := range coopRes.GroupRuns {
		for _, keys := range gr.ConsumedKeys {
			r.Consumed += int64(len(keys))
		}
		r.Redelivered += gr.Evidence.Redelivered
		r.PausedNs += gr.Evidence.PausedNs
		r.Rebalances += gr.Evidence.Rebalances
		r.CoopFollowUps += gr.Stats.CoopFollowUps
	}
	for _, gr := range eagerRes.GroupRuns {
		r.EagerRedelivered += gr.Evidence.Redelivered
		r.EagerPausedNs += gr.Evidence.PausedNs
	}
	return r, nil
}

func (w *coop) pass(ctx context.Context, workers int, hooks exprun.Hooks) ([]coopRow, error) {
	rows := make([]coopRow, 0, len(w.plans))
	err := exprun.MapOrdered(ctx, w.plans,
		func(ctx context.Context, i int, _ chaos.Plan) (coopRow, error) { return w.trial(ctx, i) },
		func(_ int, r coopRow) error { rows = append(rows, r); return nil },
		exprun.Options{Workers: workers, Hooks: hooks})
	return rows, err
}

func (w *coop) run(ctx context.Context, workers int) outcome {
	rows, err := w.pass(ctx, workers, exprun.Hooks{})
	return w.check(rows, err)
}

func (w *coop) traced(ctx context.Context, tr *tracer) outcome {
	starts := make([]time.Time, len(w.plans))
	rows, err := w.pass(ctx, 1, exprun.Hooks{
		OnStart: func(i int) { starts[i] = time.Now() },
		OnDone:  func(i int, _ exprun.Timing) { tr.add(rootSpan, "trial", starts[i], time.Now()) },
	})
	o := w.check(rows, err)
	var consumed, redelivered, pausedNs, rebalances, followups uint64
	for _, r := range rows {
		consumed += uint64(r.Consumed)
		redelivered += r.Redelivered
		pausedNs += r.PausedNs
		rebalances += r.Rebalances
		followups += r.CoopFollowUps
	}
	o.counts = map[string]float64{
		"consumer.delivered":       float64(consumed),
		"consumer.redelivered_pct": pct(redelivered, consumed),
		"consumer.paused_s":        float64(pausedNs) / 1e9,
		"coordinator.rebalances":   float64(rebalances),
		"coordinator.followups":    float64(followups),
	}
	return o
}

func (w *coop) check(rows []coopRow, err error) outcome {
	o := outcome{attempted: len(w.plans)}
	if err != nil {
		o.errored(err)
		return o
	}
	if len(rows) != len(w.plans) {
		o.fail("%d rows for %d trials", len(rows), len(w.plans))
	}
	for i, r := range rows {
		switch {
		case len(r.Violations) > 0:
			o.fail("trial %d (plan seed %d, workload seed %d): invariants failed: %s",
				i, r.PlanSeed, r.WorkloadSeed, strings.Join(r.Violations, "; "))
		case r.Groups != coopGroups:
			o.fail("trial %d: %d group runs, want %d", i, r.Groups, coopGroups)
		case !unitInterval(r.Pl) || !unitInterval(r.Pd):
			o.fail("trial %d: P_l=%v P_d=%v outside [0,1]", i, r.Pl, r.Pd)
		}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		o.errored(err)
	}
	o.digest = digest(b)
	return o
}

// table2 is the paper's Table II pipeline for the three stream
// profiles: per stream a training sweep, ANN training, the offline
// schedule search and the default-vs-dynamic evaluation.
type table2 struct {
	opts     dynconf.Options
	profiles []workload.Profile
}

func (w *table2) prepare(seed uint64) error {
	// The same pre-op work TableIIContext does before its first sweep:
	// the stream profiles, the Fig. 9 trace, the performance model and
	// each stream's training grid.
	w.profiles = workload.Profiles()
	w.opts = dynconf.Options{Messages: table2Message, Seed: seed, TrainMessages: table2Message / 8}
	if _, err := netem.DefaultTraceSpec().Generate(seed); err != nil {
		return fmt.Errorf("table2: trace: %w", err)
	}
	if _, err := perfmodel.New(testbed.Calibration{}); err != nil {
		return fmt.Errorf("table2: performance model: %w", err)
	}
	for _, p := range w.profiles {
		_ = dynconf.TrainingGrid(p.MeanSize, p.Timeliness)
	}
	return nil
}

func (w *table2) run(ctx context.Context, workers int) outcome {
	opts := w.opts
	opts.Workers = workers
	out, err := dynconf.TableIIContext(ctx, w.profiles, opts)
	return w.check(out, err)
}

// table2Stages maps the Progress lines TableIIContext prints at the
// start of each stage to the stage's span name.
var table2Stages = []struct{ prefix, span string }{
	{"training predictor for ", "train"},
	{"generating schedule for ", "schedule"},
	{"evaluating ", "eval"},
}

func (w *table2) traced(ctx context.Context, tr *tracer) outcome {
	opts := w.opts
	opts.Workers = 1
	type mark struct {
		at    time.Time
		stage string
	}
	var marks []mark
	opts.Progress = func(line string) {
		for _, st := range table2Stages {
			if strings.HasPrefix(line, st.prefix) {
				marks = append(marks, mark{time.Now(), st.span})
			}
		}
	}
	out, err := dynconf.TableIIContext(ctx, w.profiles, opts)
	end := time.Now()
	// A stage lasts until the next mark; a stream, from its "train" mark
	// until the next stream's.
	stream := rootSpan
	for i, m := range marks {
		stop := end
		if i+1 < len(marks) {
			stop = marks[i+1].at
		}
		if m.stage == "train" {
			streamEnd := end
			for _, n := range marks[i+1:] {
				if n.stage == "train" {
					streamEnd = n.at
					break
				}
			}
			stream = tr.add(rootSpan, "stream", m.at, streamEnd)
		}
		tr.add(stream, m.stage, m.at, stop)
	}
	o := w.check(out, err)
	var reconfigs int
	for _, oc := range out {
		reconfigs += oc.Reconfigurations
	}
	o.counts = map[string]float64{"dynconf.reconfigs": float64(reconfigs)}
	return o
}

func (w *table2) check(out []dynconf.StreamOutcome, err error) outcome {
	o := outcome{attempted: len(w.profiles)}
	if err != nil {
		o.errored(err)
		return o
	}
	if len(out) != len(w.profiles) {
		o.fail("%d outcomes for %d streams", len(out), len(w.profiles))
	}
	for i, oc := range out {
		switch {
		case i < len(w.profiles) && oc.Profile != w.profiles[i]:
			o.fail("outcome %d is for stream %q, not %q", i, oc.Profile.Name, w.profiles[i].Name)
		case !unitInterval(oc.DefaultRl) || !unitInterval(oc.DefaultRd) ||
			!unitInterval(oc.DynamicRl) || !unitInterval(oc.DynamicRd):
			o.fail("stream %s: R_l/R_d outside [0,1]: %+v", oc.Profile.Name, oc)
		case oc.Reconfigurations < 1:
			o.fail("stream %s: empty schedule", oc.Profile.Name)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		o.errored(err)
	}
	o.digest = digest(b)
	return o
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
