// Package testbed assembles the full experiment pipeline of Sec. III-E:
// a three-broker cluster, an emulated network path with injected faults,
// a producer driven by synthetic source data, and a consumer-side
// reconciliation that yields the ground-truth reliability metrics P_l
// and P_d for a given feature vector. One Run is the simulated
// equivalent of one Docker-testbed experiment.
package testbed

import (
	"context"
	"fmt"
	"time"

	"kafkarel/internal/broker"
	"kafkarel/internal/chaos"
	"kafkarel/internal/cluster"
	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/exprun"
	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
	"kafkarel/internal/wire"
)

// Experiment describes one testbed run. The Features vector carries the
// paper's eight prediction features; the remaining fields are the fixed
// plumbing of the testbed itself.
type Experiment struct {
	Features features.Vector
	// Messages is the number of source messages (the paper uses 10^6; the
	// probabilities converge much earlier).
	Messages int
	// Seed makes the run reproducible.
	Seed uint64
	// Partitions is the topic's partition count (default 1). Above 1 the
	// producer round-robins batches across partitions and the consumer
	// reconciles all of them.
	Partitions int
	// Calibration overrides the host cost constants (zero value: default).
	Calibration Calibration
	// Trace, when non-empty, drives a time-varying network instead of the
	// constant Features.DelayMs / Features.LossRate.
	Trace netem.Trace
	// MaxSimTime caps the virtual duration (0 = none); experiments cut
	// short report metrics over the messages acquired so far.
	MaxSimTime time.Duration
	// FaultPlan schedules chaos faults across every layer — broker
	// crashes, unclean restarts, network partitions, burst loss, delay
	// spikes, connection resets, broker slowdowns (see internal/chaos).
	FaultPlan chaos.Plan
	// ReplicationFactor overrides the topic's replication factor
	// (default 3, the paper's three-broker testbed).
	ReplicationFactor int
	// MinISR is the minimum in-sync replica count acks=all requests
	// require (default 1): with MinISR > 1, a broker outage makes
	// produce requests fail fast with ErrNotEnoughReplicas instead of
	// acking on the survivors.
	MinISR int
	// BrokerFlushInterval sets the brokers' fsync cadence. Zero (the
	// default) keeps every append durable; a positive interval opens the
	// real acks=1 data-loss window under unclean restarts.
	BrokerFlushInterval time.Duration
	// CaptureEvidence retains the per-record outcome log, the
	// per-partition consumed keys, and per-broker counters on the Result
	// — the chaos invariant checker's inputs. Off by default (the outcome
	// log is memory-heavy for large runs).
	CaptureEvidence bool
	// Consumers, when positive, runs a consumer group of that many
	// members through the broker-side group coordinator alongside the
	// producer: members join at t=0, poll their assigned partitions,
	// commit through the replicated offsets log, and leave once the
	// producer is done and their partitions are drained and committed.
	// Requires MaxSimTime > 0 (a group stuck on a permanently
	// unservable partition polls until its idle give-up, and the run
	// needs a horizon). Exactly-once features run the group with
	// offset-dedup on; everything the group saw comes back in
	// Result.GroupRuns. ConsumerCrash faults in the plan target this
	// group.
	Consumers int
	// Groups fans the consumption out to that many independent consumer
	// groups (ids "g00", "g01", ...), each with Consumers members, all
	// subscribed to the topic and sharing one coordinator and offsets
	// log. The default (0 or 1) runs the single legacy group "testbed".
	// ConsumerCrash faults select a group via Fault.Group; results come
	// back per group in Result.GroupRuns.
	Groups int
	// Cooperative runs the consumer group(s) under the incremental
	// cooperative rebalance protocol (KIP-429) instead of the eager
	// stop-the-world default.
	Cooperative bool
	// OffsetsReplication overrides the coordinator's offsets-topic
	// replication factor (default min(3, brokers)). Running it at 1
	// under unclean restarts is how committed offsets get lost.
	OffsetsReplication int
	// Schedule applies configuration changes at virtual times — the
	// paper's dynamic-configuration mechanism (Sec. V). Each change maps
	// the vector's configuration features (semantics, B, δ, T_o) onto the
	// running producer; the stream and network features of scheduled
	// vectors are ignored.
	Schedule []ConfigChange
	// DisableMetrics switches off the per-run obs.Registry; Result.Metrics
	// then stays zero. Metrics are on by default (they are cheap: atomic
	// word-sized updates with handles resolved at build time).
	DisableMetrics bool
	// Tracer, when non-nil, receives the run's structured event stream
	// (record lifecycle, transport, broker events). The testbed binds the
	// tracer to the run's virtual clock. Tracing requires a single
	// producer: RunScaled rejects a traced experiment.
	Tracer *obs.Tracer
	// Timeline, when non-nil, samples the run at the timeline's interval
	// (netem, transport, producer and broker probes) and records config
	// switches and broker events as annotations; it comes back as
	// Result.Timeline. Under RunScaled it acts as an interval template:
	// each sub-simulation samples its own entity-tagged timeline and the
	// merged Result.Timelines carries all of them.
	Timeline *obs.Timeline
	// Overrides for producer plumbing; zero values take the defaults
	// below.
	QueueLimit     int
	MaxInFlight    int
	MaxRetries     int
	RequestTimeout time.Duration
	RetryBackoff   time.Duration
	// RetryBackoffMax, when positive, switches retries from fixed backoff
	// to exponential backoff with decorrelated jitter capped here; the
	// jitter draws from a PCG stream derived from Seed, so runs stay
	// deterministic.
	RetryBackoffMax time.Duration
	LingerTime      time.Duration
}

// ConfigChange is one scheduled reconfiguration.
type ConfigChange struct {
	At       time.Duration
	Features features.Vector
}

// Plumbing defaults (see DESIGN.md §5 for how they were chosen).
const (
	DefaultQueueLimit     = 12
	DefaultMaxInFlight    = 5
	DefaultMaxRetries     = 5
	DefaultRequestTimeout = 2000 * time.Millisecond
	DefaultRetryBackoff   = 20 * time.Millisecond
	DefaultLingerTime     = 5 * time.Millisecond
)

// Result is everything one run measures.
type Result struct {
	// Pl and Pd are the ground-truth reliability metrics from consumer
	// reconciliation (Sec. III-F).
	Pl float64
	Pd float64
	// Report is the full consumer reconciliation.
	Report consumer.Report
	// Producer is the producer-view Table I case distribution.
	Producer producer.Counts
	// Metrics is the per-run observability snapshot (zero when
	// Experiment.DisableMetrics was set).
	Metrics MetricsSnapshot
	// Timeline echoes Experiment.Timeline after the run, with a final
	// sample taken once the simulation drained (so late broker appends
	// are covered and column sums equal the Metrics counters).
	Timeline *obs.Timeline
	// Timelines collects every timeline the run produced, in producer
	// order. A single Run yields at most one (== Timeline); RunScaled
	// yields one per simulated producer, each tagged with its entity
	// ("p0000", "p0001", ...) for obs.WriteMergedCSV.
	Timelines []*obs.Timeline
	// Latency summarises delivered-message T_p in milliseconds.
	Latency stats.Summary
	// StaleRate is the fraction of delivered messages with T_p > S.
	StaleRate float64
	// Throughput is delivered messages per simulated second.
	Throughput float64
	// BandwidthUtilization is the measured φ: delivered forward-link bytes
	// over link capacity for the run duration.
	BandwidthUtilization float64
	// Acquired is how many source messages entered the producer.
	Acquired uint64
	// Duration is the simulated run time.
	Duration time.Duration
	// Completed reports whether the source drained before MaxSimTime.
	Completed bool
	// Outcomes is the per-record outcome log (Experiment.CaptureEvidence).
	Outcomes []producer.Outcome
	// ConsumedKeys holds, per partition, the consumed record keys in
	// offset order (Experiment.CaptureEvidence).
	ConsumedKeys [][]uint64
	// BrokerStats is every broker's counter snapshot, indexed by node ID.
	BrokerStats []broker.Stats
	// OffsetRegressions are committed watermarks the offsets log lost
	// across unclean restarts.
	OffsetRegressions []coordinator.OffsetRegression
	// GroupRuns holds one entry per consumer group in join order
	// (Experiment.Consumers > 0; Experiment.Groups of them).
	GroupRuns []GroupRun
}

// GroupRun is one consumer group's slice of a multi-group run.
type GroupRun struct {
	// ID is the group id ("testbed", or "g00", "g01", ... when fanned
	// out).
	ID string
	// Evidence is the group's delivery record.
	Evidence consumer.Evidence
	// ConsumedKeys is the group's per-partition application stream.
	ConsumedKeys [][]uint64
	// Committed is the durable committed offset per partition at the end
	// of the run (-1 = nothing committed).
	Committed []int64
	// Lag is the per-partition end-of-run backlog.
	Lag []int64
	// Stats is the coordinator's per-group activity ledger.
	Stats coordinator.GroupStats
}

// Run executes one experiment.
func Run(e Experiment) (Result, error) {
	return runOn(des.New(), e, nil)
}

// trialScratch is the warm state a worker keeps between trials.
type trialScratch struct {
	sim *des.Simulator
}

// RunCtx executes one experiment like Run, but when ctx belongs to an
// exprun worker it reuses the worker's simulator across trials
// (des.Reset keeps the event heap and free-list capacity), so a sweep's
// steady-state trials skip the per-run warm-up allocations. Results are
// byte-identical to Run's.
func RunCtx(ctx context.Context, e Experiment) (Result, error) {
	return runOn(simFor(ctx), e, nil)
}

// simFor returns the simulator a run should use: the calling exprun
// worker's warm simulator (reset, keeping its event-heap and free-list
// capacity) when ctx belongs to a worker pool, or a fresh one
// otherwise. RunCtx trials, fleet shards and transactional runs share it.
func simFor(ctx context.Context) *des.Simulator {
	s := exprun.ContextScratch(ctx)
	if s == nil {
		return des.New()
	}
	ts, ok := s.Get().(*trialScratch)
	if !ok {
		ts = &trialScratch{sim: des.New()}
		s.Set(ts)
	} else {
		ts.sim.Reset()
	}
	return ts.sim
}

// runOn validates, builds, starts, runs and collects one experiment.
// onStart, when non-nil, installs extra machinery once the producer has
// started (RunOnline's controller ticker).
func runOn(sim *des.Simulator, e Experiment, onStart func(*rig)) (Result, error) {
	if err := e.Features.Validate(); err != nil {
		return Result{}, fmt.Errorf("testbed: %w", err)
	}
	if e.Messages <= 0 {
		return Result{}, fmt.Errorf("testbed: message count %d <= 0", e.Messages)
	}
	if e.Consumers > 0 && e.MaxSimTime <= 0 {
		return Result{}, fmt.Errorf("testbed: Consumers > 0 requires MaxSimTime")
	}
	cal := e.Calibration
	if cal == (Calibration{}) {
		cal = DefaultCalibration()
	}
	if err := cal.Validate(); err != nil {
		return Result{}, err
	}

	r, err := buildRig(sim, e, cal)
	if err != nil {
		return Result{}, fmt.Errorf("testbed: %w", err)
	}
	r.prod.Start()
	if onStart != nil {
		onStart(r)
	}
	if err := runToHorizon(sim, e.MaxSimTime); err != nil {
		return Result{}, fmt.Errorf("testbed: %w", err)
	}
	return r.collect()
}

// rig is the assembled simulation.
type rig struct {
	sim    *des.Simulator
	e      Experiment
	cal    Calibration
	path   *netem.Path
	conn   *transport.Conn
	clst   *cluster.Cluster
	prod   *producer.Producer
	co     *coordinator.Coordinator
	groups []*consumer.Group // every group, in join order
	reg    *obs.Registry
	cfgErr firstErr
	doneAt time.Duration // virtual time the producer finished (-1 if cut off)
}

// buildRig assembles one experiment's single-producer stack: cluster,
// client path, consumer groups, fault plan, producer, configuration
// schedule and timeline ticker, in that order.
func buildRig(sim *des.Simulator, e Experiment, cal Calibration) (*rig, error) {
	r := &rig{sim: sim, e: e, cal: cal, doneAt: -1}
	if !e.DisableMetrics {
		r.reg = obs.NewRegistry()
	}
	e.Tracer.BindClock(sim)
	e.Timeline.BindClock(sim)
	o := &obs.Obs{Registry: r.reg, Trace: e.Tracer}
	sim.Instrument(o)

	const topic = "stream"
	clst, err := newCluster(sim, o, e.BrokerFlushInterval, e.MinISR,
		exprun.DefInt(e.Partitions, 1), exprun.DefInt(e.ReplicationFactor, 3), topic)
	if err != nil {
		return nil, err
	}
	r.clst = clst
	if r.path, r.conn, err = newClientPath(sim, clst, o, cal, e); err != nil {
		return nil, err
	}
	pcfg, err := producerConfig(e, topic)
	if err != nil {
		return nil, err
	}
	if e.Consumers > 0 {
		r.co, r.groups, err = newGroups(sim, clst, o, e.OffsetsReplication, "testbed",
			exprun.DefInt(e.Groups, 1), e.Consumers, consumer.GroupConfig{
				Topic:           topic,
				Cooperative:     e.Cooperative,
				Dedup:           e.Features.Semantics == features.SemanticsExactlyOnce,
				CaptureEvidence: e.CaptureEvidence,
			})
		if err != nil {
			return nil, err
		}
	}
	if len(e.FaultPlan.Faults) > 0 {
		plan := chaos.Plan{Faults: append([]chaos.Fault(nil), e.FaultPlan.Faults...)}
		err := chaos.Schedule(plan, chaos.Targets{
			Sim:      sim,
			Cluster:  clst,
			Path:     r.path,
			Conn:     r.conn,
			Groups:   r.groups,
			Timeline: e.Timeline,
			Seed:     e.Seed,
			OnError:  r.cfgErr.keep,
		})
		if err != nil {
			return nil, fmt.Errorf("fault plan: %w", err)
		}
	}
	prod, err := newProducer(sim, o, cal, e, pcfg, r.conn, func() { r.doneAt = sim.Now() })
	if err != nil {
		return nil, err
	}
	r.prod = prod
	for _, grp := range r.groups {
		grp.SetDrainCheck(prod.Done)
	}
	for i, change := range e.Schedule {
		next := e
		next.Features = change.Features
		ncfg, err := producerConfig(next, topic)
		if err != nil {
			return nil, fmt.Errorf("schedule entry %d: %w", i, err)
		}
		sim.Schedule(change.At, func() {
			// Reconfigure pins topic/partition/producer ID itself; a
			// schedule entry can only carry tunable parameters.
			if err := prod.Reconfigure(ncfg); err != nil {
				r.cfgErr.keep(err)
				return
			}
			e.Timeline.Annotate(obs.AnnConfigSwitch, describeConfig(change.Features))
		})
	}
	if e.Timeline != nil {
		e.Timeline.SetProbes(r.path.Probe, transportProbe(r.conn), prod.Probe,
			func() obs.BrokerProbe { return clst.Probe(topic) })
		if len(r.groups) > 0 {
			e.Timeline.SetGroupProbe(r.groups[0].Probe)
		}
		sampleUntil(sim, e.Timeline, prod.Done)
	}
	return r, nil
}

// describeConfig renders the tunable configuration features of a vector
// for timeline annotations — the parameters a schedule entry or an
// online decision actually applies.
func describeConfig(v features.Vector) string {
	sem := fmt.Sprintf("sem%d", v.Semantics)
	switch v.Semantics {
	case features.SemanticsAtMostOnce:
		sem = "at-most-once"
	case features.SemanticsAtLeastOnce:
		sem = "at-least-once"
	case features.SemanticsExactlyOnce:
		sem = "exactly-once"
	}
	return fmt.Sprintf("%s B=%d delta=%v To=%v",
		sem, v.BatchSize, v.PollInterval, v.MessageTimeout)
}

// producerConfig maps a feature vector plus experiment overrides onto the
// producer configuration.
func producerConfig(e Experiment, topic string) (producer.Config, error) {
	sem, err := semantics(e.Features.Semantics)
	if err != nil {
		return producer.Config{}, err
	}
	cfg := producer.Config{
		Topic:           topic,
		Semantics:       sem,
		BatchSize:       e.Features.BatchSize,
		PollInterval:    e.Features.PollInterval,
		MessageTimeout:  e.Features.MessageTimeout,
		MaxRetries:      exprun.DefInt(e.MaxRetries, DefaultMaxRetries),
		RetryBackoff:    exprun.DefDur(e.RetryBackoff, DefaultRetryBackoff),
		RetryBackoffMax: e.RetryBackoffMax,
		RequestTimeout:  exprun.DefDur(e.RequestTimeout, DefaultRequestTimeout),
		MaxInFlight:     exprun.DefInt(e.MaxInFlight, DefaultMaxInFlight),
		Partitions:      int32(exprun.DefInt(e.Partitions, 1)),
		QueueLimit:      exprun.DefInt(e.QueueLimit, DefaultQueueLimit),
		LingerTime:      exprun.DefDur(e.LingerTime, DefaultLingerTime),
		ReconnectDelay:  50 * time.Millisecond,
	}
	// Always assigned: idempotence only engages when the semantics is
	// exactly-once, and a schedule may switch semantics mid-run.
	cfg.ProducerID = e.Seed + 1
	return cfg, nil
}

// collect verifies and aggregates the run.
func (r *rig) collect() (Result, error) {
	e := r.e
	if r.cfgErr.err != nil {
		return Result{}, fmt.Errorf("testbed: scheduled reconfiguration: %w", r.cfgErr.err)
	}
	// Final sample after the simulation drained: the ticker stops at the
	// first tick past producer completion, but late appends (a spurious
	// retry's first copy landing after the last record resolved) must
	// still fall inside a row for column sums to equal the counters.
	e.Timeline.Sample()
	res := Result{
		Timeline:  e.Timeline,
		Producer:  r.prod.Counts(),
		Latency:   r.prod.Latency(),
		Acquired:  r.prod.Acquired(),
		Duration:  r.sim.Now(),
		Completed: r.prod.Done(),
	}
	if e.Timeline != nil {
		res.Timelines = []*obs.Timeline{e.Timeline}
	}
	if r.doneAt >= 0 {
		res.Duration = r.doneAt
	}
	var recs []wire.Record
	for p := int32(0); p < int32(exprun.DefInt(e.Partitions, 1)); p++ {
		cons, err := consumer.New(r.clst, r.prod.Config().Topic, p)
		if err != nil {
			return Result{}, fmt.Errorf("testbed: %w", err)
		}
		part, err := cons.ConsumeAll()
		if err != nil {
			return Result{}, fmt.Errorf("testbed: partition %d: %w", p, err)
		}
		recs = append(recs, part...)
		if e.CaptureEvidence {
			keys := make([]uint64, len(part))
			for i, rec := range part {
				keys[i] = rec.Key
			}
			res.ConsumedKeys = append(res.ConsumedKeys, keys)
		}
	}
	if e.CaptureEvidence {
		res.Outcomes = r.prod.Outcomes()
	}
	res.BrokerStats = r.clst.StatsAll()
	if r.co != nil {
		grs, err := readGroups(r.co, r.groups)
		if err != nil {
			return Result{}, fmt.Errorf("testbed: %w", err)
		}
		res.GroupRuns = grs
		res.OffsetRegressions = r.co.Regressions()
	}
	res.Report = consumer.Reconcile(res.Acquired, recs)
	res.Pl = res.Report.Pl()
	res.Pd = res.Report.Pd()
	if r.reg != nil {
		res.Metrics = snapshotMetrics(r.reg.Snapshot())
		res.Metrics.Cases = res.Producer.ByCase
		// Case 5 (duplicated) is only observable at the consumer.
		res.Metrics.Cases[producer.Case5] = res.Report.NDuplicated
	}
	if d := res.Duration.Seconds(); d > 0 {
		res.Throughput = float64(res.Report.Distinct) / d
		res.BandwidthUtilization = float64(r.path.Fwd.Counters().BytesDelivery*8) / (r.cal.Bandwidth * d)
	}
	if res.Producer.Delivered > 0 {
		res.StaleRate = float64(r.prod.Stale()) / float64(res.Producer.Delivered)
	}
	return res, nil
}
