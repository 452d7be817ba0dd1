package testbed

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"kafkarel/internal/cluster"
	"kafkarel/internal/consumer"
	"kafkarel/internal/coordinator"
	"kafkarel/internal/des"
	"kafkarel/internal/features"
	"kafkarel/internal/netem"
	"kafkarel/internal/obs"
	"kafkarel/internal/producer"
	"kafkarel/internal/stats"
	"kafkarel/internal/transport"
	"kafkarel/internal/workload"
)

// The builders below assemble the one testbed stack (Sec. III-E) every
// run path uses: Run, RunOnline, the fleet shards and the transactional
// pipeline call them, each in its own fixed order. Same-timestamp DES
// events fire in the order they were scheduled, so a path must keep the
// order of its calls that schedule (trace segments, group joins, fault
// plans, tickers, producer start) for its outputs to stay put.

// newCluster builds the three-broker cluster and creates each topic with
// parts partitions at replication factor rf.
func newCluster(sim *des.Simulator, o *obs.Obs, flush time.Duration, minISR, parts, rf int, topics ...string) (*cluster.Cluster, error) {
	cfg := cluster.DefaultConfig()
	cfg.Obs = o
	cfg.Broker.Obs = o
	cfg.Broker.FlushInterval = flush
	cfg.MinISR = minISR
	clst, err := cluster.New(sim, cfg)
	if err != nil {
		return nil, err
	}
	for _, topic := range topics {
		if err := clst.CreateTopic(topic, parts, rf); err != nil {
			return nil, err
		}
	}
	return clst, nil
}

// newClientPath connects one producer to the cluster: the emulated
// duplex link (forward loss stream from e.Seed, reverse from e.Seed+1),
// or e.Trace when set, the transport connection over it, and the cluster
// endpoint serving it, whose parser resets with the connection.
func newClientPath(sim *des.Simulator, clst *cluster.Cluster, o *obs.Obs, cal Calibration, e Experiment) (*netem.Path, *transport.Conn, error) {
	link := func(seed uint64) (netem.Config, error) {
		cfg := netem.Config{Bandwidth: cal.Bandwidth, QueueLimit: 1000, Obs: o}
		if len(e.Trace) == 0 {
			if e.Features.DelayMs > 0 {
				cfg.Delay = stats.Constant{Value: e.Features.DelayMs}
			}
			if e.Features.LossRate > 0 {
				loss, err := stats.NewBernoulli(e.Features.LossRate, rand.New(rand.NewPCG(seed, 0x01)))
				if err != nil {
					return cfg, err
				}
				cfg.Loss = loss
			}
		}
		return cfg, nil
	}
	fwd, err := link(e.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("forward link: %w", err)
	}
	rev, err := link(e.Seed + 1)
	if err != nil {
		return nil, nil, fmt.Errorf("reverse link: %w", err)
	}
	path, err := netem.NewPath(sim, fwd, rev)
	if err != nil {
		return nil, nil, err
	}
	if len(e.Trace) > 0 {
		// The trace's losses draw from the forward link's stream, which
		// the constant-loss link above leaves unused under a trace.
		if err := e.Trace.Apply(sim, path, rand.New(rand.NewPCG(e.Seed, 0x01))); err != nil {
			return nil, nil, err
		}
	}
	conn, err := transport.NewConn(sim, path, transport.Config{SendBufferLimit: cal.SocketBuffer, Obs: o})
	if err != nil {
		return nil, nil, err
	}
	srv, err := cluster.NewServer(clst, conn.Server)
	if err != nil {
		return nil, nil, err
	}
	conn.OnReset(srv.ResetParser)
	return path, conn, nil
}

// newGroups builds the group coordinator and fans the topic out to
// groups consumer groups of members members each, joined at once. A
// single group takes the id single; a fan-out takes "g00", "g01", ....
// Each group's config is tmpl with its id.
func newGroups(sim *des.Simulator, clst *cluster.Cluster, o *obs.Obs, offsetsRF int, single string, groups, members int, tmpl consumer.GroupConfig) (*coordinator.Coordinator, []*consumer.Group, error) {
	co, err := coordinator.New(sim, clst, coordinator.Config{OffsetsReplication: offsetsRF, Obs: o})
	if err != nil {
		return nil, nil, err
	}
	tmpl.Auto = true
	tmpl.IdleGiveUp = time.Second
	tmpl.Obs = o
	out := make([]*consumer.Group, groups)
	for gi := range out {
		cfg := tmpl
		cfg.ID = single
		if groups > 1 {
			cfg.ID = fmt.Sprintf("g%02d", gi)
		}
		grp, err := consumer.NewGroup(sim, co, clst, cfg)
		if err != nil {
			return nil, nil, err
		}
		for c := 0; c < members; c++ {
			if err := grp.Join(fmt.Sprintf("c%02d", c)); err != nil {
				return nil, nil, err
			}
		}
		out[gi] = grp
	}
	return co, out, nil
}

// newProducer wires one producer onto conn: a fixed-size source of
// e.Messages records, the host cost model (PCG stream 0x02 of e.Seed),
// retry jitter (stream 0x03), and onDone as the completion hook.
// CaptureEvidence adds the per-record outcome log.
func newProducer(sim *des.Simulator, o *obs.Obs, cal Calibration, e Experiment, cfg producer.Config, conn *transport.Conn, onDone func()) (*producer.Producer, error) {
	src, err := workload.NewFixedSource(e.Features.MessageSize, e.Messages)
	if err != nil {
		return nil, err
	}
	costs := newCostModel(cal, rand.New(rand.NewPCG(e.Seed, 0x02)))
	opts := []producer.Option{
		producer.WithTimeliness(e.Features.Timeliness),
		producer.WithCompletion(onDone),
		producer.WithObs(o),
		producer.WithRetryRand(rand.New(rand.NewPCG(e.Seed, 0x03))),
	}
	if e.CaptureEvidence {
		opts = append(opts, producer.WithOutcomeLog())
	}
	return producer.New(sim, cfg, costs, conn, src, opts...)
}

// semantics maps a feature vector's semantics code onto the producer's
// (the codes mirror producer.Semantics numerically).
func semantics(code int) (producer.Semantics, error) {
	if code < features.SemanticsAtMostOnce || code > features.SemanticsExactlyOnce {
		return 0, fmt.Errorf("testbed: unknown semantics %d", code)
	}
	return producer.Semantics(code), nil
}

// transportProbe shows the client's gauges (cwnd, SRTT, RTO, in-flight)
// but sums the counters over both endpoints: they feed the same registry
// counters, and the cross-check against the metrics snapshot requires
// the timeline to match them.
func transportProbe(conn *transport.Conn) func() obs.TransportProbe {
	return func() obs.TransportProbe {
		p := conn.Client.Probe()
		s := conn.Server.Probe()
		p.SegmentsSent += s.SegmentsSent
		p.Retransmits += s.Retransmits
		p.RTOTimeouts += s.RTOTimeouts
		return p
	}
}

// sampleUntil anchors tl with a row at the current time, then samples it
// once per interval until done reports true; the ticker then stops
// itself so the event queue can drain. The caller takes the final sample
// after the run, covering events past the last tick.
func sampleUntil(sim *des.Simulator, tl *obs.Timeline, done func() bool) {
	tl.Sample()
	var tick *des.Ticker
	tick = des.NewTicker(sim, tl.Interval(), func() {
		if done() {
			tick.Stop()
			return
		}
		tl.Sample()
	})
}

// firstErr keeps the first runtime error a run reports (fault
// injection, reconfiguration); later ones tend to be its consequences.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if f.err == nil {
		f.err = err
	}
}

// runToHorizon runs the simulation to maxSim, or, without a horizon,
// until the event queue drains, capped against runaway runs.
func runToHorizon(sim *des.Simulator, maxSim time.Duration) error {
	const eventCap = 2_000_000_000
	if maxSim > 0 {
		if err := sim.RunUntil(maxSim); err != nil {
			return fmt.Errorf("run: %w", err)
		}
		return nil
	}
	if err := sim.RunLimit(eventCap); err != nil {
		return fmt.Errorf("event cap exceeded (runaway run?): %w", err)
	}
	return nil
}

// readGroups is the end-of-run read-out of every consumer group, in
// join order: evidence, application stream, coordinator ledger, durable
// committed offsets (-1 where nothing was committed) and lag.
func readGroups(co *coordinator.Coordinator, groups []*consumer.Group) ([]GroupRun, error) {
	var out []GroupRun
	for _, grp := range groups {
		ev := grp.Evidence()
		gr := GroupRun{
			ID:           ev.Group,
			Evidence:     ev,
			ConsumedKeys: grp.ConsumedKeys(),
			Stats:        co.GroupStats(ev.Group),
			Committed:    make([]int64, grp.Partitions()),
		}
		for p := range gr.Committed {
			off, err := grp.Committed(int32(p))
			switch {
			case err == nil:
				gr.Committed[p] = off
			case errors.Is(err, consumer.ErrNoCommit):
				gr.Committed[p] = -1
			default:
				return nil, fmt.Errorf("group %s: committed offset of partition %d: %w", ev.Group, p, err)
			}
		}
		// Authoritative lag when the cluster can answer; the group's own
		// durable view when a partition ended the run leaderless.
		if lags, err := grp.LagByPartition(); err == nil {
			gr.Lag = lags
		} else {
			gr.Lag = grp.Probe().LagByPartition
		}
		out = append(out, gr)
	}
	return out, nil
}

// addReport and addCounts add one part's consumer reconciliation and
// producer-view counts into running totals: a scaled run's producers, a
// fleet's shards and a shard's producers all sum the same way.
func addReport(dst *consumer.Report, r consumer.Report) {
	dst.SourceCount += r.SourceCount
	dst.Distinct += r.Distinct
	dst.NLost += r.NLost
	dst.NDuplicated += r.NDuplicated
	dst.ExtraCopies += r.ExtraCopies
	dst.Foreign += r.Foreign
}

func addCounts(dst *producer.Counts, c producer.Counts) {
	dst.Total += c.Total
	dst.Delivered += c.Delivered
	dst.Lost += c.Lost
	for i, n := range c.ByCase {
		dst.ByCase[i] += n
	}
}
