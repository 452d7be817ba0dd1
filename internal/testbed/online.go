package testbed

import (
	"fmt"
	"time"

	"kafkarel/internal/des"
	"kafkarel/internal/features"
	"kafkarel/internal/obs"
	"kafkarel/internal/transport"
)

// NetworkProbe is a live estimate of the network condition, sampled from
// the producer's own transport statistics — what an online controller
// can actually observe, as opposed to the oracle trace the offline
// scheme assumes (Sec. V: "we assume the network status to be known...
// Running an online algorithm for dynamic configuration is beyond the
// scope of this paper"). This repo implements that online algorithm as
// an extension.
type NetworkProbe struct {
	// At is the virtual sample time.
	At time.Duration
	// SRTTMs is the transport's smoothed round-trip estimate.
	SRTTMs float64
	// EstDelayMs is the one-way delay estimate (SRTT/2).
	EstDelayMs float64
	// RetransRate is retransmissions per data segment over the last
	// interval — a proxy for the packet-loss rate.
	RetransRate float64
	// EstLoss is the controller-facing loss estimate derived from
	// RetransRate, clamped to [0, 0.9].
	EstLoss float64
	// QueueLen is the producer accumulator depth.
	QueueLen int
	// Timeouts counts RTO events in the last interval (burst indicator).
	Timeouts uint64
}

// Controller decides, from a live probe, the next configuration. ok =
// false keeps the current configuration.
type Controller func(probe NetworkProbe) (next features.Vector, ok bool)

// RunOnline executes the experiment while sampling the transport every
// interval and letting the controller reconfigure the producer — the
// online counterpart of the offline Schedule mechanism.
func RunOnline(e Experiment, interval time.Duration, ctrl Controller) (Result, error) {
	if ctrl == nil {
		return Result{}, fmt.Errorf("testbed: nil controller")
	}
	if interval <= 0 {
		return Result{}, fmt.Errorf("testbed: non-positive probe interval %v", interval)
	}
	return runOn(des.New(), e, func(r *rig) { r.control(interval, ctrl) })
}

// control installs the online controller: a ticker that probes the
// client transport every interval, hands the probe to ctrl and applies
// its decision. Like the timeline ticker it stops itself at the first
// tick after the producer completes, so the event queue drains.
func (r *rig) control(interval time.Duration, ctrl Controller) {
	var prev transport.Stats
	var ticker *des.Ticker
	ticker = des.NewTicker(r.sim, interval, func() {
		if r.prod.Done() {
			ticker.Stop()
			return
		}
		cur := r.conn.Client.Stats()
		probe := NetworkProbe{
			At:       r.sim.Now(),
			SRTTMs:   float64(cur.SRTT) / float64(time.Millisecond),
			QueueLen: r.prod.QueueLen(),
			Timeouts: cur.Timeouts - prev.Timeouts,
		}
		probe.EstDelayMs = probe.SRTTMs / 2
		sent := cur.SegmentsSent - prev.SegmentsSent
		retrans := cur.Retransmissions - prev.Retransmissions
		if sent > 0 {
			probe.RetransRate = float64(retrans) / float64(sent)
		}
		probe.EstLoss = probe.RetransRate
		if probe.EstLoss > 0.9 {
			probe.EstLoss = 0.9
		}
		prev = cur
		next, ok := ctrl(probe)
		if !ok {
			return
		}
		sub := r.e
		sub.Features = next
		ncfg, err := producerConfig(sub, r.prod.Config().Topic)
		if err != nil {
			r.cfgErr.keep(err)
			return
		}
		if err := r.prod.Reconfigure(ncfg); err != nil {
			r.cfgErr.keep(err)
			return
		}
		r.e.Timeline.Annotate(obs.AnnOnlineDecision, fmt.Sprintf(
			"est_delay_ms=%.1f est_loss=%.3f %s",
			probe.EstDelayMs, probe.EstLoss, describeConfig(next)))
	})
}
