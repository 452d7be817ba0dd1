package testbed

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"testing"
	"time"

	"kafkarel/internal/chaos"
	"kafkarel/internal/features"
	"kafkarel/internal/obs"
)

// The golden tests pin the sha256 of canonical fixed-seed outputs of
// every testbed run path (Run with a consumer fan-out, RunOnline and a
// multi-group fleet). The run paths share their assembly code, and
// same-timestamp DES events fire in scheduling order, so any change to
// the order in which a path builds its stack or draws its random
// streams shows up here as a digest change. A digest may only change
// together with a deliberate change of simulated behaviour.

// goldenG renders a float canonically.
func goldenG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeGoldenResult renders every deterministic part of a Result: the
// reliability numbers, the metrics snapshot, the timelines and the
// evidence, with no pointer values.
func writeGoldenResult(t *testing.T, w io.Writer, res Result) {
	t.Helper()
	fmt.Fprintf(w, "pl=%s pd=%s stale=%s tput=%s bw=%s acquired=%d duration=%d completed=%t\n",
		goldenG(res.Pl), goldenG(res.Pd), goldenG(res.StaleRate), goldenG(res.Throughput),
		goldenG(res.BandwidthUtilization), res.Acquired, res.Duration, res.Completed)
	fmt.Fprintf(w, "report=%+v producer=%+v\n", res.Report, res.Producer)
	fmt.Fprintf(w, "latency n=%d mean=%s min=%s max=%s\n", res.Latency.N(),
		goldenG(res.Latency.Mean()), goldenG(res.Latency.Min()), goldenG(res.Latency.Max()))
	w.Write(res.Metrics.Encode())
	for _, tl := range res.Timelines {
		if err := tl.WriteCSV(w); err != nil {
			t.Fatal(err)
		}
	}
	enc := json.NewEncoder(w)
	for _, v := range []any{res.Outcomes, res.ConsumedKeys, res.BrokerStats, res.GroupRuns, res.OffsetRegressions} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func checkGolden(t *testing.T, name string, out []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s: sha256 = %s, want %s", name, got, want)
	}
}

// goldenExperiment is a Run with two consumer groups, a fault plan
// hitting every layer and a timeline.
func goldenExperiment() Experiment {
	return Experiment{
		Features: features.Vector{
			MessageSize:    200,
			Timeliness:     5 * time.Second,
			DelayMs:        10,
			LossRate:       0.05,
			Semantics:      features.SemanticsAtLeastOnce,
			BatchSize:      2,
			PollInterval:   2 * time.Millisecond,
			MessageTimeout: time.Second,
		},
		Messages:        400,
		Seed:            21,
		Partitions:      3,
		Consumers:       2,
		Groups:          2,
		CaptureEvidence: true,
		MaxSimTime:      30 * time.Second,
		Timeline:        obs.NewTimeline(200 * time.Millisecond),
		FaultPlan: chaos.Plan{Faults: []chaos.Fault{
			{Kind: chaos.BrokerCrash, At: 100 * time.Millisecond, Duration: 300 * time.Millisecond, Broker: 1},
			{Kind: chaos.ConsumerCrash, At: 150 * time.Millisecond, Duration: 400 * time.Millisecond, Member: 1, Group: 1},
			{Kind: chaos.LossBurst, At: 200 * time.Millisecond, Duration: 200 * time.Millisecond, LossRate: 0.3},
			{Kind: chaos.ConnReset, At: 450 * time.Millisecond},
		}},
	}
}

func TestGoldenRunGroupsFaultsTimeline(t *testing.T) {
	res, err := Run(goldenExperiment())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeGoldenResult(t, &buf, res)
	checkGolden(t, "Run", buf.Bytes(), "6fcfaf93bb5436e2849670415bedaf3dbf3aa1579e6722897ab3202d0d7d09b6")
}

// TestGoldenRunOnline pins RunOnline: a controller that reacts to the
// probe's loss estimate, with timeline annotations.
func TestGoldenRunOnline(t *testing.T) {
	v := features.Vector{
		MessageSize:    200,
		Timeliness:     5 * time.Second,
		DelayMs:        20,
		LossRate:       0.08,
		Semantics:      features.SemanticsAtLeastOnce,
		BatchSize:      1,
		MessageTimeout: 800 * time.Millisecond,
	}
	ctrl := func(p NetworkProbe) (features.Vector, bool) {
		next := v
		next.BatchSize = 1 + int(p.EstLoss*20)
		if p.QueueLen > 4 {
			next.Semantics = features.SemanticsAtMostOnce
		}
		return next, true
	}
	res, err := RunOnline(Experiment{
		Features: v,
		Messages: 600,
		Seed:     5,
		Timeline: obs.NewTimeline(250 * time.Millisecond),
	}, 100*time.Millisecond, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	writeGoldenResult(t, &buf, res)
	checkGolden(t, "RunOnline", buf.Bytes(), "95bc83994ade1abd2d4747d5a41a72e3058d04f05adf5f5140ead08d33348494")
}

// TestGoldenFleetGroupsConsumerFaults pins a two-group fleet under
// synthesized consumer faults and a broker fault: the scorecard and the
// merged entity timeline.
func TestGoldenFleetGroupsConsumerFaults(t *testing.T) {
	f := smallFleet()
	f.Features.LossRate = 0.03
	f.Topics = 2
	f.Producers = 5
	f.Groups = 2
	f.ConsumerFaults = true
	f.TimelineInterval = 500 * time.Millisecond
	f.FaultPlan = chaos.Plan{Faults: []chaos.Fault{
		{Kind: chaos.BrokerCrash, At: 120 * time.Millisecond, Duration: 200 * time.Millisecond, Broker: 2},
	}}
	res, err := RunFleetContext(context.Background(), f, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write(res.Scorecard())
	if err := obs.WriteMergedCSV(&buf, res.Timelines); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "RunFleet", buf.Bytes(), "502326120d3c0bb0aa715f81250b2d69dba85bb50023b2a9729956908b7d24cb")
}
