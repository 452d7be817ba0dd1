package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"kafkarel/internal/chaos"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string // leaf first
		want   string
	}{
		{"stdlib callee goes to its kafkarel caller",
			[]string{"hash/crc32.ieeeCLMUL", "hash/crc32.Update", "kafkarel/internal/wire.(*Encoder).Batch", "kafkarel/internal/producer.(*Producer).send"},
			"wire"},
		{"container/heap under the event queue",
			[]string{"container/heap.down", "container/heap.Pop", "kafkarel/internal/des.(*Simulator).Step", "kafkarel/internal/testbed.RunCtx"},
			"des"},
		{"math under the calibration",
			[]string{"math.pow", "math.Pow", "kafkarel/internal/testbed.Calibration.FullLoadRate"},
			"testbed"},
		{"runtime copy is not GC",
			[]string{"runtime.memmove", "kafkarel/internal/storage.(*Log).Append"},
			"storage"},
		{"map internals go to the caller",
			[]string{"internal/runtime/maps.(*Map).getWithKey", "runtime.mapaccess2", "kafkarel/internal/broker.(*Broker).fetch"},
			"broker"},
		{"allocation leaf",
			[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "kafkarel/internal/wire.Decode"},
			bucketGC},
		{"background mark worker",
			[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"},
			bucketGC},
		{"allocator below a stdlib frame",
			[]string{"runtime.(*mheap).alloc", "runtime.mallocgc", "runtime.growslice", "bytes.(*Buffer).grow", "kafkarel/internal/obs.(*Tracer).Emit"},
			bucketGC},
		{"GC function above a non-runtime frame does not count",
			[]string{"sort.insertionSort", "runtime.mallocgc"},
			bucketOther},
		{"sub-package counts for its top-level module",
			[]string{"kafkarel/internal/chaos/campaign.runCoopTrial.func1", "kafkarel/internal/exprun.run.func2"},
			"chaos"},
		{"generic instantiation",
			[]string{"kafkarel/internal/exprun.Map[go.shape.int,go.shape.struct {}].func1"},
			"exprun"},
		{"innermost module wins",
			[]string{"kafkarel/internal/netem.(*Link).Send", "kafkarel/internal/transport.(*Conn).write", "kafkarel/internal/producer.(*Producer).flush"},
			"netem"},
		{"scheduler", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.schedule"}, bucketOther},
		{"benchmark's own code", []string{"crypto/sha256.block", "main.digest"}, bucketOther},
		{"unlisted internal package", []string{"kafkarel/internal/newthing.Do"}, bucketOther},
		{"empty stack", nil, bucketOther},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("%s: bucketOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeSumsTo100(t *testing.T) {
	stacks := []stack{
		{[]string{"container/heap.Pop", "kafkarel/internal/des.(*Simulator).Step"}, 3},
		{[]string{"runtime.mallocgc", "kafkarel/internal/wire.Decode"}, 2},
		{[]string{"runtime.futex"}, 1},
		{[]string{"kafkarel/internal/ann.(*Network).Forward"}, 4},
	}
	shares := attribute(stacks)
	if len(shares) != len(modules)+2 {
		t.Fatalf("%d buckets, want one per module plus two", len(shares))
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	want := map[string]float64{"des": 30, bucketGC: 20, bucketOther: 10, "ann": 40, "wire": 0}
	for b, w := range want {
		if math.Abs(shares[b]-w) > 1e-9 {
			t.Errorf("%s = %v%%, want %v%%", b, shares[b], w)
		}
	}
}

// pb is a minimal protobuf encoder for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestParseProfile(t *testing.T) {
	var prof pb
	// string table: index 0 must be "".
	for _, s := range []string{"", "samples", "count", "kafkarel/internal/des.(*Simulator).Step", "container/heap.Pop", "kafkarel/internal/testbed.RunCtx"} {
		prof.bytes(6, []byte(s))
	}
	prof.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // sample_type, skipped
	// functions 1..3 name string 3..5
	for id := uint64(1); id <= 3; id++ {
		prof.bytes(5, (&pb{}).varint(1, id).varint(2, id+2).b)
	}
	// location 10: heap.Pop inlined into des.Step; location 11: testbed.RunCtx.
	loc10 := (&pb{}).varint(1, 10).
		bytes(4, (&pb{}).varint(1, 2).varint(2, 7).b).
		bytes(4, (&pb{}).varint(1, 1).varint(2, 9).b)
	prof.bytes(4, loc10.b)
	prof.bytes(4, (&pb{}).varint(1, 11).bytes(4, (&pb{}).varint(1, 3).b).b)
	// a packed sample and an unpacked one
	prof.bytes(2, (&pb{}).bytes(1, packed(10, 11)).bytes(2, packed(5, 50_000_000)).b)
	prof.bytes(2, (&pb{}).varint(1, 11).varint(2, 2).varint(2, 20_000_000).b)
	prof.bytes(9, []byte{0x08, 0x01}) // unrelated field, skipped

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.b)
	zw.Close()

	stacks, err := parseProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 2 {
		t.Fatalf("%d stacks, want 2", len(stacks))
	}
	want0 := []string{"container/heap.Pop", "kafkarel/internal/des.(*Simulator).Step", "kafkarel/internal/testbed.RunCtx"}
	if len(stacks[0].frames) != len(want0) || stacks[0].count != 5 {
		t.Fatalf("stack 0 = %v x%d, want %v x5", stacks[0].frames, stacks[0].count, want0)
	}
	for i := range want0 {
		if stacks[0].frames[i] != want0[i] {
			t.Errorf("stack 0 frame %d = %q, want %q", i, stacks[0].frames[i], want0[i])
		}
	}
	if stacks[1].count != 2 || len(stacks[1].frames) != 1 {
		t.Errorf("stack 1 = %v x%d", stacks[1].frames, stacks[1].count)
	}
	shares := attribute(stacks)
	if math.Abs(shares["des"]-500.0/7) > 1e-9 || math.Abs(shares["testbed"]-200.0/7) > 1e-9 {
		t.Errorf("shares des=%v testbed=%v", shares["des"], shares["testbed"])
	}

	if _, err := parseProfile(gz.Bytes()[:len(gz.Bytes())/2]); err == nil {
		t.Error("truncated profile decoded without error")
	}
	if err := eachField([]byte{0x12, 0x05, 0x01}, func(int, uint64, []byte) error { return nil }); err == nil {
		t.Error("field longer than its message decoded without error")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer("root")
	tr.t0 = tr.t0.Add(-200 * time.Millisecond) // the root span has run 200 ms
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	stream := tr.add(rootSpan, "stream", at(10), at(100))
	tr.add(stream, "train", at(10), at(60))
	tr.add(stream, "eval", at(50), at(80)) // overlaps train by 10 ms
	spans := tr.finish()
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if got := byName["stream"].Self; got != int64(20*time.Millisecond) {
		t.Errorf("stream self = %v, want 20ms", time.Duration(got))
	}
	if got := byName["train"].Self; got != int64(50*time.Millisecond) {
		t.Errorf("train self = %v, want 50ms", time.Duration(got))
	}
	if root := byName["root"]; root.Self != root.End-int64(90*time.Millisecond) {
		t.Errorf("root self = %v, want its length minus 90ms", time.Duration(root.Self))
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark
// prints in step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed [][2]string) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(declared), len(printed))
			return
		}
		for i := range declared {
			if declared[i].Name != printed[i][0] || declared[i].Unit != printed[i][1] {
				t.Errorf("%s %d: declared %s (%s), printed %s (%s)", kind, i,
					declared[i].Name, declared[i].Unit, printed[i][0], printed[i][1])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloadOrder))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: declared %q, benchmark has %q", i, w.Name, workloadOrder[i])
		}
	}
}

// coop-churn must keep the campaign's consumer churn and broker
// slowdowns while leaving out its broker crashes (see README.md).
func TestCoopPlansHaveNoBrokerCrash(t *testing.T) {
	var w coop
	if err := w.prepare(7); err != nil {
		t.Fatal(err)
	}
	kinds := map[chaos.Kind]int{}
	for _, p := range w.plans {
		for _, f := range p.Faults {
			kinds[f.Kind]++
		}
	}
	if kinds[chaos.BrokerCrash] != 0 {
		t.Errorf("%d broker crashes in the plans", kinds[chaos.BrokerCrash])
	}
	if kinds[chaos.ConsumerCrash] == 0 || kinds[chaos.BrokerSlow] == 0 {
		t.Errorf("plans lack consumer crashes or broker slowdowns: %v", kinds)
	}
}
