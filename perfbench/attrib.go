package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the repository's internal/ packages, the layers the CPU
// table reports. A sample attributed to a package not listed here (one
// added later) is counted in runtime.other, so the table still sums to
// 100%.
var modules = []string{
	"ann", "broker", "chaos", "cluster", "consumer", "coordinator", "core",
	"des", "dynconf", "exprun", "features", "figures", "kpi", "netem", "obs",
	"perfmodel", "producer", "report", "stats", "storage", "sweep",
	"testbed", "transport", "wire", "workload",
}

const (
	bucketGC    = "runtime.gc_alloc"
	bucketOther = "runtime.other"
	modPrefix   = "kafkarel/internal/"
)

// stack is one CPU-profile sample: function names leaf first (inlined
// frames expanded) and how many samples share that stack.
type stack struct {
	frames []string
	count  int64
}

// gcAllocRoots are runtime functions through which the garbage
// collector and the allocator are entered. A sample whose leaf-side run
// of runtime frames contains one of them is GC or allocation cost.
var gcAllocRoots = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.greyobject", "runtime.bgsweep", "runtime.sweepone",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.wbBufFlush", "runtime.gcWriteBarrier",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*gcWork)", "runtime.(*mspan)", "runtime.(*sweepLocked)",
}

func isRuntimeFrame(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

// bucketOf attributes one stack: GC/allocator leaves to bucketGC, else
// the innermost kafkarel/internal/<module> frame's module (so stdlib
// callees such as container/heap or hash/crc32 count for their nearest
// kafkarel caller), else bucketOther.
func bucketOf(frames []string) string {
	for _, fn := range frames {
		if !isRuntimeFrame(fn) {
			break
		}
		for _, root := range gcAllocRoots {
			if strings.HasPrefix(fn, root) {
				return bucketGC
			}
		}
	}
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, modPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				rest = rest[:i]
			}
			for _, m := range modules {
				if m == rest {
					return m
				}
			}
			return bucketOther
		}
	}
	return bucketOther
}

// attribute returns every bucket's share of the samples in percent:
// one entry per module plus bucketGC and bucketOther, summing to 100.
func attribute(stacks []stack) map[string]float64 {
	counts := make(map[string]int64, len(modules)+2)
	var total int64
	for _, s := range stacks {
		counts[bucketOf(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(modules)+2)
	for _, b := range append(append([]string(nil), modules...), bucketGC, bucketOther) {
		if total > 0 {
			shares[b] = 100 * float64(counts[b]) / float64(total)
		} else {
			shares[b] = 0
		}
	}
	return shares
}

// parseProfile decodes a gzip-compressed pprof protobuf (as written by
// runtime/pprof) into its sample stacks, weighted by the first sample
// value (the sample count for a CPU profile). Only the fields the
// attribution needs are read: Profile.sample (2), .location (4),
// .function (5) and .string_table (6).
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&values, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				name := ""
				if i := fnName[fid]; i >= 0 && i < int64(len(strs)) {
					name = strs[i]
				}
				st.frames = append(st.frames, name)
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the top-level fields of one protobuf message. For a
// varint field fn gets its value; for a length-delimited field, its
// bytes. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", typ)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as
// one unpacked value (b == nil) or as a packed run.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
