package main

import (
	"bytes"
	"compress/gzip"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pimsim/internal/cache.(*Hierarchy).AccessEvent":    "cache",
		"pimsim/internal/sim.(*Kernel).dispatch":            "sim",
		"pimsim/internal/sim.(*ring[go.shape.int]).push":    "sim",
		"pimsim/internal/workloads.(*pagerank).Streams.fn1": "workloads",
		"pimsim/internal/stats.(*Registry).Get":             "other",
		"pimsim/pei.RunJob":                                 "other",
		"main.(*countingStream).Next":                       "bench",
		"pimsim/perfbench.(*countingStream).Next":           "bench",
		"hash/crc32.ieeeCLMUL":                              "",
		"runtime.mallocgc":                                  "",
		"pimsimx/internal/cache.F":                          "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pbWriter encodes the few profile.proto fields foldProfile reads.
type pbWriter struct{ b []byte }

func (w *pbWriter) varint(x uint64) {
	for x >= 0x80 {
		w.b = append(w.b, byte(x)|0x80)
		x >>= 7
	}
	w.b = append(w.b, byte(x))
}

func (w *pbWriter) uint(field int, x uint64) {
	w.varint(uint64(field)<<3 | 0)
	w.varint(x)
}

func (w *pbWriter) bytes(field int, b []byte) {
	w.varint(uint64(field)<<3 | 2)
	w.varint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) packed(field int, xs ...uint64) {
	var p pbWriter
	for _, x := range xs {
		p.varint(x)
	}
	w.bytes(field, p.b)
}

// syntheticProfile builds a gzipped profile whose functions and stacks
// exercise inlining, unpacked and packed repeated fields and samples
// without any simulator frame.
func syntheticProfile(t *testing.T) []byte {
	t.Helper()
	var p pbWriter
	strs := []string{"", "runtime.mallocgc", "pimsim/internal/hmc.(*Link).send", "hash/crc32.update",
		"pimsim/internal/cache.(*Hierarchy).AccessEvent", "runtime.gcBgMarkWorker", "main.(*countingStream).Next"}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	for id := uint64(1); id < uint64(len(strs)); id++ {
		var f pbWriter
		f.uint(1, id)
		f.uint(2, id) // function id i is named strs[i]
		p.bytes(5, f.b)
	}
	loc := func(id uint64, funcs ...uint64) {
		var l pbWriter
		l.uint(1, id)
		for _, fn := range funcs {
			var line pbWriter
			line.uint(1, fn)
			line.uint(2, 10)
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
	}
	loc(1, 1)    // runtime.mallocgc
	loc(2, 3, 2) // crc32.update inlined into hmc send
	loc(3, 4)    // cache
	loc(4, 5)    // GC worker
	loc(5, 6)    // benchmark wrapper
	sample := func(count uint64, locs ...uint64) {
		var s pbWriter
		if len(locs) > 2 {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.uint(1, l)
			}
		}
		s.packed(2, count, count*10_000_000)
		p.bytes(2, s.b)
	}
	sample(3, 1, 3)    // malloc under cache → cache
	sample(5, 2)       // inlined crc32 under hmc → hmc
	sample(7, 1, 2, 3) // innermost simulator frame is hmc
	sample(2, 4)       // no simulator frame → runtime
	sample(4, 5, 3)    // benchmark wrapper → bench
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldProfileSynthetic(t *testing.T) {
	got, err := foldProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 3, "hmc": 12, "runtime": 2, "bench": 4}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("fold[%s] = %d, want %d (all: %v)", l, got[l], n, got)
		}
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("fold of non-gzip input succeeded")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // field 2, length 127, one byte
	zw.Close()
	if _, err := foldProfile(buf.Bytes()); err == nil {
		t.Error("fold of a truncated message succeeded")
	}
}

var sink uint64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

// TestFoldProfileReal folds a profile the runtime wrote, so a misread of
// the real encoding shows: every sample must be charged, and the busy
// loop in this package must land on the benchmark's own layer.
func TestFoldProfileReal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, folded int64
	for _, s := range p.samples {
		total += s.values[0]
	}
	for _, n := range got {
		folded += n
	}
	if total == 0 {
		t.Skip("profile caught no samples")
	}
	if folded != total {
		t.Errorf("folded %d of %d samples: %v", folded, total, got)
	}
	// Under -race much of the loop runs in the race runtime, whose
	// C frames carry no Go caller, so ask only for some samples here.
	if got["bench"] == 0 {
		t.Errorf("busy loop charged none of %d samples to bench: %v", total, got)
	}
}
