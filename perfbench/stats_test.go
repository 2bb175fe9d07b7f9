package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{xs, 0.5, 3},
		{xs, 0, 1},
		{xs, 1, 5},
		{xs, 0.25, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{7}, 0.9, 7},
		{nil, 0.5, 0},
		// 1..11: p90 sits at rank 9 of 0..10, the value 10.
		{[]float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9, 10},
		{[]float64{1, 2}, 0.9, 1.9},
	} {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestDigest(t *testing.T) {
	sum := func(stats map[string]int64, cycles int64) string {
		d := newDigest()
		d.field("cycles", cycles)
		d.stats("stat.", stats)
		return d.sum()
	}
	a := map[string]int64{"l1.hits": 10, "l1.misses": 2, "pei.total": 7, "dram.reads": 3}
	b := map[string]int64{"dram.reads": 3, "pei.total": 7, "l1.misses": 2, "l1.hits": 10}
	if sum(a, 100) != sum(b, 100) {
		t.Error("digest depends on map insertion order")
	}
	for i := 0; i < 20; i++ {
		if sum(a, 100) != sum(a, 100) {
			t.Fatal("digest depends on map iteration order")
		}
	}
	c := map[string]int64{"l1.hits": 10, "l1.misses": 2, "pei.total": 8, "dram.reads": 3}
	if sum(a, 100) == sum(c, 100) {
		t.Error("digest ignores a changed statistic")
	}
	if sum(a, 100) == sum(a, 101) {
		t.Error("digest ignores a changed field")
	}
	// Name and value stay apart: moving a digit between them changes it.
	d1, d2 := newDigest(), newDigest()
	d1.field("a1", 2)
	d2.field("a", 12)
	if d1.sum() == d2.sum() {
		t.Error("digest confuses field names with values")
	}
}
