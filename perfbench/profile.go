package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The module has no dependencies, so this file reads the profile.proto
// that runtime/pprof writes with a minimal protobuf decoder and folds the
// CPU samples by layer. Only the fields the fold needs are decoded.

// layers are the names a CPU sample is charged to. Every sample lands in
// exactly one, so their shares sum to 1.
var layers = []string{
	"sim", "cpu", "cache", "pim", "hmc", "dram", "workloads", "graph",
	"memlayout", "machine", "harness", "runtime", "bench", "other",
}

// layerOf maps a function name from a profile to its layer, or "" when
// the function is outside the simulator and the benchmark.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexByte(pkg, '['); i >= 0 {
		pkg = pkg[:i] // drop type arguments, which may hold dots and slashes
	}
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "pimsim/perfbench":
		// The benchmark itself, named main in its binary and by import
		// path in its tests: the traced run's stream wrapper and span
		// bookkeeping.
		return "bench"
	case strings.HasPrefix(pkg, "pimsim/internal/"):
		name := strings.TrimPrefix(pkg, "pimsim/internal/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	case pkg == "pimsim" || strings.HasPrefix(pkg, "pimsim/"):
		return "other"
	}
	return ""
}

// foldProfile charges each sample of a gzipped CPU profile to the layer
// of its innermost simulator or benchmark frame, inlined frames
// included; samples with no such frame go to "runtime". So hash/crc32
// under the HMC packet code counts as hmc, and mallocgc counts as the
// layer that allocated. It returns sample counts by layer.
func foldProfile(gz []byte) (map[string]int64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		layer := "runtime"
	frames:
		for _, loc := range s.locs { // leaf first
			for _, fid := range p.locFuncs[loc] { // innermost inlined first
				if l := layerOf(p.funcName(fid)); l != "" {
					layer = l
					break frames
				}
			}
		}
		out[layer] += s.values[0]
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids
	funcs    map[uint64]int64    // function id → name string index
	strs     []string
}

func (p *profile) funcName(id uint64) string {
	i, ok := p.funcs[id]
	if !ok || i < 0 || i >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[i]
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbuf walks one protobuf message.
type pbuf struct {
	b []byte
}

func (d *pbuf) varint() (uint64, error) {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(d.b) == 0 {
			return 0, errTruncated
		}
		c := d.b[0]
		d.b = d.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field's number and wire type, plus its varint
// value (wire type 0) or its bytes (wire type 2); fixed-width fields are
// skipped over.
func (d *pbuf) next() (field int, wire int, v uint64, data []byte, err error) {
	key, err := d.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = d.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(d.b) < n {
			return 0, 0, 0, nil, errTruncated
		}
		d.b = d.b[n:]
	case 2:
		var n uint64
		if n, err = d.varint(); err == nil {
			if n > uint64(len(d.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			data, d.b = d.b[:n], d.b[n:]
		}
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, v, data, err
}

// uints appends a repeated integer field, which the encoder writes
// either packed (wire type 2) or one value per field (wire type 0).
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	d := pbuf{data}
	for len(d.b) > 0 {
		x, err := d.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]uint64), funcs: make(map[uint64]int64)}
	d := pbuf{raw}
	for len(d.b) > 0 {
		field, _, _, data, err := d.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2:
			s, err := decodeSample(data)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, s)
		case 4:
			id, fids, err := decodeLocation(data)
			if err != nil {
				return nil, err
			}
			p.locFuncs[id] = fids
		case 5:
			id, name, err := decodeFunction(data)
			if err != nil {
				return nil, err
			}
			p.funcs[id] = name
		case 6:
			p.strs = append(p.strs, string(data))
		}
	}
	return p, nil
}

func decodeSample(b []byte) (profSample, error) {
	var s profSample
	var vals []uint64
	d := pbuf{b}
	for len(d.b) > 0 {
		field, wire, v, data, err := d.next()
		if err != nil {
			return s, err
		}
		switch field {
		case 1:
			s.locs, err = uints(s.locs, wire, v, data)
		case 2:
			vals, err = uints(vals, wire, v, data)
		}
		if err != nil {
			return s, err
		}
	}
	for _, v := range vals {
		s.values = append(s.values, int64(v))
	}
	return s, nil
}

func decodeLocation(b []byte) (id uint64, funcs []uint64, err error) {
	d := pbuf{b}
	for len(d.b) > 0 {
		field, _, v, data, err := d.next()
		if err != nil {
			return 0, nil, err
		}
		switch field {
		case 1:
			id = v
		case 4: // Line{function_id = 1, line = 2}
			ld := pbuf{data}
			for len(ld.b) > 0 {
				f, _, lv, _, err := ld.next()
				if err != nil {
					return 0, nil, err
				}
				if f == 1 {
					funcs = append(funcs, lv)
				}
			}
		}
	}
	return id, funcs, nil
}

func decodeFunction(b []byte) (id uint64, name int64, err error) {
	d := pbuf{b}
	for len(d.b) > 0 {
		field, _, v, _, err := d.next()
		if err != nil {
			return 0, 0, err
		}
		switch field {
		case 1:
			id = v
		case 2:
			name = int64(v)
		}
	}
	return id, name, nil
}
