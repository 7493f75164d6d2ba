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

// cpuShares folds a runtime/pprof CPU profile into the per-package
// shares the per-layer metrics report. Each sample is charged to the
// innermost hmcsim/... frame on its stack, so standard-library work
// counts under the layer that asked for it (sync.Pool under packet,
// math under traffic); samples with no hmcsim frame at all (the GC,
// the scheduler, net/http plumbing) count as runtime. The queue share
// is kept apart because sim also holds Waiters.Fire. Samples in the
// benchmark's own calibration kernel are left out of every share.
func cpuShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if p.inCalibration(s.locs) {
			continue
		}
		fn := p.innermostHmcsim(s.locs)
		counts[cpuLayer(fn)] += s.count
		if queueFuncs[fn] {
			counts["cpu.sim_queue"] += s.count
		}
		total += s.count
	}
	out := map[string]float64{"cpu.samples": float64(total)}
	if total == 0 {
		return out, nil
	}
	for k, n := range counts {
		out[k] = 100 * float64(n) / float64(total)
	}
	return out, nil
}

// queueFuncs are the event queue's own functions.
var queueFuncs = map[string]bool{
	"hmcsim/internal/sim.(*Engine).pop":   true,
	"hmcsim/internal/sim.(*Engine).push":  true,
	"hmcsim/internal/sim.(*event).before": true,
}

// layerPkgs are the internal packages reported under their own name.
var layerPkgs = map[string]bool{
	"sim": true, "host": true, "link": true, "noc": true, "hmc": true, "vault": true,
	"dram": true, "packet": true, "traffic": true, "service": true,
}

// cpuLayer maps a function name to its cpu.* metric.
func cpuLayer(fn string) string {
	if fn == "" {
		return "cpu.runtime"
	}
	if rest, ok := strings.CutPrefix(fn, "hmcsim/internal/"); ok {
		if pkg, _, ok := strings.Cut(rest, "."); ok && layerPkgs[pkg] {
			return "cpu." + pkg
		}
	}
	return "cpu.other"
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location ID -> function IDs, innermost inlined first
	funcs   map[uint64]int64    // function ID -> name's string-table index
	strs    []string
}

// innermostHmcsim returns the name of the innermost hmcsim/... frame of
// a stack, or "" if it has none.
func (p *profile) innermostHmcsim(locs []uint64) string {
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if name := p.funcName(f); strings.HasPrefix(name, "hmcsim/") {
				return name
			}
		}
	}
	return ""
}

// funcName resolves a function ID to its name.
func (p *profile) funcName(id uint64) string {
	idx := p.funcs[id]
	if idx < 0 || idx >= int64(len(p.strs)) {
		return ""
	}
	return p.strs[idx]
}

// inCalibration reports whether a stack runs the reference kernel.
func (p *profile) inCalibration(locs []uint64) bool {
	for _, l := range locs {
		for _, f := range p.locs[l] {
			if name := p.funcName(f); strings.HasPrefix(name, "main.refKernel") {
				return true
			}
		}
	}
	return false
}

// parseProfile decodes the parts of a gzipped profile.proto message the
// fold needs: samples, locations, functions and the string table.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err = eachField(raw, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			var vals []int64
			err := eachField(msg, func(num int, v uint64, packed []byte) error {
				switch num {
				case 1: // location_id
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2: // value; [0] is the sample count
					return eachVarint(v, packed, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = vals[0]
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, line []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message. For varint fields fn gets the
// value; for length-delimited fields it gets the bytes. Fixed-width
// fields are skipped (profile.proto's fields the fold reads have none).
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, msg); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
	}
	return nil
}

// eachVarint yields a repeated integer field's values, which arrive
// either one per field (v) or packed into a length-delimited run.
func eachVarint(v uint64, packed []byte, fn func(uint64)) error {
	if packed == nil {
		fn(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n == 0 {
			return errTruncated
		}
		fn(x)
		packed = packed[n:]
	}
	return nil
}

// uvarint decodes a base-128 varint, returning 0 bytes read on error.
func uvarint(b []byte) (uint64, int) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0
	}
	return x, n
}
