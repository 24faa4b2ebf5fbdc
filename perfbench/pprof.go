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

// This file reads the CPU profile the traced run writes and splits its
// samples by layer. It decodes just the parts of the pprof protobuf
// format (github.com/google/pprof/proto/profile.proto) it needs, so the
// benchmark keeps to the standard library.

// cpuLayers are the layers CPU samples are attributed to, in report order.
var cpuLayers = []string{"euler", "cache", "platform", "amr", "mpi", "tau_cca", "results", "serve", "runtime_gc", "other"}

// pkgLayer maps a repro/internal package path (without the prefix) to its
// layer.
func pkgLayer(pkg string) string {
	switch {
	case pkg == "euler", pkg == "cache", pkg == "platform", pkg == "amr", pkg == "mpi":
		return pkg
	case pkg == "tau", pkg == "cca", pkg == "core", pkg == "components":
		return "tau_cca"
	case pkg == "results/serve":
		return "serve"
	case pkg == "results" || strings.HasPrefix(pkg, "results/"):
		return "results"
	}
	return "other"
}

// frameLayer returns the layer of a function name when it belongs to a
// repro/internal package.
func frameLayer(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return "", false
	}
	pkg := rest
	slash := strings.LastIndex(rest, "/")
	if dot := strings.Index(rest[slash+1:], "."); dot >= 0 {
		pkg = rest[:slash+1+dot]
	}
	return pkgLayer(pkg), true
}

// sampleLayer attributes one stack (leaf first) to the first
// repro/internal frame from the leaf, so math.Pow called by a Riemann
// solve counts as euler. Stacks with no such frame are runtime_gc when
// they run the garbage collector and other otherwise.
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if layer, ok := frameLayer(fn); ok {
			return layer
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime_gc"
		}
	}
	return "other"
}

// cpuShares decodes a gzipped CPU profile and returns each layer's share
// of the sampled CPU time.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	valueIdx := len(p.sampleTypes) - 1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			valueIdx = i
		}
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if valueIdx < 0 || valueIdx >= len(s.values) {
			continue
		}
		var stack []string
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.str(p.functions[fid]))
			}
		}
		v := float64(s.values[valueIdx])
		byLayer[sampleLayer(stack)] += v
		total += v
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = byLayer[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// profile is the decoded subset of a pprof profile.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locations   map[uint64][]uint64 // location id -> function ids, leaf first
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type sample struct {
	locations []uint64
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// pbField is one decoded protobuf field: a varint value or a byte slice.
type pbField struct {
	num   int
	wire  int
	v     uint64
	bytes []byte
}

// pbFields splits a protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return nil, errors.New("bad varint")
			}
			f.v, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errors.New("short fixed64")
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errors.New("bad length")
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errors.New("short fixed32")
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated varint field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	b := f.bytes
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// decodeProfile decodes the sample types, samples, locations, functions
// and string table of a raw (uncompressed) profile.
func decodeProfile(b []byte) (*profile, error) {
	fields, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	for _, f := range fields {
		if f.wire != 2 {
			continue
		}
		switch f.num {
		case 1: // sample_type
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var typ int64
			for _, s := range sub {
				if s.num == 1 {
					typ = int64(s.v)
				}
			}
			p.sampleTypes = append(p.sampleTypes, typ)
		case 2: // sample
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			for _, sf := range sub {
				vs, err := sf.varints()
				if err != nil {
					return nil, err
				}
				switch sf.num {
				case 1:
					s.locations = append(s.locations, vs...)
				case 2:
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
			}
			p.samples = append(p.samples, s)
		case 4: // location
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, lf := range sub {
				switch lf.num {
				case 1:
					id = lf.v
				case 4: // line
					line, err := pbFields(lf.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range line {
						if l.num == 1 {
							fns = append(fns, l.v)
						}
					}
				}
			}
			p.locations[id] = fns
		case 5: // function
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, ff := range sub {
				switch ff.num {
				case 1:
					id = ff.v
				case 2:
					name = int64(ff.v)
				}
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(f.bytes))
		}
	}
	return p, nil
}
