package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// modules are the layers CPU time is attributed to: the packages under
// immune/internal, named as in the per-layer metrics (replication is
// "rm"), plus "bench" for the benchmark's own goroutines and servants.
// Whatever no module claims is "runtime" when the stack is the Go
// runtime's alone (GC workers, the scheduler) and "other" otherwise.
var modules = []string{
	"iiop", "orb", "interceptor", "rm", "voting", "ring", "sec", "smp",
	"netsim", "membership", "detector", "recovery", "group", "core", "obs",
	"wire", "ids", "transport", "bench", "runtime", "other",
}

// moduleOf names the module a function belongs to, or "" for none.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "immune/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		if rest == "replication" {
			return "rm"
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// cpuNS attributes the CPU nanoseconds of every sample of a gzipped pprof
// CPU profile to the module of its innermost immune/internal (or
// benchmark) frame, so library code such as math/big under sec counts as
// sec, and map iteration under the voter counts as voting.
func cpuNS(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []int64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1] // cpu nanoseconds
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	ns := make(map[string]float64, len(modules))
	for _, s := range samples {
		mod, runtimeOnly := "", true
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				n := name(fn)
				if mod = moduleOf(n); mod != "" {
					break walk
				}
				if !strings.HasPrefix(n, "runtime.") {
					runtimeOnly = false
				}
			}
		}
		switch {
		case mod != "":
		case runtimeOnly:
			mod = "runtime"
		default:
			mod = "other"
		}
		ns[mod] += float64(s.value)
	}
	return ns, nil
}

// protoFields walks the fields of one protobuf message, handing varints
// as v and length-delimited fields as b.
func protoFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return errors.New("profile: unknown wire type")
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (v)
// or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
