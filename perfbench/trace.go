package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"immune/internal/interceptor"
)

// opLog records, per benchmark operation id, when the operation was due
// (open loop) or sent (closed loop) and when it first completed, as
// microsecond offsets from the log's creation plus one (zero means unset).
// Fixed-size atomics keep the hot path lock-free; a load stops with
// errOpLogFull rather than dispatch past the capacity.
type opLog struct {
	epoch     time.Time
	due, done []atomic.Int32
	completed atomic.Int64 // operations with a first completion
	wake      chan struct{}
}

func newOpLog(capacity int) *opLog {
	return &opLog{
		epoch: time.Now(),
		due:   make([]atomic.Int32, capacity),
		done:  make([]atomic.Int32, capacity),
		wake:  make(chan struct{}, 1),
	}
}

func (l *opLog) capacity() uint64 { return uint64(len(l.due)) }

func (l *opLog) stamp(t time.Time) int32 { return int32(t.Sub(l.epoch)/time.Microsecond) + 1 }

func (l *opLog) at(v int32) time.Time { return l.epoch.Add(time.Duration(v-1) * time.Microsecond) }

func (l *opLog) setDue(id uint64, t time.Time) {
	if id < l.capacity() {
		l.due[id].Store(l.stamp(t))
	}
}

// complete records op id's first completion; later completions (the other
// replicas' executions of the same voted operation) are ignored.
func (l *opLog) complete(id uint64, t time.Time) {
	if id >= l.capacity() || !l.done[id].CompareAndSwap(0, l.stamp(t)) {
		return
	}
	l.completed.Add(1)
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// latencies returns due→done in milliseconds for ops in [lo, hi).
func (l *opLog) latencies(lo, hi uint64) []float64 {
	var out []float64
	for id := lo; id < hi && id < l.capacity(); id++ {
		d, c := l.due[id].Load(), l.done[id].Load()
		if d != 0 && c != 0 {
			out = append(out, ms(l.at(c).Sub(l.at(d))))
		}
	}
	return out
}

// longestGap is the longest stretch after from, up to until, with no
// completion: the time without service a crash imposed.
func (l *opLog) longestGap(hi uint64, from, until time.Time) time.Duration {
	var ts []time.Time
	for id := uint64(0); id < hi && id < l.capacity(); id++ {
		if c := l.done[id].Load(); c != 0 {
			if t := l.at(c); t.After(from) && t.Before(until) {
				ts = append(ts, t)
			}
		}
	}
	slices.SortFunc(ts, time.Time.Compare)
	gap, prev := time.Duration(0), from
	for _, t := range ts {
		gap = max(gap, t.Sub(prev))
		prev = t
	}
	return max(gap, until.Sub(prev))
}

// Span names. Spans of one operation share its trace id (the benchmark's
// operation id, carried in the first eight bytes of every request body);
// an interceptor span's parent is the invoke span with the same trace and
// caller, and an exec span's parent is that operation's interceptor span.
const (
	spanInvoke      uint8 = iota // Object.Invoke / InvokeOneWay: ORB + everything below
	spanInterceptor              // the interceptor's Submit: replication round trip
	spanExec                     // the benchmark servant's Invoke
	spanHealth                   // a System.Health poll
	spanView                     // a Processor.View poll
	numSpanNames
)

var spanNames = [numSpanNames]string{"invoke", "interceptor", "exec", "health", "view"}

type span struct {
	name       uint8
	who        uint8 // calling driver replica (invoke, interceptor)
	trace      uint64
	start, end int64 // ns since the log's epoch
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, which is how untraced runs pay no tracing cost.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func (s *spanLog) add(name, who uint8, trace uint64, start, end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.spans = append(s.spans, span{name, who, trace, int64(start.Sub(s.epoch)), int64(end.Sub(s.epoch))})
	s.mu.Unlock()
}

// durations returns the durations of every span of one name, and orb self
// time (invoke minus its interceptor child) per call.
func (s *spanLog) durations() (byName [numSpanNames][]float64, orbSelf []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	type key struct {
		trace uint64
		who   uint8
	}
	invoke := make(map[key]int64)
	for _, sp := range s.spans {
		byName[sp.name] = append(byName[sp.name], float64(sp.end-sp.start)/1e3)
		if sp.name == spanInvoke {
			invoke[key{sp.trace, sp.who}] = sp.end - sp.start
		}
	}
	for _, sp := range s.spans {
		if sp.name == spanInterceptor {
			if d, ok := invoke[key{sp.trace, sp.who}]; ok {
				orbSelf = append(orbSelf, float64(d-(sp.end-sp.start))/1e3)
			}
		}
	}
	return byName, orbSelf
}

// writeJSONL writes every span, one JSON object per line.
func (s *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	s.mu.Lock()
	for i, sp := range s.spans {
		fmt.Fprintf(w, `{"span":%d,"name":%q,"trace":%d,"who":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, spanNames[sp.name], sp.trace, sp.who, sp.start, sp.end)
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// timedTransport is the timing shim installed with orb.ORB.SetTransport
// between a driver's ORB and its Immune interceptor.
type timedTransport struct {
	ic    *interceptor.Interceptor
	spans *spanLog
	who   uint8
}

func (t *timedTransport) Submit(req []byte, oneway bool) (<-chan []byte, error) {
	return t.SubmitDeadline(req, oneway, time.Time{})
}

func (t *timedTransport) SubmitDeadline(req []byte, oneway bool, deadline time.Time) (<-chan []byte, error) {
	start := time.Now()
	ch, err := t.ic.SubmitDeadline(req, oneway, deadline)
	t.spans.add(spanInterceptor, t.who, traceOfRequest(req), start, time.Now())
	return ch, err
}

// bodySize is the request body of every workload: the paper's 16-byte
// packet, whose first eight bytes carry the operation id. GIOP appends the
// body last, so the id sits at a fixed offset from the end of a request.
const bodySize = 16

func traceOfRequest(req []byte) uint64 {
	if len(req) < bodySize {
		return 0
	}
	return binary.LittleEndian.Uint64(req[len(req)-bodySize:])
}
