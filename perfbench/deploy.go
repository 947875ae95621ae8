package main

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"immune"
	"immune/internal/core"
	"immune/internal/orb"
)

// counter is the benchmark's servant, a counting register: every
// operation ("push" from the packet driver, "next" from two-way callers)
// adds one, and "next" replies with the new count, so replies of one
// group must come out distinct and gap-free.
type counter struct {
	n        atomic.Int64
	ops      *opLog // non-nil when an execution completes the operation (one-way)
	spans    *spanLog
	miscount bool // deliberately wrong: skips a value once (smoke test)
}

func (c *counter) Invoke(op string, args []byte) ([]byte, error) {
	start := time.Now()
	step := int64(1)
	if c.miscount && c.n.Load() == 9 {
		step = 2
	}
	v := c.n.Add(step)
	var trace uint64
	if len(args) >= 8 {
		trace = binary.LittleEndian.Uint64(args)
	}
	if c.ops != nil {
		c.ops.complete(trace, time.Now())
	}
	var reply []byte
	if op == "next" {
		e := immune.NewEncoder()
		e.WriteLongLong(v)
		reply = e.Bytes()
	}
	c.spans.add(spanExec, 0, trace, start, time.Now())
	return reply, nil
}

func (c *counter) Snapshot() []byte {
	e := immune.NewEncoder()
	e.WriteLongLong(c.n.Load())
	return e.Bytes()
}

func (c *counter) Restore(snap []byte) error {
	v, err := immune.NewDecoder(snap).ReadLongLong()
	if err != nil {
		return err
	}
	c.n.Store(v)
	return nil
}

// sinkGroup is one server object group hosted with HostGroup (degree 3 on
// P1–P3, re-hosted by the recovery manager after a crash). It remembers
// which servant lives on which processor so replica agreement can be
// checked directly rather than through the vote.
type sinkGroup struct {
	id  immune.GroupID
	key string

	mu      sync.Mutex
	created []*counter // every servant the factory made, in order
	byHost  map[immune.ProcessorID]*counter
}

// rehost moves the crashed host's entry to the new host, which received
// the last servant made (recovery places one replica at a time).
func (g *sinkGroup) rehost(from, to immune.ProcessorID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.byHost, from)
	g.byHost[to] = g.created[len(g.created)-1]
}

// counts returns the live replicas' counts.
func (g *sinkGroup) counts() map[immune.ProcessorID]int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[immune.ProcessorID]int64, len(g.byHost))
	for p, c := range g.byHost {
		out[p] = c.n.Load()
	}
	return out
}

// agreed reports whether every live replica holds the same count.
func (g *sinkGroup) agreed() (int64, bool) {
	var first int64 = -1
	for _, n := range g.counts() {
		if first >= 0 && n != first {
			return n, false
		}
		first = n
	}
	return first, true
}

// driver is one client replica: its index and an object reference per
// sink key.
type driver struct {
	who  uint8
	objs []*orb.ObjRef // indexed like deployment.groups
}

type deployment struct {
	sys     *immune.System
	groups  []*sinkGroup
	drivers []*driver
}

// deploySpec is the part of a workload that shapes the deployment.
type deploySpec struct {
	level  immune.Level
	groups int
	// packetDriver selects one 3-way replicated driver group on P4–P6
	// whose one-way calls complete when a servant executes them, instead
	// of three unreplicated two-way drivers.
	packetDriver bool
}

const (
	serverHosts  = 3 // sink replicas on P1–P3
	driverFirst  = immune.ProcessorID(4)
	driverGroup  = immune.GroupID(100) // replicated driver (packet driver)
	singleDriver = immune.GroupID(110) // + driver index: unreplicated drivers
)

// deploy starts the six-processor stack through the immune facade, hosts
// the sink groups and drivers, and returns once every replica is active.
// The second result is the set-up time. spans is nil for untraced runs.
func deploy(spec deploySpec, seed uint64, ops *opLog, spans *spanLog, miscount bool) (*deployment, time.Duration, error) {
	start := time.Now()
	sys, err := immune.New(immune.Config{
		Processors:     6,
		Level:          spec.level,
		Seed:           seed,
		AutoRecover:    true,
		DisableMetrics: spans == nil,
	})
	if err != nil {
		return nil, 0, err
	}
	sys.Start()
	d := &deployment{sys: sys}
	fail := func(err error) (*deployment, time.Duration, error) {
		sys.Stop()
		return nil, 0, err
	}
	hosts := []immune.ProcessorID{1, 2, 3}
	for i := 0; i < spec.groups; i++ {
		g := &sinkGroup{id: immune.GroupID(i + 1), key: fmt.Sprintf("sink%d", i), byHost: make(map[immune.ProcessorID]*counter)}
		factory := func() immune.Servant {
			c := &counter{spans: spans, miscount: miscount}
			if spec.packetDriver {
				c.ops = ops
			}
			g.mu.Lock()
			g.created = append(g.created, c)
			g.mu.Unlock()
			return c
		}
		rs, err := sys.HostGroup(g.id, g.key, serverHosts, factory, hosts...)
		if err != nil {
			return fail(fmt.Errorf("host %s: %w", g.key, err))
		}
		for j, p := range hosts {
			g.byHost[p] = g.created[j]
		}
		for _, r := range rs {
			if err := r.WaitActive(20 * time.Second); err != nil {
				return fail(fmt.Errorf("replica %s: %w", r.ID(), err))
			}
		}
		d.groups = append(d.groups, g)
	}
	for i := 0; i < 3; i++ {
		pid := driverFirst + immune.ProcessorID(i)
		cg := driverGroup
		if !spec.packetDriver {
			cg = singleDriver + immune.GroupID(i)
		}
		p, err := coreOf(sys).Processor(pid)
		if err != nil {
			return fail(err)
		}
		o, ic, h, err := p.ClientORB(cg)
		if err != nil {
			return fail(fmt.Errorf("driver on %s: %w", pid, err))
		}
		if spans != nil {
			o.SetTransport(&timedTransport{ic: ic, spans: spans, who: uint8(i)})
		}
		dr := &driver{who: uint8(i)}
		for _, g := range d.groups {
			ic.Bind(g.key, g.id)
			dr.objs = append(dr.objs, o.ObjRef(g.key))
		}
		if err := h.WaitActive(20 * time.Second); err != nil {
			return fail(fmt.Errorf("driver on %s: %w", pid, err))
		}
		d.drivers = append(d.drivers, dr)
	}
	return d, time.Since(start), nil
}

// coreOf reaches the core system behind the facade. The benchmark needs
// core.Processor.ClientORB to put its timing shim between a driver's ORB
// and its interceptor, which the facade does not expose. The layout check
// turns a change to immune.System into a clear failure instead of a bad
// cast.
func coreOf(sys *immune.System) *core.System {
	t := reflect.TypeOf(immune.System{})
	if t.NumField() != 1 || t.Field(0).Type != reflect.TypeOf((*core.System)(nil)) {
		panic("perfbench: immune.System no longer wraps a single *core.System")
	}
	return *(**core.System)(unsafe.Pointer(sys))
}

// body builds an operation's request body: its id, then seeded bytes.
func body(id uint64, rnd uint64) []byte {
	b := make([]byte, bodySize)
	binary.LittleEndian.PutUint64(b, id)
	binary.LittleEndian.PutUint64(b[8:], rnd)
	return b
}
