package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"immune"
)

// cycle is one crash-failover cycle's timeline.
type cycle struct {
	victim  immune.ProcessorID
	crash   time.Time
	suspect time.Time     // first survivor suspects the victim
	exclude time.Time     // every survivor's view excludes the victim
	full    time.Time     // Health shows every sink group at full degree again
	rejoin  time.Time     // the reattached victim is back in every survivor's view
	outage  time.Duration // longest time without a completion after the crash
}

// slowPath reports whether the exclusion waited out the membership
// formation timeout: a survivor that receives another's proposal before
// its own detector has suspected the victim proposes the old membership
// until the 100ms timeout, against about 1ms from first suspicion to
// install otherwise.
func (c cycle) slowPath() bool { return c.exclude.Sub(c.suspect) > 50*time.Millisecond }

const (
	pollEvery    = time.Millisecond
	phaseTimeout = 20 * time.Second
	// observer is a processor that is never crashed (it hosts a driver),
	// used to read group membership.
	observer = immune.ProcessorID(6)
)

// victim picks the lowest-numbered processor that hosts a sink replica and
// no driver, so crashes hit servers only and the load keeps flowing.
func (d *deployment) victim() (immune.ProcessorID, error) {
	for p := immune.ProcessorID(1); p < driverFirst; p++ {
		for _, g := range d.groups {
			if _, ok := g.counts()[p]; ok {
				return p, nil
			}
		}
	}
	return 0, errors.New("no server-only processor hosts a sink replica")
}

// poll calls cond every pollEvery until it holds or phaseTimeout passes.
func poll(what string, cond func() bool) error {
	deadline := time.Now().Add(phaseTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("failover: %s did not happen within %s", what, phaseTimeout)
		}
		time.Sleep(pollEvery)
	}
	return nil
}

// crash crashes a server host and waits until every survivor has
// excluded it and recovery has restored every sink group to full degree.
func (d *deployment) crash(spans *spanLog) (cycle, error) {
	var c cycle
	v, err := d.victim()
	if err != nil {
		return c, err
	}
	c.victim = v
	obs, err := d.sys.Processor(observer)
	if err != nil {
		return c, err
	}
	var survivors []*immune.Processor
	for _, p := range d.sys.Processors() {
		if p != v {
			sp, err := d.sys.Processor(p)
			if err != nil {
				return c, err
			}
			survivors = append(survivors, sp)
		}
	}

	c.crash = time.Now()
	d.sys.CrashProcessor(v)
	err = poll("exclusion", func() bool {
		excluded := true
		for _, sp := range survivors {
			start := time.Now()
			members := sp.View().Members
			if c.suspect.IsZero() && slices.Contains(sp.Suspects(), v) {
				c.suspect = time.Now()
			}
			spans.add(spanView, 0, 0, start, time.Now())
			if slices.Contains(members, v) {
				excluded = false
			}
		}
		return excluded
	})
	if err != nil {
		return c, err
	}
	c.exclude = time.Now()
	if c.suspect.IsZero() {
		c.suspect = c.exclude
	}
	err = poll("recovery to full degree", func() bool {
		start := time.Now()
		h := d.sys.Health()
		spans.add(spanHealth, 0, 0, start, time.Now())
		for _, g := range d.groups {
			gh, ok := groupHealth(h, g.id)
			if !ok || gh.Live < gh.Degree || gh.Recovering {
				return false
			}
			// The observer's directory may trail the processor Health
			// reads; the replacement is identified from it below.
			if m := obs.GroupMembers(g.id); len(m) != serverHosts || hosts(m, v) {
				return false
			}
		}
		return true
	})
	if err != nil {
		return c, err
	}
	c.full = time.Now()
	for _, g := range d.groups {
		if _, hosted := g.counts()[v]; !hosted {
			continue
		}
		var to immune.ProcessorID
		for _, r := range obs.GroupMembers(g.id) {
			if _, known := g.counts()[r.Processor]; !known {
				to = r.Processor
			}
		}
		if to == 0 {
			return c, fmt.Errorf("failover: no replacement for %s's replica on %s", g.key, v)
		}
		g.rehost(v, to)
	}
	return c, nil
}

// rejoin reattaches the cycle's victim and waits until it is back in
// every survivor's view.
func (d *deployment) rejoin(c *cycle, spans *spanLog) error {
	v := c.victim
	d.sys.ReattachProcessor(v)
	var survivors []*immune.Processor
	for _, p := range d.sys.Processors() {
		if p != v {
			sp, err := d.sys.Processor(p)
			if err != nil {
				return err
			}
			survivors = append(survivors, sp)
		}
	}
	err := poll("rejoin", func() bool {
		for _, sp := range survivors {
			start := time.Now()
			in := slices.Contains(sp.View().Members, v)
			spans.add(spanView, 0, 0, start, time.Now())
			if !in {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	c.rejoin = time.Now()
	return nil
}

func hosts(members []immune.ReplicaID, p immune.ProcessorID) bool {
	for _, r := range members {
		if r.Processor == p {
			return true
		}
	}
	return false
}

func groupHealth(h immune.Health, g immune.GroupID) (immune.GroupHealth, bool) {
	for _, gh := range h.Groups {
		if gh.Group == g {
			return gh, true
		}
	}
	return immune.GroupHealth{}, false
}

// awaitAgreement waits until every live replica of every sink group holds
// the same count: with load still flowing replicas pass through equal
// states often, while a replica that received a wrong state never does.
func (d *deployment) awaitAgreement(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, g := range d.groups {
		for {
			if _, ok := g.agreed(); ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: live replicas disagree: %v", g.key, g.counts())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}
