// Package faultinject is a deterministic, seed-driven fault-injection
// harness for the execution layer. Instrumented sites in sched, spmv,
// core and graph call Fire (or Poison, for numeric faults) with a
// stable site name; an activated Plan counts the hits at each site
// with an atomic counter and triggers its rule — a panic, a NaN, or a
// delay — on exactly the configured hit. Because hits are counted, not
// timed, a given (plan, workload) pair fires at the same logical point
// on every run, which is what lets the recovery tests assert
// bit-for-bit results under -race.
//
// The harness is compiled in unconditionally (no build tags): the
// inactive fast path is a single atomic pointer load and a nil check,
// cheap enough for per-chunk call sites. Production builds simply
// never call Activate.
package faultinject

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Site names an instrumented program point. Sites are stable strings
// so test plans and bench scenarios survive refactors of the code
// around them.
type Site string

// The instrumented sites. Each fires once per unit of claimed work
// (chunk, task, part, …), so rule hit counts address deterministic
// logical points in a run even though workers race for the units.
const (
	// SiteSchedClaim fires in the pool worker once per claimed chunk or
	// part of any dynamic dispatch mode (steal, dyn, part).
	SiteSchedClaim Site = "sched.claim"
	// SiteFlippedTask fires once per flipped-block task pushed by the
	// fused iHTL workers.
	SiteFlippedTask Site = "core.flipped-task"
	// SiteSparsePart fires once per sparse-block chunk in the fused
	// iHTL workers.
	SiteSparsePart Site = "core.sparse-part"
	// SiteMergeBlock fires once per flipped-block merge (the countdown
	// release path).
	SiteMergeBlock Site = "core.merge-block"
	// SiteStepHealth is the numeric-poison site: Poison is consulted on
	// the first destination element of every worker's epilogue range
	// when a HealthPolicy is armed.
	SiteStepHealth Site = "core.step-health"
	// SitePushPart fires once per chunk in the buffered push baseline.
	SitePushPart Site = "spmv.push-part"
	// SitePullPart fires once per chunk in the pull baseline.
	SitePullPart Site = "spmv.pull-part"
	// SiteBuildSort fires once per adjacency-sort chunk during parallel
	// graph construction.
	SiteBuildSort Site = "graph.build-sort"
	// SiteBuildFill fires once per worker range in the static
	// relabel/rank/CSR-fill passes of parallel iHTL construction, so
	// fault plans can land inside BuildWithCtx's Fallible region.
	SiteBuildFill Site = "core.build-fill"
	// SiteServeAdmit fires once per admission decision in the query
	// daemon, before the request is queued or shed.
	SiteServeAdmit Site = "serve.admit"
	// SiteServeBatch fires once per coalesced batch dispatch, inside
	// the daemon's panic-isolation scope (Panic rules exercise the
	// bounded batch retry).
	SiteServeBatch Site = "serve.batch"
	// SiteServeSpool fires once per checkpoint spool write, inside the
	// job attempt's recovery scope.
	SiteServeSpool Site = "serve.spool"
)

// Kind selects what a rule does when it fires.
type Kind int

const (
	// Panic panics with *InjectedPanic from inside the instrumented
	// worker (exercises the pool's panic isolation).
	Panic Kind = iota
	// NaN makes Poison return a quiet NaN instead of its input
	// (exercises the numeric-health watchdog). NaN rules fire only at
	// Poison sites; Fire ignores them.
	NaN
	// Delay sleeps for Rule.Delay (exercises straggler tolerance and
	// widens race windows under -race).
	Delay
)

// Rule arms one fault at one site.
type Rule struct {
	Site Site
	Kind Kind
	// After is how many hits at Site pass through unharmed before the
	// rule fires: the (After+1)-th hit triggers it.
	After int64
	// Times bounds how many consecutive hits fire (<= 0 means 1).
	Times int64
	// Delay is the sleep duration of a Delay rule.
	Delay time.Duration
}

// Plan is an immutable set of armed rules plus their hit counters.
// Build one with NewPlan, install it with Activate, and query fired
// counts afterwards with Fired.
type Plan struct {
	rules map[Site][]*armedRule
}

type armedRule struct {
	Rule
	hits  atomic.Int64
	fired atomic.Int64
}

// NewPlan arms the given rules. The rule set is immutable after
// creation; only the hit counters mutate, atomically.
func NewPlan(rules ...Rule) *Plan {
	p := &Plan{rules: make(map[Site][]*armedRule, len(rules))}
	for _, r := range rules {
		p.rules[r.Site] = append(p.rules[r.Site], &armedRule{Rule: r})
	}
	return p
}

// Fired reports how many times the plan's rules at site have fired.
func (p *Plan) Fired(site Site) int64 {
	var n int64
	for _, a := range p.rules[site] {
		n += a.fired.Load()
	}
	return n
}

// Hits reports how many times site has been reached under this plan.
func (p *Plan) Hits(site Site) int64 {
	var n int64
	for _, a := range p.rules[site] {
		n += a.hits.Load()
	}
	return n
}

// active is the installed plan; nil (the common case) short-circuits
// every instrumented site to one atomic load.
var active atomic.Pointer[Plan]

// Activate installs p as the process-wide plan. It must not race with
// running work (tests activate before dispatch and deactivate after).
func Activate(p *Plan) { active.Store(p) }

// Deactivate removes the installed plan.
func Deactivate() { active.Store(nil) }

// InjectedPanic is the panic value of a fired Panic rule. Recovery
// tests unwrap the pool's PanicError and match on this type.
type InjectedPanic struct {
	Site Site
	Hit  int64
}

func (e *InjectedPanic) Error() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", e.Site, e.Hit)
}

// Fire is called by instrumented code once per unit of work at site.
// With no active plan it is a nil check. Panic rules panic with
// *InjectedPanic; Delay rules sleep; NaN rules are ignored (they only
// apply at Poison sites).
//
//ihtl:noalloc
func Fire(site Site) {
	p := active.Load()
	if p == nil {
		return
	}
	p.fire(site)
}

func (p *Plan) fire(site Site) {
	for _, a := range p.rules[site] {
		if a.Kind == NaN {
			continue
		}
		h := a.hits.Add(1) - 1
		if !a.inWindow(h) {
			continue
		}
		a.fired.Add(1)
		switch a.Kind {
		case Panic:
			panic(&InjectedPanic{Site: site, Hit: h})
		case Delay:
			time.Sleep(a.Delay)
		}
	}
}

// Poison is called by instrumented code that can corrupt a float64 at
// site: it returns x unchanged unless an armed NaN rule fires on this
// hit, in which case it returns NaN. With no active plan it is a nil
// check.
//
//ihtl:noalloc
func Poison(site Site, x float64) float64 {
	p := active.Load()
	if p == nil {
		return x
	}
	return p.poison(site, x)
}

func (p *Plan) poison(site Site, x float64) float64 {
	for _, a := range p.rules[site] {
		if a.Kind != NaN {
			continue
		}
		h := a.hits.Add(1) - 1
		if !a.inWindow(h) {
			continue
		}
		a.fired.Add(1)
		x = math.NaN()
	}
	return x
}

//ihtl:noalloc
func (a *armedRule) inWindow(h int64) bool {
	times := a.Times
	if times <= 0 {
		times = 1
	}
	return h >= a.After && h < a.After+times
}

// SeededAfter derives a deterministic hit index in [0, span) from a
// seed and the site name (splitmix64 over the seed xor a site hash).
// Randomised-point tests use it to pick injection points that vary
// across seeds but are reproducible for any given one.
func SeededAfter(seed uint64, site Site, span int64) int64 {
	if span <= 0 {
		return 0
	}
	x := seed
	for i := 0; i < len(site); i++ {
		x = (x ^ uint64(site[i])) * 0x9e3779b97f4a7c15
	}
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % uint64(span))
}
